// Package chat is the repository's second case study (the paper's
// conclusions list "demonstrating its applicability through case studies"
// as the next step): a totally ordered multiparty chat service designed
// with the same method as floor control —
//
//  1. a service definition: say/deliver primitives at participant SAPs
//     with ordering constraints, including a custom application-defined
//     TotalOrder constraint (core.Constraint is an open interface);
//  2. an interaction system behind the service boundary: a sequencer
//     protocol over the reliable-datagram lower service, whose ordered
//     broadcast splices msgid and text from the submit PDU's bytes;
//  3. a platform-independent service design (PIM) of the same logic over
//     abstract directed messaging, sending the protocol's own PDUs,
//     deployable on every concrete platform of the Figure 10 trajectory;
//  4. conformance checking of every implementation against the same
//     specification.
package chat

import (
	"fmt"

	"repro/internal/core"
)

// Role and primitive names of the ordered-chat service.
const (
	RoleParticipant = "participant"
	PrimSay         = "say"
	PrimDeliver     = "deliver"
)

// Parameter names.
const (
	ParamMsgID   = "msgid"
	ParamText    = "text"
	ParamSpeaker = "speaker"
)

// ParticipantSAP names the SAP of one participant.
func ParticipantSAP(id string) core.SAP { return core.SAP{Role: RoleParticipant, ID: id} }

// Spec returns the ordered-chat service definition: every utterance is
// eventually delivered to every participant, deliveries never precede
// their utterance, and all participants observe one shared total order.
func Spec() *core.ServiceSpec {
	return &core.ServiceSpec{
		Name:        "ordered-chat",
		Description: "multiparty chat with totally ordered delivery",
		Roles:       []core.RoleDef{{Name: RoleParticipant, Min: 2}},
		Primitives: []core.PrimitiveDef{
			{Name: PrimSay, Direction: core.FromUser, Params: []core.ParamDef{
				{Name: ParamMsgID, Kind: core.KindString},
				{Name: ParamText, Kind: core.KindString},
			}},
			{Name: PrimDeliver, Direction: core.ToUser, Params: []core.ParamDef{
				{Name: ParamMsgID, Kind: core.KindString},
				{Name: ParamText, Kind: core.KindString},
				{Name: ParamSpeaker, Kind: core.KindString},
			}},
		},
		Constraints: []core.Constraint{
			&core.Precedes{
				ConstraintName:   "no-spurious-delivery",
				ConstraintDesc:   "a message is only delivered after it was said (any SAP)",
				ScopeKind:        core.ScopeRemote,
				Trigger:          PrimSay,
				Enabled:          PrimDeliver,
				Key:              core.KeyParam(ParamMsgID),
				AllowPendingMany: true,
				NonConsuming:     true,
			},
			&TotalOrder{},
			&core.EventuallyFollows{
				ConstraintName: "say-eventually-self-delivered",
				ConstraintDesc: "every speaker eventually hears its own utterance",
				ScopeKind:      core.ScopeLocal,
				Trigger:        PrimSay,
				Response:       PrimDeliver,
				Key:            core.KeySAPAndParam(ParamMsgID),
			},
		},
	}
}

// TotalOrder is the case study's application-defined constraint: the
// msgid sequences delivered at any two SAPs must be prefix-compatible
// (one shared total order), and at the end of the window every SAP must
// have seen the full sequence.
type TotalOrder struct{}

var _ core.Constraint = (*TotalOrder)(nil)

// Name implements core.Constraint.
func (*TotalOrder) Name() string { return "total-order-delivery" }

// Scope implements core.Constraint.
func (*TotalOrder) Scope() core.Scope { return core.ScopeRemote }

// Description implements core.Constraint.
func (*TotalOrder) Description() string {
	return "all participants observe deliveries in one shared total order"
}

// NewMonitor implements core.Constraint.
func (*TotalOrder) NewMonitor() core.Monitor {
	return &orderMonitor{perSAP: make(map[core.SAP][]string)}
}

type orderMonitor struct {
	global []string
	perSAP map[core.SAP][]string
}

func (m *orderMonitor) Observe(e core.Event) error {
	if e.Primitive != PrimDeliver {
		return nil
	}
	id, _ := e.Params[ParamMsgID].(string)
	seq := append(m.perSAP[e.SAP], id)
	m.perSAP[e.SAP] = seq
	i := len(seq) - 1
	if i == len(m.global) {
		m.global = append(m.global, id)
	}
	if i >= len(m.global) || m.global[i] != id {
		ev := e
		return &core.ViolationError{
			Constraint: "total-order-delivery",
			Event:      &ev,
			Detail:     fmt.Sprintf("position %d saw %q, global order has %q", i, id, m.global[i]),
		}
	}
	return nil
}

// AtEnd reports the smallest short SAP (by its rendered name), so the
// report is the same on every run whatever Go's map iteration order.
func (m *orderMonitor) AtEnd() error {
	var short core.SAP
	found := false
	for sap, seq := range m.perSAP {
		if len(seq) != len(m.global) && (!found || sap.String() < short.String()) {
			short, found = sap, true
		}
	}
	if !found {
		return nil
	}
	return &core.ViolationError{
		Constraint: "total-order-delivery",
		Detail:     fmt.Sprintf("%s delivered %d of %d messages", short, len(m.perSAP[short]), len(m.global)),
	}
}
