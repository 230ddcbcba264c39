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
	"slices"

	"repro/examples/specs"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/sdl"
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

// specDoc is the ordered-chat service definition, parsed once from its
// source, examples/specs/chat.svc.
var specDoc = sdl.MustParse(specs.OrderedChat)

// Spec returns the ordered-chat service definition: every utterance is
// eventually delivered to every participant, deliveries never precede
// their utterance, and all participants observe one shared total order.
// The total order is this package's TotalOrder constraint, which has no
// SDL clause. Every call compiles a fresh spec.
func Spec() *core.ServiceSpec {
	spec, _ := specDoc.Compile() //nolint:errcheck // MustParse compiled it once already
	spec.Constraints = slices.Insert(spec.Constraints, 1, core.Constraint(&TotalOrder{}))
	return spec
}

// runSpec is the service definition every run observes and the PIM
// carries into every deployment. Nothing in a run writes to a
// ServiceSpec, so runs share this one compile read-only.
var runSpec = Spec()

// saySchema is the layout of the say primitive's parameter record.
var saySchema = func() *codec.Schema {
	p, _ := runSpec.Primitive(PrimSay)
	return p.Schema()
}()

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
	var sl codec.Slots
	_ = recOrdered.ParseRecord(e.Params, &sl) //nolint:errcheck // a malformed record reads as an empty id
	b, _ := sl.StrAt(slotMsgID)
	id := string(b)
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
