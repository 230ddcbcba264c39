// Package floorcontrol implements the paper's running example (§4): "the
// floor-control problem", in which "several application parts share a set
// of named resources [that] can only be used by a single application part
// at a time".
//
// The package contains:
//
//   - the floor-control *service definition* (Figure 5): primitives
//     request/granted/free with the paper's two local constraints and one
//     remote constraint, plus a generated behaviour LTS;
//   - the three middleware-centred solutions of Figure 4 — (a)
//     callback-based, (b) polling-based, (c) token-based — built on the
//     internal/middleware component platform;
//   - the three protocol-centred solutions of Figure 6 — the same three
//     coordination styles as explicit protocols over a reliable-datagram
//     lower service, exposed to user parts through the floor-control
//     service boundary (core.Provider);
//   - a workload driver that executes any solution under an identical
//     acquire/hold/release load, verifying service conformance online and
//     measuring the wire and latency footprint (the quantitative form of
//     the paper's §5 comparison).
package floorcontrol

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/lts"
)

// RoleSubscriber is the single role of the floor-control service.
const RoleSubscriber = "subscriber"

// Primitive names of the floor-control service (Figure 5).
const (
	PrimRequest = "request"
	PrimGranted = "granted"
	PrimFree    = "free"
)

// ParamResource is the resource-identification parameter carried by every
// primitive.
const ParamResource = "resid"

// Spec returns the floor-control service definition of Figure 5:
//
//	request (ResourceId resid);   from-user
//	granted (ResourceId resid);   to-user
//	free    (ResourceId resid);   from-user
//	occur @ SAP subscriber_id
//
// with the paper's constraints: granted eventually follows request
// (local), free follows granted (local), and a resource is only granted to
// one subscriber at a time (remote).
func Spec() *core.ServiceSpec {
	return &core.ServiceSpec{
		Name:        "floor-control",
		Description: "coordinated, exclusive, non-preemptive access to named shared resources",
		Roles:       []core.RoleDef{{Name: RoleSubscriber, Min: 2}},
		Primitives: []core.PrimitiveDef{
			{Name: PrimRequest, Direction: core.FromUser, Params: []core.ParamDef{{Name: ParamResource, Kind: core.KindString}}},
			{Name: PrimGranted, Direction: core.ToUser, Params: []core.ParamDef{{Name: ParamResource, Kind: core.KindString}}},
			{Name: PrimFree, Direction: core.FromUser, Params: []core.ParamDef{{Name: ParamResource, Kind: core.KindString}}},
		},
		Constraints: []core.Constraint{
			&core.Precedes{
				ConstraintName: "granted-follows-request",
				ConstraintDesc: "the execution of granted follows the execution of request (for a given resource identification)",
				ScopeKind:      core.ScopeLocal,
				Trigger:        PrimRequest,
				Enabled:        PrimGranted,
				Key:            core.KeySAPAndParam(ParamResource),
			},
			&core.Precedes{
				ConstraintName: "free-follows-granted",
				ConstraintDesc: "the execution of free follows the execution of granted (for a given resource identification)",
				ScopeKind:      core.ScopeLocal,
				Trigger:        PrimGranted,
				Enabled:        PrimFree,
				Key:            core.KeySAPAndParam(ParamResource),
			},
			&core.MutualExclusion{
				ConstraintName: "exclusive-grant",
				ConstraintDesc: "a resource is only granted to one subscriber at a time",
				Acquire:        PrimGranted,
				Release:        PrimFree,
				Key:            core.KeyParam(ParamResource),
			},
			&core.EventuallyFollows{
				ConstraintName: "request-eventually-granted",
				ConstraintDesc: "the execution of granted eventually follows the execution of request (liveness; subscribers are cooperative)",
				ScopeKind:      core.ScopeLocal,
				Trigger:        PrimRequest,
				Response:       PrimGranted,
				Key:            core.KeySAPAndParam(ParamResource),
			},
			&core.Absence{
				ConstraintName: "no-request-while-held",
				ConstraintDesc: "a subscriber does not re-request a resource it currently holds (cooperative use, §4)",
				ScopeKind:      core.ScopeLocal,
				Open:           PrimGranted,
				Close:          PrimFree,
				Forbidden:      PrimRequest,
				Key:            core.KeySAPAndParam(ParamResource),
			},
		},
	}
}

// SubscriberSAP names the SAP of one subscriber.
func SubscriberSAP(id string) core.SAP { return core.SAP{Role: RoleSubscriber, ID: id} }

// eventLabel renders an event label in the same form core.Event.Label
// produces, for LTS construction.
func eventLabel(prim, sub, res string) string {
	return fmt.Sprintf("%s@%s:%s(%s=%s)", prim, RoleSubscriber, sub, ParamResource, res)
}

// ServiceLTS generates the behaviour LTS of the floor-control service for
// a concrete deployment (subscriber ids × resource ids): the state space
// of all constraint-respecting interleavings. Recorded execution traces
// are checked against it by trace refinement — the formal assessment the
// paper asks for ("this can be assessed formally", §2).
//
// The state space is exponential in subscribers × resources; keep the
// deployment small (it is a specification artifact, not a runtime one).
func ServiceLTS(subscribers, resources []string) *lts.LTS {
	b := lts.NewBuilder("floor-control-service")

	// A subscriber's state per resource: 0 idle, 1 requested, 2 held.
	type cfg struct {
		state string // concatenated digits, index = sub*len(resources)+res
	}
	idle := make([]byte, len(subscribers)*len(resources))
	for i := range idle {
		idle[i] = '0'
	}
	start := cfg{string(idle)}
	name := func(c cfg) string { return c.state }

	created := map[cfg]lts.State{start: b.State(name(start))}
	b.Final(created[start])
	work := []cfg{start}
	heldBy := func(c cfg, res int) int {
		for s := range subscribers {
			if c.state[s*len(resources)+res] == '2' {
				return s
			}
		}
		return -1
	}
	for len(work) > 0 {
		c := work[0]
		work = work[1:]
		from := created[c]
		step := func(label string, next cfg) {
			to, ok := created[next]
			if !ok {
				to = b.State(name(next))
				created[next] = to
				// Final whenever nothing is requested or held.
				allIdle := true
				for i := 0; i < len(next.state); i++ {
					if next.state[i] != '0' {
						allIdle = false
						break
					}
				}
				if allIdle {
					b.Final(to)
				}
				work = append(work, next)
			}
			b.Transition(from, label, to)
		}
		for s, sub := range subscribers {
			for r, res := range resources {
				i := s*len(resources) + r
				switch c.state[i] {
				case '0': // idle: may request
					next := []byte(c.state)
					next[i] = '1'
					step(eventLabel(PrimRequest, sub, res), cfg{string(next)})
				case '1': // requested: may be granted if nobody holds res
					if heldBy(c, r) == -1 {
						next := []byte(c.state)
						next[i] = '2'
						step(eventLabel(PrimGranted, sub, res), cfg{string(next)})
					}
				case '2': // held: may free
					next := []byte(c.state)
					next[i] = '0'
					step(eventLabel(PrimFree, sub, res), cfg{string(next)})
				}
			}
		}
	}
	return b.MustBuild()
}

// Scattering quantifies the paper's Figure 7: where does the interaction
// functionality of a solution live? Counts are *structural* — they count
// the coordination-specific operations (component operations, polling
// loops, token handling, PDU handlers) each solution implements, split by
// residence.
type Scattering struct {
	// AppPartOps counts interaction operations resident in each
	// subscriber's application part.
	AppPartOps int
	// ControllerOps counts interaction operations in a controller that is
	// itself an application part (middleware solutions only: "an
	// application part plays the role of a controller", §4.1).
	ControllerOps int
	// InteractionSystemOps counts operations inside the dedicated
	// interaction system (protocol entities behind the service boundary).
	InteractionSystemOps int
}

// Index returns the fraction of interaction functionality resident in
// application parts: 1.0 = fully scattered (middleware solutions),
// 0.0 = fully concentrated in the interaction system (protocol solutions).
func (s Scattering) Index() float64 {
	total := s.AppPartOps + s.ControllerOps + s.InteractionSystemOps
	if total == 0 {
		return 0
	}
	return float64(s.AppPartOps+s.ControllerOps) / float64(total)
}
