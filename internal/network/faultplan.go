package network

import (
	"fmt"

	"repro/internal/fault"
)

// FaultPlan binds a pre-drawn fault schedule (internal/fault) to a live
// network: ScheduleFaultPlan turns every event into a kernel event that
// mutates network state at its virtual time. The hooks let higher layers
// react in the same instant — tear down reliable flows, fail pending
// RPCs, rebind services — after the network-level state change has been
// applied.
type FaultPlan struct {
	Events []fault.Event
	// OnCrash runs immediately after the node is crashed, at the event's
	// virtual time.
	OnCrash func(id NodeID)
	// OnRestart runs immediately after the node is restarted (its
	// incarnation already bumped), at the event's virtual time.
	OnRestart func(id NodeID)
}

// ScheduleFaultPlan schedules every event of the plan on the network's
// kernel, relative to the current virtual time. Every referenced node
// (an event's Node, and the Peer of a Partition or Heal) must already be
// registered; an unknown node fails the whole call before anything is
// scheduled.
//
// A plan event that is invalid when it fires (crashing a crashed node,
// restarting a live one) panics: schedules from fault.Schedule alternate
// correctly by construction, so this only trips on a scheduling bug, and
// a deterministic panic beats a silently diverging run.
func (n *Network) ScheduleFaultPlan(p *FaultPlan) error {
	if p == nil {
		return nil
	}
	for _, ev := range p.Events {
		refs := []string{ev.Node}
		switch ev.Kind {
		case fault.Crash, fault.Restart:
		case fault.Partition, fault.Heal:
			refs = append(refs, ev.Peer)
		default:
			return fmt.Errorf("network: fault plan: unknown event kind %v", ev.Kind)
		}
		for _, ref := range refs {
			if _, ok := n.slots[NodeID(ref)]; !ok {
				return fmt.Errorf("%w: fault plan references %q", ErrUnknownNode, ref)
			}
		}
	}
	for _, ev := range p.Events {
		id, peer := NodeID(ev.Node), NodeID(ev.Peer)
		var fn func()
		switch ev.Kind {
		case fault.Crash:
			fn = func() {
				if err := n.Crash(id); err != nil {
					panic(fmt.Sprintf("network: fault plan: %v", err))
				}
				if p.OnCrash != nil {
					p.OnCrash(id)
				}
			}
		case fault.Restart:
			fn = func() {
				if err := n.Restart(id); err != nil {
					panic(fmt.Sprintf("network: fault plan: %v", err))
				}
				if p.OnRestart != nil {
					p.OnRestart(id)
				}
			}
		case fault.Partition:
			fn = func() { n.Partition(id, peer) }
		case fault.Heal:
			fn = func() { n.Heal(id, peer) }
		}
		n.kern.ScheduleFunc(ev.At, fn)
	}
	return nil
}
