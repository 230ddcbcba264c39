package network

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/sim"
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
// kernel, relative to the current virtual time. All referenced nodes
// must already be registered; an unknown node fails the whole call
// before anything is scheduled.
//
// A plan event that is invalid when it fires (crashing a crashed node,
// restarting a live one) panics: schedules from fault.Schedule alternate
// correctly by construction, so this only trips on a scheduling bug, and
// a deterministic panic beats a silently diverging run.
func (n *Network) ScheduleFaultPlan(p *FaultPlan) error {
	if p == nil || len(p.Events) == 0 {
		return nil
	}
	entries := make([]sim.BatchEntry, 0, len(p.Events))
	for _, ev := range p.Events {
		id := NodeID(ev.Node)
		if _, ok := n.SlotOf(id); !ok {
			return fmt.Errorf("%w: fault plan references %q", ErrUnknownNode, ev.Node)
		}
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
			peer := NodeID(ev.Peer)
			fn = func() { n.Partition(id, peer) }
		case fault.Heal:
			peer := NodeID(ev.Peer)
			fn = func() { n.Heal(id, peer) }
		default:
			return fmt.Errorf("network: fault plan: unknown event kind %v", ev.Kind)
		}
		entries = append(entries, sim.BatchEntry{Delay: ev.At, Fn: fn})
	}
	n.kern.ScheduleBatch(entries)
	return nil
}
