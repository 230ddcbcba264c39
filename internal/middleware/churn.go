package middleware

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/codec"
)

// ErrUnavailable reports that the hosting node of an invocation target is
// down (crashed and not yet restarted). RPCs against a down node fail
// fast with this error instead of burning the full call timeout; pending
// calls whose callee crashes mid-flight are failed the moment the crash
// is observed (NodeDown). Callers distinguish it from ErrCallTimeout to
// drive retry/rebind policy; svc.ErrUnavailable is this same value.
//
// A failed call receives one of its node's two wrapping errors,
// "<node> is down" (invoked while down) or "<node> crashed" (pending when
// it went down). Each node's pair is built once, the first time the node
// goes down, and shared by every call that fails on it, so failing a call
// allocates nothing.
var ErrUnavailable = errors.New("middleware: node unavailable")

// unavailErrs is one node's pair of ErrUnavailable errors.
type unavailErrs struct {
	down    error // "<node> is down": failFast
	crashed error // "<node> crashed": NodeDown
}

// NodeDown marks a platform node as crashed. Every pending RPC whose
// callee OR caller is hosted there fails immediately with ErrUnavailable:
// the restarted incarnation has no server-side call state (the reply can
// never arrive), and no client-side call state either (a reply to a
// crashed caller could never be consumed). Continuations fire in call-id
// order (oldest first) so the failure cascade is deterministic. Unknown
// or never-attached nodes are a no-op.
//
// NodeDown is middleware-side bookkeeping only: it does not touch the
// network. Churn drivers call it from their crash hooks, alongside the
// transport-level teardown (protocol.ReliableDatagram.NoteRestart).
func (p *Platform) NodeDown(node Addr) {
	id, ok := p.nodeID(node)
	if !ok {
		return
	}
	p.downNodes[id] = true
	for int(id) >= len(p.unavail) {
		p.unavail = append(p.unavail, unavailErrs{})
	}
	if p.unavail[id].down == nil {
		p.unavail[id] = unavailErrs{
			down:    fmt.Errorf("%w: %s is down", ErrUnavailable, node),
			crashed: fmt.Errorf("%w: %s crashed", ErrUnavailable, node),
		}
	}
	crashed := p.unavail[id].crashed
	var ids []uint64
	for cid, pc := range p.pending {
		if pc.node == id || pc.caller == id {
			ids = append(ids, cid)
		}
	}
	slices.Sort(ids)
	conts := make([]func(codec.MsgView, error), 0, len(ids))
	for _, cid := range ids {
		pc := p.pending[cid]
		pc.timer.Cancel() // zero ref is an inert no-op
		delete(p.pending, cid)
		conts = append(conts, pc.cont)
		p.putCall(pc)
	}
	p.stats.Unavailables += uint64(len(conts))
	for _, cont := range conts {
		cont(codec.MsgView{}, crashed)
	}
}

// NodeUp clears the down mark set by NodeDown. Churn drivers call it
// from their restart hooks; objects hosted at the node become invokable
// again (the restarted incarnation keeps its registrations — state
// recovery is the application's concern, not the platform's).
func (p *Platform) NodeUp(node Addr) {
	if id, ok := p.nodeID(node); ok {
		p.downNodes[id] = false
	}
}

// Down reports whether the node is currently marked down.
func (p *Platform) Down(node Addr) bool {
	id, ok := p.nodeID(node)
	return ok && p.downNodes[id]
}

// Rebind migrates an object reference to a new hosting node — the live-
// rebinding half of the churn story: a failover policy re-homes a
// crashed component's reference and subsequent Invokes route to the new
// node. The registration is updated in place, so callers holding it
// (Lookup) re-route too. Calls already in flight to the old home are
// unaffected (they fail via NodeDown or time out). The object
// implementation itself is replaced too, because the new home generally
// hosts a fresh instance.
func (p *Platform) Rebind(ref ObjRef, node Addr, obj Object) error {
	if obj == nil {
		return fmt.Errorf("middleware: nil object for %q", ref)
	}
	nodeID, err := p.ensureRuntime(node)
	if err != nil {
		return err
	}
	reg, ok := p.objects[ref]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownObject, ref)
	}
	old := p.hosted[reg.nodeID]
	i := slices.Index(old, reg)
	p.hosted[reg.nodeID] = slices.Delete(old, i, i+1)
	p.hosted[nodeID] = append(p.hosted[nodeID], reg)
	reg.nodeID, reg.obj = nodeID, obj
	return nil
}

// SetProfile swaps the platform's profile mid-run — the lever the MDA
// engine pulls when a deployment is re-realized onto a different
// concrete platform. Interactions already in flight complete under the
// old profile's timers; new interactions are gated and priced by the new
// one.
func (p *Platform) SetProfile(profile Profile) {
	p.profile = profile
}
