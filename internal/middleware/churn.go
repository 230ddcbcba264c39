package middleware

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/codec"
)

// ErrUnavailable reports that the hosting node of an invocation target is
// down (crashed and not yet restarted). RPCs against a down node fail
// fast with this error instead of burning the full call timeout; pending
// calls whose callee crashes mid-flight are failed the moment the crash
// is observed (NodeDown). Callers distinguish it from ErrCallTimeout to
// drive retry/rebind policy.
var ErrUnavailable = errors.New("middleware: node unavailable")

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
	p.mu.Lock()
	id, ok := p.nodes[node]
	if !ok {
		p.mu.Unlock()
		return
	}
	p.downNodes[id] = true
	var ids []uint64
	for cid, pc := range p.pending {
		if pc.node == id || pc.caller == id {
			ids = append(ids, cid)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	conts := make([]func(codec.MsgView, error), 0, len(ids))
	for _, cid := range ids {
		pc := p.pending[cid]
		pc.timer.Cancel() // zero ref is an inert no-op
		delete(p.pending, cid)
		conts = append(conts, pc.cont)
		p.putCallLocked(pc)
	}
	p.stats.Unavailables += uint64(len(conts))
	p.mu.Unlock()
	for _, cont := range conts {
		cont(codec.MsgView{}, fmt.Errorf("%w: %s crashed", ErrUnavailable, node))
	}
}

// AttachNode eagerly attaches the platform runtime at node. Normally
// attachment is lazy — the first Register or Invoke touching a node
// brings its receiver up — but a fault plan must reference only nodes
// the network already knows, so churn drivers pre-attach every fault
// subject before scheduling crashes (a pure-client node like a polling
// subscriber would otherwise not exist until its first call fires).
// Idempotent.
func (p *Platform) AttachNode(node Addr) error {
	_, err := p.ensureRuntime(node)
	return err
}

// NodeUp clears the down mark set by NodeDown. Churn drivers call it
// from their restart hooks; objects hosted at the node become invokable
// again (the restarted incarnation keeps its registrations — state
// recovery is the application's concern, not the platform's).
func (p *Platform) NodeUp(node Addr) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if id, ok := p.nodes[node]; ok {
		p.downNodes[id] = false
	}
}

// Down reports whether the node is currently marked down.
func (p *Platform) Down(node Addr) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	id, ok := p.nodes[node]
	return ok && p.downNodes[id]
}

// Rebind migrates an object reference to a new hosting node — the live-
// rebinding half of the churn story: a failover policy re-homes a
// crashed component's reference and subsequent Invokes route to the new
// node. Calls already in flight to the old home are unaffected (they
// fail via NodeDown or time out). The object implementation itself is
// replaced too, because the new home generally hosts a fresh instance.
func (p *Platform) Rebind(ref ObjRef, node Addr, obj Object) error {
	if obj == nil {
		return fmt.Errorf("middleware: nil object for %q", ref)
	}
	nodeID, err := p.ensureRuntime(node)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.objects[ref]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownObject, ref)
	}
	p.objects[ref] = registration{nodeID: nodeID, obj: obj}
	return nil
}

// SetProfile swaps the platform's profile mid-run — the lever the MDA
// engine pulls when a deployment is re-realized onto a different
// concrete platform. Interactions already in flight complete under the
// old profile's timers; new interactions are gated and priced by the new
// one.
func (p *Platform) SetProfile(profile Profile) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.profile = profile
}
