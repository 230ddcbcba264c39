package floorcontrol

import (
	"fmt"
	"sync"

	"repro/internal/middleware"
	"repro/internal/svc"
)

// MWCallback is the callback-based middleware solution of Figure 4(a):
// "the controller is a singleton component that has an interface with a
// request_permission operation. ... Eventually, when the resource is to be
// granted to the subscriber, a grant operation of the subscriber's
// interface is invoked by the controller. When the subscriber wants to
// release the resource, a free operation of the controller's interface is
// invoked."
//
// Interaction functionality resident in application parts (Figure 7): the
// subscriber part must expose a grant callback interface and invoke
// request_permission/free; the controller is itself an application part
// centralizing the coordination. All of it programs against typed svc
// ports — the raw platform surface never appears in the solution.
type MWCallback struct {
	ctrl *callbackController // set by Build
}

var _ Solution = (*MWCallback)(nil)
var _ ControllerFailover = (*MWCallback)(nil)

// Name implements Solution.
func (*MWCallback) Name() string { return "mw-callback" }

// Paradigm implements Solution.
func (*MWCallback) Paradigm() Paradigm { return ParadigmMiddleware }

// Style implements Solution.
func (*MWCallback) Style() Style { return StyleCallback }

// Figure implements Solution.
func (*MWCallback) Figure() string { return "Fig 4(a)" }

// Scattering implements Solution: per subscriber part, 3 interaction
// operations (request_permission invocation, grant callback
// implementation, free invocation); the controller part implements 3
// (request_permission, free, grant invocation logic).
func (*MWCallback) Scattering(n int) Scattering {
	return Scattering{AppPartOps: 3 * n, ControllerOps: 3}
}

// ControllerNode implements ControllerFailover.
func (s *MWCallback) ControllerNode() middleware.Addr { return s.ctrl.node() }

// Failover implements ControllerFailover: re-home the controller export
// onto node. The queue state lives in the component, not the node, so it
// survives the move — the paper's centralized coordinator made mobile by
// the platform's live rebinding.
func (s *MWCallback) Failover(node middleware.Addr) error { return s.ctrl.failover(node) }

// Build implements Solution.
func (s *MWCallback) Build(env *Env) (map[string]AppPart, error) {
	b, err := bindService(env, s.Name())
	if err != nil {
		return nil, err
	}
	ctrl := &callbackController{env: env, q: newResourceQueue(env.Resources),
		grants: make(map[string]*svc.Port[grantArgs, ack], len(env.Subscribers)),
		home:   ctrlNode, seen: make(seenSeqs), reqSeq: make(map[string]uint64)}
	if err := ctrl.export(b); err != nil {
		return nil, fmt.Errorf("floorcontrol: register controller: %w", err)
	}
	s.ctrl = ctrl
	// The controller-facing ports carry the caller's node per call, so one
	// shared port per operation serves every subscriber part; only the
	// grant callback ports differ per subscriber (distinct targets).
	request, err := svc.NewPort[ctrlArgs, ack](b, "controller", "request_permission", encCtrlArgs, nil)
	if err != nil {
		return nil, err
	}
	free, err := svc.NewPort[ctrlArgs, ack](b, "controller", "free", encCtrlArgs, nil)
	if err != nil {
		return nil, err
	}
	parts := make(map[string]AppPart, len(env.Subscribers))
	for _, sub := range env.Subscribers {
		part := &mwCallbackPart{env: env, sub: sub, pending: make(map[string]pendingGrant),
			request: request, free: free}
		if err := part.export(b); err != nil {
			return nil, fmt.Errorf("floorcontrol: register subscriber %q: %w", sub, err)
		}
		if ctrl.grants[sub], err = svc.NewPort[grantArgs, ack](b, subObjRef(sub), "grant", encGrantArgs, nil); err != nil {
			return nil, err
		}
		parts[sub] = part
	}
	return parts, nil
}

// callbackController is the singleton controller component, exported as
// typed request_permission/free operations; it grants through one typed
// callback port per subscriber.
type callbackController struct {
	env    *Env
	exp    *svc.Export
	grants map[string]*svc.Port[grantArgs, ack]

	mu   sync.Mutex
	q    *resourceQueue
	home middleware.Addr // current hosting node (moves on failover)
	seen seenSeqs
	// reqSeq remembers the Seq of each subscriber's outstanding request,
	// so a grant issued later (when a waiter is promoted on free) echoes
	// the request it answers.
	reqSeq map[string]uint64
}

// export hosts the controller's typed operations at ctrlNode.
func (c *callbackController) export(b *svc.Binding) error {
	e, err := b.NewExport("controller", ctrlNode)
	if err != nil {
		return err
	}
	if err := svc.HandleOp(e, "request_permission", decCtrlArgs, encAck, c.requestPermission); err != nil {
		return err
	}
	if err := svc.HandleOp(e, "free", decCtrlArgs, encAck, c.free); err != nil {
		return err
	}
	c.exp = e
	return e.Register()
}

// node returns the controller's current hosting node.
func (c *callbackController) node() middleware.Addr {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.home
}

// failover re-homes the controller export onto node and routes future
// grants from there.
func (c *callbackController) failover(node middleware.Addr) error {
	if err := c.exp.Rebind(node); err != nil {
		return err
	}
	c.mu.Lock()
	c.home = node
	c.mu.Unlock()
	return nil
}

func (c *callbackController) requestPermission(a ctrlArgs, respond func(ack, error)) {
	c.mu.Lock()
	if !c.q.known(a.Res) {
		c.mu.Unlock()
		respond(ack{}, fmt.Errorf("unknown resource %q", a.Res))
		return
	}
	if c.seen.dup(a.Sub, a.Seq) {
		// At-least-once redelivery: the intention is already registered
		// (the first ack was lost to a crash) and a grant is delivered
		// or in retry. Ack again without touching the queue.
		c.mu.Unlock()
		respond(ack{}, nil)
		return
	}
	c.reqSeq[a.Sub] = a.Seq
	granted := c.q.tryAcquire(a.Sub, a.Res)
	if !granted {
		c.q.enqueue(a.Sub, a.Res)
	}
	c.mu.Unlock()
	respond(ack{}, nil) // intention registered
	if granted {
		c.grant(a.Sub, a.Res, a.Seq)
	}
}

func (c *callbackController) free(a ctrlArgs, respond func(ack, error)) {
	c.mu.Lock()
	if c.seen.dup(a.Sub, a.Seq) {
		// Redelivered free: already released (and possibly re-granted).
		c.mu.Unlock()
		respond(ack{}, nil)
		return
	}
	next, ok, err := c.q.release(a.Sub, a.Res)
	var nextSeq uint64
	if ok {
		nextSeq = c.reqSeq[next]
	}
	c.mu.Unlock()
	if err != nil {
		respond(ack{}, err)
		return
	}
	respond(ack{}, nil)
	if ok {
		c.grant(next, a.Res, nextSeq)
	}
}

// grant invokes the grant operation of the subscriber's callback
// interface through the typed port; seq echoes the request being
// answered. Fault-free, a submission failure is a deployment bug and
// panics. Under churn the grant is the only copy of the decision, so a
// transient call failure — the subscriber crashed with the grant
// pending, the controller's own node down (a crashed node cannot
// transmit, so the platform fails its invokes fast), or a call timeout
// (only on a profile that sets a CallTimeout; no built-in one does) —
// re-arms it after a poll interval. Redelivery is safe because the
// subscriber dedups grants by Seq when the first copy did land.
func (c *callbackController) grant(sub, res string, seq uint64) {
	c.mu.Lock()
	home := c.home
	c.mu.Unlock()
	var cont func(ack, error)
	if c.env.Churn {
		cont = func(_ ack, err error) {
			switch {
			case err == nil:
			case retryable(err):
				c.env.Time.ScheduleFunc(c.env.PollInterval, func() { c.grant(sub, res, seq) })
			default:
				panic(fmt.Sprintf("floorcontrol: grant to %q: %v", sub, err))
			}
		}
	}
	if err := c.grants[sub].Call(home, grantArgs{Res: res, Seq: seq}, cont); err != nil {
		panic(fmt.Sprintf("floorcontrol: grant to %q: %v", sub, err))
	}
}

// pendingGrant is one outstanding acquire at a subscriber part: the
// completion to run and the Seq of the request it belongs to (zero
// fault-free), so duplicate grants from churn retries can be discarded.
type pendingGrant struct {
	done func()
	seq  uint64
}

// mwCallbackPart is one subscriber's application part. The grant callback
// interface it must expose, and the ports it must invoke, are the
// interaction functionality the paradigm scatters into it.
type mwCallbackPart struct {
	env     *Env
	sub     string
	request *svc.Port[ctrlArgs, ack]
	free    *svc.Port[ctrlArgs, ack]

	mu      sync.Mutex
	pending map[string]pendingGrant // resource → outstanding acquire
	seq     uint64                  // submission counter (churn only)
}

var _ AppPart = (*mwCallbackPart)(nil)

// export hosts the part's grant callback interface.
func (p *mwCallbackPart) export(b *svc.Binding) error {
	e, err := b.NewExport(subObjRef(p.sub), middleware.Addr(p.sub))
	if err != nil {
		return err
	}
	if err := svc.HandleOp(e, "grant", decGrantArgs, encAck, p.onGrant); err != nil {
		return err
	}
	return e.Register()
}

func (p *mwCallbackPart) onGrant(a grantArgs, respond func(ack, error)) {
	p.mu.Lock()
	pend, ok := p.pending[a.Res]
	match := ok && pend.seq == a.Seq
	if match {
		delete(p.pending, a.Res)
	}
	p.mu.Unlock()
	respond(ack{}, nil)
	if p.env.Churn && !match {
		// Duplicate grant: a churn retry whose first copy landed before
		// this part crashed (the ack was lost). The grant was already
		// observed and acted on — possibly even freed — so this copy
		// must not touch the trace or wake the driver.
		return
	}
	p.env.observe(p.sub, PrimGranted, a.Res)
	if pend.done != nil {
		pend.done()
	}
}

// Acquire implements AppPart.
func (p *mwCallbackPart) Acquire(res string, done func()) {
	p.env.observe(p.sub, PrimRequest, res)
	args := ctrlArgs{Sub: p.sub, Res: res}
	p.mu.Lock()
	if p.env.Churn {
		p.seq++
		args.Seq = p.seq
	}
	p.pending[res] = pendingGrant{done: done, seq: args.Seq}
	p.mu.Unlock()
	sendCtrl(p.env, p.request, middleware.Addr(p.sub), args, "request_permission")
}

// Release implements AppPart.
func (p *mwCallbackPart) Release(res string) {
	p.env.observe(p.sub, PrimFree, res)
	args := ctrlArgs{Sub: p.sub, Res: res}
	if p.env.Churn {
		p.mu.Lock()
		p.seq++
		args.Seq = p.seq
		p.mu.Unlock()
	}
	sendCtrl(p.env, p.free, middleware.Addr(p.sub), args, "free")
}
