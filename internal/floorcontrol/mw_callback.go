package floorcontrol

import (
	"fmt"

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
func (s *MWCallback) ControllerNode() middleware.Addr { return s.ctrl.exp.Node() }

// Failover implements ControllerFailover: re-home the controller export
// onto node. The queue state lives in the component, not the node, so it
// survives the move — the paper's centralized coordinator made mobile by
// the platform's live rebinding.
func (s *MWCallback) Failover(node middleware.Addr) error { return s.ctrl.exp.Rebind(node) }

// Build implements Solution.
func (s *MWCallback) Build(env *Env) (map[string]AppPart, error) {
	b, err := bindService(env, s.Name())
	if err != nil {
		return nil, err
	}
	ctrl := &callbackController{env: env, q: newResourceQueue(env.names()),
		grants: make([]*svc.Port[grantArgs, ack], len(env.Subscribers)),
		reqSeq: make([]uint64, len(env.Subscribers))}
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
	for i, sub := range env.Subscribers {
		part := &mwCallbackPart{env: env, sub: sub, request: request, free: free}
		if err := part.export(b); err != nil {
			return nil, fmt.Errorf("floorcontrol: register subscriber %q: %w", sub, err)
		}
		if ctrl.grants[i], err = svc.NewPort[grantArgs, ack](b, subObjRef(sub), "grant", encGrantArgs, nil); err != nil {
			return nil, err
		}
		parts[sub] = part
	}
	return parts, nil
}

// callbackController is the singleton controller component, exported as
// typed request_permission/free operations; it grants through one typed
// callback port per subscriber. Its state is indexed by the run's
// subscriber and resource indices.
type callbackController struct {
	env    *Env
	exp    *svc.Export // hosts the controller; moves on failover
	grants []*svc.Port[grantArgs, ack]

	q *resourceQueue
	// reqSeq remembers the Seq of each subscriber's outstanding request,
	// so a grant issued later (when a waiter is promoted on free) echoes
	// the request it answers.
	reqSeq []uint64
}

// export hosts the controller's typed operations at ctrlNode.
func (c *callbackController) export(b *svc.Binding) error {
	e, err := b.NewExport("controller", ctrlNode)
	if err != nil {
		return err
	}
	if err := svc.HandleOp(e, "request_permission", c.q.d.decCtrlArgs, encAck, c.requestPermission); err != nil {
		return err
	}
	if err := svc.HandleOp(e, "free", c.q.d.decCtrlArgs, encAck, c.free); err != nil {
		return err
	}
	c.exp = e
	return e.Register()
}

//repolint:hotpath
func (c *callbackController) requestPermission(a ctrlArgs, respond func(ack, error)) {
	if err := a.unknown(); err != nil {
		respond(ack{}, err)
		return
	}
	if c.q.dup(a.sub, a.Seq) {
		// At-least-once redelivery: the intention is already registered
		// (the first ack was lost to a crash) and a grant is delivered
		// or in retry. Ack again without touching the queue.
		respond(ack{}, nil)
		return
	}
	c.reqSeq[a.sub] = a.Seq
	granted := c.q.tryAcquire(a.sub, a.res)
	if !granted {
		c.q.enqueue(a.sub, a.res)
	}
	respond(ack{}, nil) // intention registered
	if granted {
		c.grant(a.sub, a.Res, a.Seq)
	}
}

//repolint:hotpath
func (c *callbackController) free(a ctrlArgs, respond func(ack, error)) {
	if err := a.unknown(); err != nil {
		respond(ack{}, err)
		return
	}
	if c.q.dup(a.sub, a.Seq) {
		// Redelivered free: already released (and possibly re-granted).
		respond(ack{}, nil)
		return
	}
	next, ok, err := c.q.release(a.sub, a.res)
	if err != nil {
		respond(ack{}, err)
		return
	}
	respond(ack{}, nil)
	if ok {
		c.grant(next, a.Res, c.reqSeq[next])
	}
}

// grant invokes the grant operation of the subscriber's callback
// interface through the typed port; seq echoes the request being
// answered. The grant is the only copy of the decision, so under churn
// a transient failure — the subscriber crashed with the grant pending,
// or the controller's own node down (a crashed node cannot transmit, so
// the platform fails its invokes fast) — re-arms it after a poll
// interval (Env.again). Every attempt leaves from the controller
// export's current node, so a retry after a failover leaves from the
// standby. Redelivery is safe because the subscriber dedups grants by
// Seq when the first copy did land.
//
//repolint:hotpath
func (c *callbackController) grant(sub int32, res string, seq uint64) {
	c.grants[sub].CallRetry(c.exp, grantArgs{Res: res, Seq: seq}, 0, c.env.PollInterval, c.env.acked())
}

// mwCallbackPart is one subscriber's application part. The grant callback
// interface it must expose, and the ports it must invoke, are the
// interaction functionality the paradigm scatters into it.
type mwCallbackPart struct {
	env     *Env
	sub     string
	node    int32 // the subscriber node's platform id, resolved by export
	request *svc.Port[ctrlArgs, ack]
	free    *svc.Port[ctrlArgs, ack]

	pending waiters // outstanding acquires
	seq     uint64  // submission counter (churn only)
}

var _ AppPart = (*mwCallbackPart)(nil)

// NodeID implements svc.Caller: the part calls from its subscriber's
// node.
func (p *mwCallbackPart) NodeID() int32 { return p.node }

// export hosts the part's grant callback interface and resolves the
// part's node id.
func (p *mwCallbackPart) export(b *svc.Binding) error {
	e, err := b.NewExport(subObjRef(p.sub), middleware.Addr(p.sub))
	if err != nil {
		return err
	}
	if err := svc.HandleOp(e, "grant", p.env.names().decGrantArgs, encAck, p.onGrant); err != nil {
		return err
	}
	if err := e.Register(); err != nil {
		return err
	}
	p.node = e.NodeID()
	return nil
}

//repolint:hotpath
func (p *mwCallbackPart) onGrant(a grantArgs, respond func(ack, error)) {
	var pend waiter
	match := false
	if i := p.pending.find(a.Res); i >= 0 {
		pend = p.pending[i]
		if match = pend.seq == a.Seq; match {
			p.pending.remove(i)
		}
	}
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
//
//repolint:hotpath
func (p *mwCallbackPart) Acquire(res string, done func()) {
	p.env.observe(p.sub, PrimRequest, res)
	args := ctrlArgs{Sub: p.sub, Res: res}
	if p.env.Churn {
		p.seq++
		args.Seq = p.seq
	}
	p.pending.put(waiter{res: res, done: done, seq: args.Seq})
	p.request.CallRetry(p, args, 0, p.env.PollInterval, p.env.acked())
}

// Release implements AppPart.
//
//repolint:hotpath
func (p *mwCallbackPart) Release(res string) {
	p.env.observe(p.sub, PrimFree, res)
	args := ctrlArgs{Sub: p.sub, Res: res}
	if p.env.Churn {
		p.seq++
		args.Seq = p.seq
	}
	p.free.CallRetry(p, args, 0, p.env.PollInterval, p.env.acked())
}
