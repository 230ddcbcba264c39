package floorcontrol

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/middleware"
	"repro/internal/svc"
)

// MWPolling is the polling-based middleware solution of Figure 4(b): "the
// subscribers poll the controller for a certain resource by invoking the
// operation is_available, which returns the Boolean value true when the
// resource is available, and false otherwise. When the subscriber wants to
// release the resource, the operation free of the controller's interface
// is invoked."
//
// is_available is implemented test-and-set: a true reply simultaneously
// assigns the resource to the caller, otherwise two pollers could both
// read "available" and violate mutual exclusion.
//
// This is the solution §5 criticizes most directly: "the subscriber
// application parts must continuously poll for a resource, in contrast
// with the protocol solution (b), where ... the service is responsible for
// 'polling'." The polling loop lives *inside the application part* here,
// driving a typed is_available port.
type MWPolling struct {
	ctrl *pollingController // set by Build
}

var _ Solution = (*MWPolling)(nil)
var _ ControllerFailover = (*MWPolling)(nil)

// Name implements Solution.
func (*MWPolling) Name() string { return "mw-polling" }

// Paradigm implements Solution.
func (*MWPolling) Paradigm() Paradigm { return ParadigmMiddleware }

// Style implements Solution.
func (*MWPolling) Style() Style { return StylePolling }

// Figure implements Solution.
func (*MWPolling) Figure() string { return "Fig 4(b)" }

// Scattering implements Solution: per subscriber part, 4 interaction
// operations (polling loop, is_available invocation, reply inspection,
// free invocation); the controller implements 2 (is_available, free).
func (*MWPolling) Scattering(n int) Scattering {
	return Scattering{AppPartOps: 4 * n, ControllerOps: 2}
}

// ControllerNode implements ControllerFailover.
func (s *MWPolling) ControllerNode() middleware.Addr { return s.ctrl.exp.Node() }

// Failover implements ControllerFailover: re-home the controller export
// onto node. The holder table moves with the component, so grants held
// before the crash stay valid.
func (s *MWPolling) Failover(node middleware.Addr) error { return s.ctrl.exp.Rebind(node) }

// availReply is the typed answer to an availability probe: the reply of
// the is_available operation and, with Res set, the is_available_resp
// PDU of the polling protocol, which names the probed resource.
type availReply struct {
	Res       string
	Available bool
}

// Wire layouts of the probe answer, without and with the resource; the
// decoder reads both through the recAvailRes superset by slot.
var (
	recAvail    = codec.CompileRecord("available")
	recAvailRes = codec.CompileRecord("available", ParamResource)

	slotAvail    = recAvailRes.Slot("available")
	slotAvailRes = recAvailRes.Slot(ParamResource)
)

func encAvailReply(buf []byte, a availReply) ([]byte, error) {
	if a.Res == "" {
		e := recAvail.Encoder(buf)
		e.Bool("available", a.Available)
		return e.Finish()
	}
	e := recAvailRes.Encoder(buf)
	e.Bool("available", a.Available)
	e.Str(ParamResource, a.Res)
	return e.Finish()
}

// decAvailReply decodes a probe answer, resolving its resid (when it
// carries one) through the run's tables.
func (d *deployment) decAvailReply(v codec.MsgView) (availReply, error) {
	var sl codec.Slots
	recAvailRes.Resolve(&v, &sl)
	res, _ := sl.StrAt(slotAvailRes)
	avail, _ := sl.BoolAt(slotAvail)
	r := availReply{Available: avail}
	if len(res) > 0 {
		_, r.Res = d.resource(res)
	}
	return r, nil
}

// Build implements Solution.
func (s *MWPolling) Build(env *Env) (map[string]AppPart, error) {
	b, err := bindService(env, s.Name())
	if err != nil {
		return nil, err
	}
	ctrl := &pollingController{q: newResourceQueue(env.names()),
		holderSeq: make([]uint64, len(env.Resources))}
	if err := ctrl.export(b); err != nil {
		return nil, fmt.Errorf("floorcontrol: register controller: %w", err)
	}
	s.ctrl = ctrl
	// One shared port per controller operation: Call carries the polling
	// subscriber's node, so the parts need no private ports.
	isAvailable, err := svc.NewPort(b, "controller", "is_available", encCtrlArgs, env.names().decAvailReply)
	if err != nil {
		return nil, err
	}
	free, err := svc.NewPort[ctrlArgs, ack](b, "controller", "free", encCtrlArgs, nil)
	if err != nil {
		return nil, err
	}
	parts := make(map[string]AppPart, len(env.Subscribers))
	for _, sub := range env.Subscribers {
		part := &mwPollingPart{env: env, sub: sub, isAvailable: isAvailable, free: free}
		if part.node, err = env.Platform.AttachRuntime(middleware.Addr(sub)); err != nil {
			return nil, err
		}
		part.onProbe = part.probed
		parts[sub] = part
	}
	return parts, nil
}

// pollingController answers availability probes with test-and-set
// semantics. It keeps no wait queues: waiting is the pollers' problem,
// which is precisely the structural weakness the paper highlights.
type pollingController struct {
	exp *svc.Export // hosts the controller; moves on failover

	q *resourceQueue
	// holderSeq remembers the Seq of the probe that acquired each
	// resource. A redelivered probe of that same acquire (its true reply
	// was lost to a crash) is answered true again; a probe of a *new*
	// acquire that finds the subscriber still registered as holder — its
	// previous free is still in redelivery limbo — reads unavailable,
	// exactly as if another subscriber held it. Indexed by resource.
	holderSeq []uint64
}

// export hosts the controller's typed operations at ctrlNode.
func (c *pollingController) export(b *svc.Binding) error {
	e, err := b.NewExport("controller", ctrlNode)
	if err != nil {
		return err
	}
	if err := svc.HandleOp(e, "is_available", c.q.d.decCtrlArgs, encAvailReply, c.isAvailable); err != nil {
		return err
	}
	if err := svc.HandleOp(e, "free", c.q.d.decCtrlArgs, encAck, c.free); err != nil {
		return err
	}
	c.exp = e
	return e.Register()
}

func (c *pollingController) isAvailable(a ctrlArgs, respond func(availReply, error)) {
	if err := a.unknown(); err != nil {
		respond(availReply{}, err)
		return
	}
	if a.Seq != 0 && c.q.holder[a.res] == a.sub && c.holderSeq[a.res] == a.Seq {
		// Redelivered probe of the test-and-set that already acquired.
		respond(availReply{Available: true}, nil)
		return
	}
	got := c.q.tryAcquire(a.sub, a.res)
	if got {
		c.holderSeq[a.res] = a.Seq
	}
	respond(availReply{Available: got}, nil)
}

func (c *pollingController) free(a ctrlArgs, respond func(ack, error)) {
	if err := a.unknown(); err != nil {
		respond(ack{}, err)
		return
	}
	if c.q.dup(a.sub, a.Seq) {
		// Redelivered free: already released.
		respond(ack{}, nil)
		return
	}
	_, _, err := c.q.release(a.sub, a.res)
	if err != nil {
		respond(ack{}, err)
		return
	}
	respond(ack{}, nil)
}

// mwPollingPart is one subscriber's application part, with the polling
// loop inside it.
type mwPollingPart struct {
	env         *Env
	sub         string
	node        int32 // the subscriber node's platform id, attached by Build
	isAvailable *svc.Port[ctrlArgs, availReply]
	free        *svc.Port[ctrlArgs, ack]

	seq      uint64 // submission counter (churn only)
	wantRes  string // the outstanding acquire's resource
	wantDone func()
	onProbe  func(availReply, error) bool // = p.probed, built once
}

var _ AppPart = (*mwPollingPart)(nil)

// NodeID implements svc.Caller: the part polls from its subscriber's
// node.
func (p *mwPollingPart) NodeID() int32 { return p.node }

// Acquire implements AppPart: poll until is_available returns true. The
// loop is one at-least-once call whose every probe carries the acquire's
// Seq, so the controller's test-and-set, keyed by Seq, stays idempotent
// per acquire and a lost true reply is recovered by the next probe.
func (p *mwPollingPart) Acquire(res string, done func()) {
	p.env.observe(p.sub, PrimRequest, res)
	args := ctrlArgs{Sub: p.sub, Res: res}
	if p.env.Churn {
		p.seq++
		args.Seq = p.seq
	}
	p.wantRes, p.wantDone = res, done
	p.isAvailable.CallRetry(p, args, 0, p.env.PollInterval, p.onProbe)
}

// probed is the polling loop's policy: a probe that reads unavailable
// polls again after a poll interval, as a transient failure does under
// churn (Env.again); a true reply completes the acquire.
func (p *mwPollingPart) probed(r availReply, err error) bool {
	if err != nil {
		return p.env.again(err)
	}
	if !r.Available {
		return true
	}
	res, done := p.wantRes, p.wantDone
	p.wantDone = nil
	p.env.observe(p.sub, PrimGranted, res)
	done()
	return false
}

// Release implements AppPart.
func (p *mwPollingPart) Release(res string) {
	p.env.observe(p.sub, PrimFree, res)
	args := ctrlArgs{Sub: p.sub, Res: res}
	if p.env.Churn {
		p.seq++
		args.Seq = p.seq
	}
	p.free.CallRetry(p, args, 0, p.env.PollInterval, p.env.acked())
}
