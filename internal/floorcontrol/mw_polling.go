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
func (s *MWPolling) ControllerNode() middleware.Addr { return s.ctrl.node() }

// Failover implements ControllerFailover: re-home the controller export
// onto node. The holder table moves with the component, so grants held
// before the crash stay valid.
func (s *MWPolling) Failover(node middleware.Addr) error { return s.ctrl.failover(node) }

// availReply is the typed answer to an availability probe: the reply of
// the is_available operation and, with Res set, the is_available_resp
// PDU of the polling protocol, which names the probed resource.
type availReply struct {
	Res       string
	Available bool
}

// Wire layouts of the probe answer, without and with the resource.
var (
	recAvail    = codec.CompileRecord("available")
	recAvailRes = codec.CompileRecord("available", ParamResource)
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

func decAvailReply(v codec.MsgView) (availReply, error) {
	res, _ := v.Str(ParamResource)
	avail, _ := v.Bool("available")
	return availReply{Res: string(res), Available: avail}, nil
}

// Build implements Solution.
func (s *MWPolling) Build(env *Env) (map[string]AppPart, error) {
	b, err := bindService(env, s.Name())
	if err != nil {
		return nil, err
	}
	ctrl := &pollingController{q: newResourceQueue(env.Resources), home: ctrlNode,
		seen: make(seenSeqs), holderSeq: make(map[string]uint64, len(env.Resources))}
	if err := ctrl.export(b); err != nil {
		return nil, fmt.Errorf("floorcontrol: register controller: %w", err)
	}
	s.ctrl = ctrl
	// One shared port per controller operation: Call carries the polling
	// subscriber's node, so the parts need no private ports.
	isAvailable, err := svc.NewPort(b, "controller", "is_available", encCtrlArgs, decAvailReply)
	if err != nil {
		return nil, err
	}
	free, err := svc.NewPort[ctrlArgs, ack](b, "controller", "free", encCtrlArgs, nil)
	if err != nil {
		return nil, err
	}
	parts := make(map[string]AppPart, len(env.Subscribers))
	for _, sub := range env.Subscribers {
		parts[sub] = &mwPollingPart{env: env, sub: sub, isAvailable: isAvailable, free: free}
	}
	return parts, nil
}

// pollingController answers availability probes with test-and-set
// semantics. It keeps no wait queues: waiting is the pollers' problem,
// which is precisely the structural weakness the paper highlights.
type pollingController struct {
	exp *svc.Export

	q    *resourceQueue
	home middleware.Addr
	seen seenSeqs
	// holderSeq remembers the Seq of the probe that acquired each
	// resource. A redelivered probe of that same acquire (its true reply
	// was lost to a crash) is answered true again; a probe of a *new*
	// acquire that finds the subscriber still registered as holder — its
	// previous free is still in redelivery limbo — reads unavailable,
	// exactly as if another subscriber held it.
	holderSeq map[string]uint64
}

// export hosts the controller's typed operations at ctrlNode.
func (c *pollingController) export(b *svc.Binding) error {
	e, err := b.NewExport("controller", ctrlNode)
	if err != nil {
		return err
	}
	if err := svc.HandleOp(e, "is_available", decCtrlArgs, encAvailReply, c.isAvailable); err != nil {
		return err
	}
	if err := svc.HandleOp(e, "free", decCtrlArgs, encAck, c.free); err != nil {
		return err
	}
	c.exp = e
	return e.Register()
}

// node returns the controller's current hosting node.
func (c *pollingController) node() middleware.Addr {
	return c.home
}

// failover re-homes the controller export onto node.
func (c *pollingController) failover(node middleware.Addr) error {
	if err := c.exp.Rebind(node); err != nil {
		return err
	}
	c.home = node
	return nil
}

func (c *pollingController) isAvailable(a ctrlArgs, respond func(availReply, error)) {
	if !c.q.known(a.Res) {
		respond(availReply{}, fmt.Errorf("unknown resource %q", a.Res))
		return
	}
	if a.Seq != 0 && c.q.holder[a.Res] == a.Sub && c.holderSeq[a.Res] == a.Seq {
		// Redelivered probe of the test-and-set that already acquired.
		respond(availReply{Available: true}, nil)
		return
	}
	got := c.q.tryAcquire(a.Sub, a.Res)
	if got {
		c.holderSeq[a.Res] = a.Seq
	}
	respond(availReply{Available: got}, nil)
}

func (c *pollingController) free(a ctrlArgs, respond func(ack, error)) {
	if c.seen.dup(a.Sub, a.Seq) {
		// Redelivered free: already released.
		respond(ack{}, nil)
		return
	}
	_, _, err := c.q.release(a.Sub, a.Res)
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
	isAvailable *svc.Port[ctrlArgs, availReply]
	free        *svc.Port[ctrlArgs, ack]

	seq   uint64             // submission counter (churn only)
	loops freeList[pollLoop] // recycled acquire loops
}

var _ AppPart = (*mwPollingPart)(nil)

// Acquire implements AppPart: poll until is_available returns true.
func (p *mwPollingPart) Acquire(res string, done func()) {
	p.env.observe(p.sub, PrimRequest, res)
	var seq uint64
	if p.env.Churn {
		p.seq++
		seq = p.seq
	}
	p.poll(res, done, seq)
}

// poll drives one logical acquire; every probe of the loop carries the
// acquire's Seq. Under churn a transient probe failure — controller down,
// or the probe interrupted by a crash — re-polls instead of panicking:
// the test-and-set is idempotent per acquire because the controller keys
// the holder by Seq, so a lost true reply is recovered by the next probe.
func (p *mwPollingPart) poll(res string, done func(), seq uint64) {
	l := p.loops.pop()
	if l == nil {
		l = &pollLoop{p: p}
		l.cont, l.repoll = l.reply, l.probe
	}
	l.res, l.done, l.seq = res, done, seq
	l.probe()
}

// pollLoop is one logical acquire's polling loop: the acquire's resource,
// completion and Seq, and the probe continuation and re-poll function,
// bound once per record (mwPollingPart.loops recycles them), so a probe
// allocates nothing in steady state.
type pollLoop struct {
	p      *mwPollingPart
	res    string
	done   func()
	seq    uint64
	cont   func(availReply, error) // = l.reply
	repoll func()                  // = l.probe
}

func (l *pollLoop) probe() {
	p := l.p
	if err := p.isAvailable.Call(middleware.Addr(p.sub), ctrlArgs{Sub: p.sub, Res: l.res, Seq: l.seq}, l.cont); err != nil {
		panic(fmt.Sprintf("floorcontrol: is_available invoke from %q: %v", p.sub, err))
	}
}

// reply handles one probe's outcome. A grant recycles the loop before
// done runs, so an Acquire from inside done may reuse it.
func (l *pollLoop) reply(result availReply, err error) {
	p := l.p
	if err != nil {
		if p.env.Churn && retryable(err) {
			p.env.Time.ScheduleFunc(p.env.PollInterval, l.repoll)
			return
		}
		panic(fmt.Sprintf("floorcontrol: is_available from %q: %v", p.sub, err))
	}
	if result.Available {
		res, done := l.res, l.done
		l.done = nil
		p.loops.push(l)
		p.env.observe(p.sub, PrimGranted, res)
		done()
		return
	}
	p.env.Time.ScheduleFunc(p.env.PollInterval, l.repoll)
}

// Release implements AppPart.
func (p *mwPollingPart) Release(res string) {
	p.env.observe(p.sub, PrimFree, res)
	args := ctrlArgs{Sub: p.sub, Res: res}
	if p.env.Churn {
		p.seq++
		args.Seq = p.seq
	}
	sendCtrl(p.env, p.free, middleware.Addr(p.sub), args, "free")
}
