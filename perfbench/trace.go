package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/fanout"
	"repro/internal/floorcontrol"
	"repro/internal/middleware"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/runner"
	"repro/internal/sim"
)

// spanAgg aggregates every closed span of one name: high-frequency calls
// (per-PDU sends, upcalls) are summed here instead of stored per call.
type spanAgg struct {
	count int64
	total time.Duration
	// self is total minus the time covered by child spans.
	self time.Duration
}

type openSpan struct {
	name  string
	start time.Duration
	child time.Duration
}

// tracer records spans around calls into the layers. Spans nest on a
// stack because every traced call is synchronous on the single sweep
// worker; a span's self time is its duration minus its children's.
type tracer struct {
	epoch time.Time
	now   func() time.Duration
	open  []openSpan
	spans map[string]*spanAgg
	// counts are per-layer counters read from public Stats/Result after
	// each scenario, summed over the pass.
	counts map[string]float64
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), spans: map[string]*spanAgg{}, counts: map[string]float64{}}
	t.now = func() time.Duration { return time.Since(t.epoch) }
	return t
}

func (t *tracer) begin(name string) {
	t.open = append(t.open, openSpan{name: name, start: t.now()})
}

func (t *tracer) end() {
	s := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	d := t.now() - s.start
	t.add(s.name, d, d-s.child)
	if n := len(t.open); n > 0 {
		t.open[n-1].child += d
	}
}

// add records a closed interval that is not on the span stack (scenario
// phases measured between two points).
func (t *tracer) add(name string, total, self time.Duration) {
	a := t.spans[name]
	if a == nil {
		a = &spanAgg{}
		t.spans[name] = a
	}
	a.count++
	a.total += total
	a.self += self
}

func (t *tracer) span(name string) spanAgg {
	if a := t.spans[name]; a != nil {
		return *a
	}
	return spanAgg{}
}

// tracedScenarios returns the traced twins of a workload's scenarios:
// same IDs, params and derived seeds, but floor-control scenarios run
// through a decorating Solution and the fan-out scenario is re-driven
// call by call, so spans sit at every layer boundary.
func tracedScenarios(w workload, t *tracer) ([]runner.Scenario, error) {
	plain := w.band()
	out := make([]runner.Scenario, len(plain))
	for i, sc := range plain {
		if w.fan != nil {
			cfg := *w.fan
			out[i] = runner.Scenario{ID: sc.ID, Params: sc.Params, Run: func(seed int64) (runner.Outcome, error) {
				cfg := cfg
				cfg.Seed = seed
				res, err := tracedFanout(cfg, t)
				if err != nil {
					return runner.Outcome{}, err
				}
				return runner.Outcome{Text: res.SummaryLine(), Metrics: res.Summary()}, nil
			}}
			continue
		}
		cfg, err := configFromID(sc.ID)
		if err != nil {
			return nil, err
		}
		out[i] = runner.Scenario{ID: sc.ID, Params: sc.Params, Run: func(seed int64) (runner.Outcome, error) {
			cfg := cfg
			cfg.Seed = seed
			res, err := tracedWorkload(cfg, t)
			if err != nil {
				return runner.Outcome{}, err
			}
			return runner.Outcome{Text: res.SummaryLine(), Metrics: res.Summary()}, nil
		}}
	}
	return replicate(out, w.replicas), nil
}

// tracedWorkload runs one floor-control scenario under the decorating
// Solution, splits its wall time into phases, and adds its layer
// counters to the tracer.
func tracedWorkload(cfg floorcontrol.Config, t *tracer) (*floorcontrol.Result, error) {
	sol, ok := floorcontrol.SolutionByName(cfg.Solution)
	if !ok {
		return nil, fmt.Errorf("unknown solution %q", cfg.Solution)
	}
	ts := &tracedSolution{Solution: sol, t: t}
	var run floorcontrol.Solution = ts
	if fo, ok := sol.(floorcontrol.ControllerFailover); ok {
		run = tracedFailover{tracedSolution: ts, ControllerFailover: fo}
	}
	start := t.now()
	res, err := floorcontrol.RunWorkloadWith(run, cfg)
	end := t.now()
	if err != nil {
		return nil, err
	}
	lastRelease := ts.lastRelease
	if lastRelease == 0 {
		lastRelease = end
	}
	t.add("floorcontrol.setup", ts.buildStart-start, ts.buildStart-start)
	t.add("floorcontrol.build", ts.buildEnd-ts.buildStart, ts.buildEnd-ts.buildStart)
	t.add("floorcontrol.run", lastRelease-ts.buildEnd, lastRelease-ts.buildEnd)
	t.add("floorcontrol.finish", end-lastRelease, end-lastRelease)

	env := ts.env
	t.counts["sim.events"] += float64(res.KernelEvents)
	addNet(t, env.Net.Stats())
	if env.Platform != nil {
		addMiddleware(t, env.Platform.Stats())
	}
	if ts.rdp != nil {
		st := ts.rdp.Stats()
		t.counts["protocol.data_sent"] += float64(st.DataSent)
		t.counts["protocol.retransmits"] += float64(st.Retransmits)
		t.counts["protocol.flow_resets"] += float64(st.FlowResets)
	}
	t.counts["core.observed_events"] += float64(env.Observer.EventCount())
	t.counts["core.violations"] += float64(len(env.Observer.Violations()))
	if res.Churn {
		t.counts["fault.crashes"] += float64(res.Crashes)
		t.counts["fault.offered"] += float64(res.Offered)
		t.counts["fault.served"] += float64(res.Served)
	}
	return res, nil
}

func addNet(t *tracer, st network.Stats) {
	t.counts["network.sent"] += float64(st.Sent)
	t.counts["network.dropped"] += float64(st.Dropped)
	t.counts["network.bytes"] += float64(st.BytesSent)
}

func addMiddleware(t *tracer, st middleware.Stats) {
	t.counts["middleware.calls"] += float64(st.Calls)
	t.counts["middleware.wire_msgs"] += float64(st.WireMessages)
	t.counts["middleware.unavailables"] += float64(st.Unavailables)
}

// tracedSolution decorates a Solution for one run. It forwards every
// method; Build additionally times the build, wraps the protocol lower
// service and every application part, and keeps the Env so the layer
// counters can be read after the run. It schedules no kernel event and
// draws no randomness, so the run is unchanged.
type tracedSolution struct {
	floorcontrol.Solution
	t *tracer

	env                  *floorcontrol.Env
	rdp                  *protocol.ReliableDatagram
	buildStart, buildEnd time.Duration
	lastRelease          time.Duration
}

// tracedFailover adds the optional ControllerFailover extension for the
// solutions that implement it, so failover scenarios behave the same.
type tracedFailover struct {
	*tracedSolution
	floorcontrol.ControllerFailover
}

func (s *tracedSolution) Build(env *floorcontrol.Env) (map[string]floorcontrol.AppPart, error) {
	s.buildStart = s.t.now()
	s.env = env
	if env.Lower != nil {
		s.rdp, _ = env.Lower.(*protocol.ReliableDatagram)
		env.Lower = wrapLower(env.Lower, s.t)
	}
	parts, err := s.Solution.Build(env)
	if err == nil {
		for sub, p := range parts {
			parts[sub] = &tracedPart{AppPart: p, s: s}
		}
	}
	s.buildEnd = s.t.now()
	return parts, err
}

// tracedPart spans each call the workload driver makes into a
// subscriber's application part.
type tracedPart struct {
	floorcontrol.AppPart
	s *tracedSolution
}

func (p *tracedPart) Acquire(res string, done func()) {
	p.s.t.begin("floorcontrol.acquire")
	p.AppPart.Acquire(res, done)
	p.s.t.end()
}

func (p *tracedPart) Release(res string) {
	p.s.t.begin("floorcontrol.release")
	p.AppPart.Release(res)
	p.s.t.end()
	p.s.lastRelease = p.s.t.now()
}

// tracedLower decorates a protocol lower service: sends into it and
// upcalls out of it are spanned. wrapLower exposes exactly the optional
// extensions the wrapped service implements, so callers that type-assert
// take the same paths as without the decorator.
type tracedLower struct {
	inner protocol.LowerService
	t     *tracer
}

func wrapLower(inner protocol.LowerService, t *tracer) protocol.LowerService {
	l := &tracedLower{inner: inner, t: t}
	_, idx := inner.(protocol.IndexedLower)
	_, multi := inner.(protocol.MultiSender)
	_, inc := inner.(protocol.IncarnationProvider)
	switch {
	case idx && multi && inc:
		return struct {
			protocol.IndexedLower
			protocol.MultiSender
			protocol.IncarnationProvider
		}{l, l, l}
	case idx && multi:
		return struct {
			protocol.IndexedLower
			protocol.MultiSender
		}{l, l}
	case idx && inc:
		return struct {
			protocol.IndexedLower
			protocol.IncarnationProvider
		}{l, l}
	case idx:
		return struct{ protocol.IndexedLower }{l}
	case multi && inc:
		return struct {
			protocol.LowerService
			protocol.MultiSender
			protocol.IncarnationProvider
		}{l, l, l}
	case multi:
		return struct {
			protocol.LowerService
			protocol.MultiSender
		}{l, l}
	case inc:
		return struct {
			protocol.LowerService
			protocol.IncarnationProvider
		}{l, l}
	}
	return struct{ protocol.LowerService }{l}
}

func (l *tracedLower) Name() string { return l.inner.Name() }

func (l *tracedLower) Attach(addr protocol.Addr, r protocol.Receiver) error {
	if r == nil {
		return l.inner.Attach(addr, nil)
	}
	return l.inner.Attach(addr, func(src protocol.Addr, pdu []byte) {
		l.t.begin("protocol.deliver")
		r(src, pdu)
		l.t.end()
	})
}

func (l *tracedLower) Send(src, dst protocol.Addr, pdu []byte) error {
	l.t.begin("protocol.send")
	err := l.inner.Send(src, dst, pdu)
	l.t.end()
	return err
}

func (l *tracedLower) AttachIndexed(addr protocol.Addr, r protocol.IndexedReceiver) (int32, error) {
	il := l.inner.(protocol.IndexedLower)
	if r == nil {
		return il.AttachIndexed(addr, nil)
	}
	return il.AttachIndexed(addr, func(src int32, pdu []byte) {
		l.t.begin("protocol.deliver")
		r(src, pdu)
		l.t.end()
	})
}

func (l *tracedLower) EndpointID(addr protocol.Addr) (int32, bool) {
	return l.inner.(protocol.IndexedLower).EndpointID(addr)
}

func (l *tracedLower) EndpointAddr(id int32) protocol.Addr {
	return l.inner.(protocol.IndexedLower).EndpointAddr(id)
}

func (l *tracedLower) SendIndexed(src, dst int32, pdu []byte) error {
	l.t.begin("protocol.send")
	err := l.inner.(protocol.IndexedLower).SendIndexed(src, dst, pdu)
	l.t.end()
	return err
}

func (l *tracedLower) SendMultiIndexed(src int32, dsts []int32, pdu []byte) error {
	l.t.begin("protocol.send")
	err := l.inner.(protocol.IndexedLower).SendMultiIndexed(src, dsts, pdu)
	l.t.end()
	return err
}

func (l *tracedLower) SendMulti(src protocol.Addr, dsts []protocol.Addr, pdu []byte) error {
	l.t.begin("protocol.send")
	err := l.inner.(protocol.MultiSender).SendMulti(src, dsts, pdu)
	l.t.end()
	return err
}

func (l *tracedLower) IncarnationOf(id int32) uint32 {
	return l.inner.(protocol.IncarnationProvider).IncarnationOf(id)
}

// tracedFanout is fanout.Run's sequence of public calls, re-driven here
// with spans around subscription, publishing and the engine run. Its
// Result must equal fanout.Run's for the same Config; the traced pass's
// report digest checks that on every run.
func tracedFanout(cfg fanout.Config, t *tracer) (*fanout.Result, error) {
	// fanout.Config's defaults for the fields the workload leaves unset.
	if cfg.Latency <= 0 {
		cfg.Latency = time.Millisecond
	}
	if cfg.Interval <= 3*cfg.Latency {
		cfg.Interval = 4 * cfg.Latency
	}
	if cfg.Nodes > cfg.Subscribers {
		cfg.Nodes = cfg.Subscribers
	}

	engine := sim.NewKernel(sim.WithSeed(cfg.Seed))
	net := network.New(engine, network.WithDefaultLink(network.LinkConfig{Latency: cfg.Latency}))
	transport := protocol.NewUnreliableDatagram(net)
	profile := middleware.Profile{Name: "fanout", Patterns: []middleware.Pattern{middleware.PatternPubSub}}
	var opts []middleware.Option
	leaves := make([]middleware.Addr, cfg.Leaves)
	for i := range leaves {
		leaves[i] = middleware.Addr(fmt.Sprintf("leaf%d", i))
	}
	if len(leaves) > 0 {
		opts = append(opts, middleware.WithFederation(leaves...))
	}
	p := middleware.New(engine, transport, profile, "root", opts...)
	for _, leaf := range leaves {
		if _, err := p.AttachRuntime(leaf); err != nil {
			return nil, fmt.Errorf("fanout: attach %s: %w", leaf, err)
		}
	}
	if _, err := p.AttachRuntime("root"); err != nil {
		return nil, fmt.Errorf("fanout: attach root: %w", err)
	}
	pub := middleware.Addr("pub")
	if _, err := p.AttachRuntime(pub); err != nil {
		return nil, fmt.Errorf("fanout: attach pub: %w", err)
	}

	res := &fanout.Result{Expected: uint64(cfg.Subscribers) * uint64(cfg.Events)}
	var curPub time.Duration
	sink := func(codec.MsgView) {
		res.Delivered++
		res.Latency.Add(engine.Now() - curPub)
	}
	const topic = "feed"
	for s := 0; s < cfg.Subscribers; s++ {
		node := middleware.Addr(fmt.Sprintf("h%d", s%cfg.Nodes))
		t.begin("middleware.subscribe")
		err := p.SubscribeTopicView(topic, node, sink)
		t.end()
		if err != nil {
			return nil, fmt.Errorf("fanout: subscribe %s: %w", node, err)
		}
	}

	pad := make([]byte, cfg.PayloadBytes)
	var pubErr error
	for e := 0; e < cfg.Events; e++ {
		seq := uint64(e)
		engine.ScheduleFunc(time.Duration(e+1)*cfg.Interval, func() {
			curPub = engine.Now()
			ev := codec.NewMessage("ev", codec.Record{"seq": seq, "pad": pad})
			t.begin("middleware.publish")
			err := p.Publish(pub, topic, ev)
			t.end()
			if err != nil && pubErr == nil {
				pubErr = err
			}
		})
	}

	t.begin("middleware.run")
	_, err := engine.Run()
	t.end()
	if err != nil && !errors.Is(err, sim.ErrStopped) {
		return nil, fmt.Errorf("fanout: run: %w", err)
	}
	if pubErr != nil {
		return nil, fmt.Errorf("fanout: publish: %w", pubErr)
	}

	res.VirtualDuration = engine.Now()
	res.KernelEvents = engine.Executed()
	mst := p.Stats()
	res.WireMessages = mst.WireMessages
	res.WireBytes = mst.WireBytes
	nst := net.Stats()
	res.NetMessages = nst.Sent
	res.NetBytes = nst.BytesSent
	res.BytesPerClient = float64(res.NetBytes) / float64(cfg.Subscribers)

	t.counts["sim.events"] += float64(res.KernelEvents)
	addNet(t, nst)
	addMiddleware(t, mst)
	return res, nil
}
