package floorcontrol

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/middleware"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// Config parameterizes one workload execution. Zero fields take the
// defaults below, so Config{Solution: "mw-callback"} is runnable.
type Config struct {
	// Solution names the implementation to exercise (see Solutions).
	Solution string
	// Subscribers and Resources size the deployment.
	Subscribers int
	Resources   int
	// Cycles is the number of acquire/hold/release rounds per subscriber.
	Cycles int
	// ThinkTime is the mean idle time between cycles; HoldTime the mean
	// time a granted resource is held. Both are jittered uniformly in
	// [0.5×, 1.5×].
	ThinkTime time.Duration
	HoldTime  time.Duration
	// PollInterval drives polling-style solutions; TokenHopDelay is the
	// per-hop forwarding delay of token-style solutions.
	PollInterval  time.Duration
	TokenHopDelay time.Duration
	// Latency and LossRate configure every network link.
	Latency  time.Duration
	LossRate float64
	// Seed fixes the simulation; equal seeds give identical runs.
	Seed int64
	// Deadline aborts a stuck run (virtual time). Liveness violations are
	// then reported by the conformance observer.
	Deadline time.Duration
	// Profile selects the middleware platform profile for middleware
	// solutions; defaults to ProfileCORBALike (the paper's "component
	// middleware that supports remote invocation").
	Profile middleware.Profile
	// CrashRate enables churn: each fault subject (every subscriber node,
	// plus the controller node of solutions that support failover) crashes
	// at this rate per second of virtual time, alternating with repairs of
	// mean duration MTTR. Zero disables the fault plan entirely. Churn
	// parameters are workload identity, so they appear in scenario IDs
	// and fold into derived seeds.
	CrashRate float64
	// MTTR is the mean time to repair a crashed node. Defaults to 100ms
	// when churn is enabled.
	MTTR time.Duration
	// RebindPolicy selects what happens when a failover-capable solution's
	// controller node crashes: RebindNone (default) waits out the repair,
	// RebindFailover live-rebinds the controller onto a standby node at
	// the crash instant.
	RebindPolicy string
	// AcquireTimeout bounds one acquire attempt under churn: a grant that
	// takes longer is charged as an availability loss (the cycle still
	// waits for the grant, returns the resource, and moves on, so the
	// coordination protocol never sees a cancelled acquire). Defaults to
	// 1s when churn is enabled.
	AcquireTimeout time.Duration
	// RawTransport, when true, runs the solution's substrate directly over
	// the unreliable datagram service instead of the reliable-datagram
	// layer. It is the Figure 8 experiment: swapping the interaction
	// system *below* the middleware/service boundary. Only sensible on
	// lossless links.
	RawTransport bool
	// Trace, when non-nil, receives every observed service primitive in
	// order (for offline LTS refinement, replay or printing). Nil keeps
	// no trace: the conformance monitors run online either way.
	Trace *core.Trace
}

func (c *Config) applyDefaults() {
	if c.Subscribers <= 0 {
		c.Subscribers = 3
	}
	if c.Resources <= 0 {
		c.Resources = 2
	}
	if c.Cycles <= 0 {
		c.Cycles = 5
	}
	if c.ThinkTime <= 0 {
		c.ThinkTime = 20 * time.Millisecond
	}
	if c.HoldTime <= 0 {
		c.HoldTime = 10 * time.Millisecond
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 10 * time.Millisecond
	}
	if c.TokenHopDelay <= 0 {
		c.TokenHopDelay = 2 * time.Millisecond
	}
	if c.Latency <= 0 {
		c.Latency = time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Deadline <= 0 {
		c.Deadline = 5 * time.Minute
	}
	if c.Profile.Name == "" {
		c.Profile = middleware.ProfileCORBALike
	}
	if c.RebindPolicy == "" {
		c.RebindPolicy = RebindNone
	}
	if c.CrashRate > 0 {
		if c.MTTR <= 0 {
			c.MTTR = 100 * time.Millisecond
		}
		if c.AcquireTimeout <= 0 {
			c.AcquireTimeout = time.Second
		}
	}
}

// SubscriberNames returns the subscriber identifiers for a deployment of
// n: "s1".."sN".
func SubscriberNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("s%d", i+1)
	}
	return out
}

// ResourceNames returns the resource identifiers "r1".."rN".
func ResourceNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("r%d", i+1)
	}
	return out
}

// Result reports one workload execution.
type Result struct {
	Solution string
	Paradigm Paradigm
	Style    Style
	Figure   string

	// Completed counts finished acquire/hold/release cycles; Expected is
	// Subscribers × Cycles.
	Completed int
	Expected  int
	// AcquireLatency measures request→granted per cycle.
	AcquireLatency metrics.Histogram
	// LatencyBySubscriber holds each subscriber's own acquisition
	// histogram; FairnessIndex is Jain's index over the per-subscriber
	// mean latencies (1.0 = perfectly even service).
	LatencyBySubscriber map[string]*metrics.Histogram
	FairnessIndex       float64
	// VirtualDuration is the virtual time consumed until completion (or
	// deadline).
	VirtualDuration time.Duration
	// NetMessages/NetBytes count *everything* on the simulated wire,
	// including transport acks and retransmissions — the level playing
	// field across paradigms.
	NetMessages uint64
	NetBytes    uint64
	// ParadigmMessages counts messages at the paradigm's own level:
	// middleware wire messages, or application-protocol PDUs.
	ParadigmMessages uint64
	// KernelEvents is a platform-neutral proxy for computational work.
	KernelEvents uint64
	// ConformanceErr is the first service-constraint violation, nil for a
	// conforming run.
	ConformanceErr error
	// Scattering is the structural Figure-7 metric for this deployment.
	Scattering Scattering

	// Churn reports whether the run executed under a fault plan; the
	// fields below are only populated then.
	Churn bool
	// Offered counts acquire attempts; Served counts grants that landed
	// within AcquireTimeout. Availability is Served/Offered (1 when
	// nothing was offered).
	Offered      int
	Served       int
	Availability float64
	// Crashes counts fault-plan crash events fired during the run.
	Crashes int
	// SafetyViolations counts conformance violations that are NOT
	// end-of-trace liveness misses: under churn, starvation is expected
	// (it is the availability loss being measured), but a safety
	// violation — a grant without request, two simultaneous holders —
	// means the recovery machinery corrupted the coordination. SafetyOK
	// is the gate the churn band enforces.
	SafetyViolations int
	SafetyOK         bool
}

// faultSeedSalt decorrelates the fault plan's RNG stream from the
// engine's, which is seeded with the same cfg.Seed.
const faultSeedSalt = 0x6661756c74 // "fault"

// scheduleChurn derives the deterministic fault plan for a churn run and
// schedules it on the network. Subjects are every subscriber node plus —
// only for solutions exposing ControllerFailover — the controller node:
// those solutions carry the asymmetric paradigm's single point of
// failure along with recovery machinery to survive losing it, while
// protocol and MDA solutions keep their coordination behind the service
// boundary with no per-solution recovery hook, so only their subscriber
// nodes churn. The plan is drawn from a salted RNG independent of the
// engine's, so adding churn does not perturb the workload's own draws.
func scheduleChurn(cfg Config, sol Solution, env *Env, res *Result,
	transport protocol.LowerService, crashedSub map[string]bool, parked map[string]func()) error {
	rb, rebindable := sol.(ControllerFailover)
	subjects := append([]string(nil), env.Subscribers...)
	var ctrlHome middleware.Addr
	if rebindable {
		ctrlHome = rb.ControllerNode()
		subjects = append(subjects, string(ctrlHome))
	}
	if env.Platform != nil {
		// Pure-client nodes (e.g. polling subscribers, which export no
		// callback object) attach lazily on their first call — after the
		// fault plan is scheduled. The plan may only reference nodes the
		// network knows, so attach every subject now.
		for _, s := range subjects {
			if err := env.Platform.AttachNode(middleware.Addr(s)); err != nil {
				return fmt.Errorf("floorcontrol: attach fault subject %q: %w", s, err)
			}
		}
	}
	spec := fault.Spec{CrashRate: cfg.CrashRate, MTTR: cfg.MTTR, Horizon: cfg.Deadline}
	rng := rand.New(rand.NewSource(cfg.Seed ^ faultSeedSalt))
	events, err := fault.Schedule(spec, subjects, rng)
	if err != nil {
		return fmt.Errorf("floorcontrol: fault schedule: %w", err)
	}
	rdp, _ := transport.(*protocol.ReliableDatagram)
	isSub := make(map[string]bool, len(env.Subscribers))
	for _, s := range env.Subscribers {
		isSub[s] = true
	}
	plan := &network.FaultPlan{
		Events: events,
		OnCrash: func(id network.NodeID) {
			name := string(id)
			res.Crashes++
			if env.Platform != nil {
				env.Platform.NodeDown(middleware.Addr(name))
			}
			if isSub[name] {
				crashedSub[name] = true
			}
			if rebindable && cfg.RebindPolicy == RebindFailover && middleware.Addr(name) == ctrlHome {
				// Live rebinding at the crash instant: the controller
				// component moves to the standby node, which is never a
				// fault subject, so the coordinator stays reachable for
				// the rest of the run.
				if err := rb.Failover(ctrlStandby); err != nil {
					panic(fmt.Sprintf("floorcontrol: failover to %q: %v", ctrlStandby, err))
				}
				ctrlHome = ctrlStandby
			}
		},
		OnRestart: func(id network.NodeID) {
			name := string(id)
			if rdp != nil {
				// Tear down transport flows of the old incarnation: stale
				// retransmit timers and half-open flows must not leak into
				// the restarted node's traffic.
				rdp.NoteRestart(protocol.Addr(name))
			}
			if env.Platform != nil {
				env.Platform.NodeUp(middleware.Addr(name))
			}
			if crashedSub[name] {
				delete(crashedSub, name)
				if k := parked[name]; k != nil {
					delete(parked, name)
					k()
				}
			}
		},
	}
	if err := env.Net.ScheduleFaultPlan(plan); err != nil {
		return fmt.Errorf("floorcontrol: fault plan: %w", err)
	}
	return nil
}

// RunWorkload executes the named solution under the configured workload
// and returns measurements. The run is deterministic in Config.
func RunWorkload(cfg Config) (*Result, error) {
	sol, ok := SolutionByName(cfg.Solution)
	if !ok {
		return nil, fmt.Errorf("floorcontrol: unknown solution %q", cfg.Solution)
	}
	return RunWorkloadWith(sol, cfg)
}

// RunWorkloadWith is RunWorkload for a caller-supplied Solution instance —
// useful when the caller needs to introspect the solution after the run
// (e.g. an MDASolution's deployment).
func RunWorkloadWith(sol Solution, cfg Config) (*Result, error) {
	cfg.applyDefaults()

	engine := sim.NewKernel(sim.WithSeed(cfg.Seed))
	net := network.New(engine, network.WithDefaultLink(network.LinkConfig{
		Latency:  cfg.Latency,
		LossRate: cfg.LossRate,
	}))
	var obsOpts []core.ObserverOption
	if cfg.Trace != nil {
		obsOpts = append(obsOpts, core.WithTrace(cfg.Trace))
	}
	observer, err := core.NewObserver(Spec(), engine, obsOpts...)
	if err != nil {
		return nil, fmt.Errorf("floorcontrol: observer: %w", err)
	}

	churn := cfg.CrashRate > 0
	if churn && cfg.RebindPolicy != RebindNone && cfg.RebindPolicy != RebindFailover {
		return nil, fmt.Errorf("floorcontrol: unknown rebind policy %q", cfg.RebindPolicy)
	}

	env := &Env{
		Time:          engine,
		Net:           net,
		Observer:      observer,
		Subscribers:   SubscriberNames(cfg.Subscribers),
		Resources:     ResourceNames(cfg.Resources),
		PollInterval:  cfg.PollInterval,
		TokenHopDelay: cfg.TokenHopDelay,
		Churn:         churn,
	}
	env.obsParams = resourceParams(env.Resources)
	var transport protocol.LowerService = protocol.NewReliableDatagram(engine, protocol.NewUnreliableDatagram(net), protocol.ReliableDatagramConfig{})
	if cfg.RawTransport {
		transport = protocol.NewUnreliableDatagram(net)
	}
	switch sol.Paradigm() {
	case ParadigmMiddleware:
		env.Platform = middleware.New(engine, transport, cfg.Profile, "mw-broker")
	case ParadigmProtocol, ParadigmMDA:
		env.Lower = transport
	}

	parts, err := sol.Build(env)
	if err != nil {
		return nil, fmt.Errorf("floorcontrol: build %s: %w", sol.Name(), err)
	}

	res := &Result{
		Solution:            sol.Name(),
		Paradigm:            sol.Paradigm(),
		Style:               sol.Style(),
		Figure:              sol.Figure(),
		Expected:            cfg.Subscribers * cfg.Cycles,
		Scattering:          sol.Scattering(cfg.Subscribers),
		LatencyBySubscriber: make(map[string]*metrics.Histogram, cfg.Subscribers),
	}
	for _, sub := range env.Subscribers {
		res.LatencyBySubscriber[sub] = &metrics.Histogram{}
	}

	// jitter returns d scaled uniformly into [0.5d, 1.5d).
	jitter := func(d time.Duration) time.Duration {
		if d <= 0 {
			return 0
		}
		return d/2 + time.Duration(engine.Rand().Int63n(int64(d)))
	}

	// Frozen-node discipline: while a subscriber's node is crashed, its
	// driver does nothing — a dead process neither acquires nor releases.
	// The (at most one, the driver is sequential per subscriber) driver
	// continuation that fires during the outage is parked and resumes at
	// the restart instant. Both maps stay empty fault-free.
	crashedSub := make(map[string]bool, cfg.Subscribers)
	parked := make(map[string]func(), cfg.Subscribers)
	step := func(sub string, fn func()) {
		if crashedSub[sub] {
			parked[sub] = fn
			return
		}
		fn()
	}

	remaining := res.Expected
	var runCycle func(sub string, part AppPart, cycle int)
	advance := func(sub string, part AppPart, cycle int) {
		remaining--
		if remaining == 0 {
			engine.Stop()
		} else if cycle+1 < cfg.Cycles {
			runCycle(sub, part, cycle+1)
		}
	}
	runCycle = func(sub string, part AppPart, cycle int) {
		engine.ScheduleFunc(jitter(cfg.ThinkTime), func() {
			step(sub, func() {
				target := env.Resources[engine.Rand().Intn(len(env.Resources))]
				start := engine.Now()
				if churn {
					res.Offered++
				}
				granted, timedOut := false, false
				part.Acquire(target, func() {
					if granted {
						return
					}
					granted = true
					if timedOut {
						// The grant outlived the acquire deadline; the cycle
						// was already charged as an availability loss. Return
						// the resource immediately and move on — the driver
						// never abandons an acquire, so every solution keeps
						// its one-outstanding-acquire invariant.
						step(sub, func() {
							part.Release(target)
							advance(sub, part, cycle)
						})
						return
					}
					elapsed := engine.Now() - start
					if churn {
						res.Served++
					}
					res.AcquireLatency.Add(elapsed)
					res.LatencyBySubscriber[sub].Add(elapsed)
					engine.ScheduleFunc(jitter(cfg.HoldTime), func() {
						step(sub, func() {
							part.Release(target)
							res.Completed++
							advance(sub, part, cycle)
						})
					})
				})
				if churn {
					engine.ScheduleFunc(cfg.AcquireTimeout, func() {
						if !granted {
							timedOut = true
						}
					})
				}
			})
		})
	}
	for _, sub := range env.Subscribers {
		part, ok := parts[sub]
		if !ok {
			return nil, fmt.Errorf("floorcontrol: %s built no app part for %q", sol.Name(), sub)
		}
		runCycle(sub, part, 0)
	}
	engine.ScheduleFunc(cfg.Deadline, func() { engine.Stop() })

	if churn {
		if err := scheduleChurn(cfg, sol, env, res, transport, crashedSub, parked); err != nil {
			return nil, err
		}
	}

	if _, err := engine.Run(); err != nil && !errors.Is(err, sim.ErrStopped) {
		return nil, fmt.Errorf("floorcontrol: run %s: %w", sol.Name(), err)
	}

	res.VirtualDuration = engine.Now()
	res.KernelEvents = engine.Executed()
	st := net.Stats()
	res.NetMessages = st.Sent
	res.NetBytes = st.BytesSent
	switch {
	case env.Layer != nil:
		res.ParadigmMessages = env.Layer.Stats().PDUsSent
	case env.Platform != nil:
		res.ParadigmMessages = env.Platform.Stats().WireMessages
	}
	res.ConformanceErr = observer.Complete()
	if churn {
		res.Churn = true
		// Liveness misses (end-of-trace violations, Event == nil) are the
		// availability loss churn measures; anything else — a violation
		// anchored at a trace event, or a non-violation error — is a
		// safety breach the recovery machinery must never produce.
		for _, v := range observer.Violations() {
			if ve, ok := core.AsViolation(v); !ok || ve.Event != nil {
				res.SafetyViolations++
			}
		}
		res.SafetyOK = res.SafetyViolations == 0
		res.Availability = 1
		if res.Offered > 0 {
			res.Availability = float64(res.Served) / float64(res.Offered)
		}
	}
	// Collect means in deployment order, not map order: float addition is
	// not associative, so Jain's index would otherwise wobble at the last
	// ulp from run to run.
	means := make([]float64, 0, len(res.LatencyBySubscriber))
	for _, sub := range env.Subscribers {
		means = append(means, float64(res.LatencyBySubscriber[sub].Mean()))
	}
	res.FairnessIndex = metrics.Jain(means)
	return res, nil
}
