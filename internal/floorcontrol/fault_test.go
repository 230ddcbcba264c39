package floorcontrol

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// buildProtoEnv assembles a proto-callback deployment with direct access
// to the network for fault injection.
func buildProtoEnv(t *testing.T, seed int64, subs, resources int) (*sim.Kernel, *network.Network, *core.Observer, map[string]AppPart) {
	t.Helper()
	kernel := sim.NewKernel(sim.WithSeed(seed))
	net := network.New(kernel, network.WithDefaultLink(network.LinkConfig{Latency: time.Millisecond}))
	observer, err := core.NewObserver(Spec(), kernel)
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{
		Time:          kernel,
		Net:           net,
		Observer:      observer,
		Subscribers:   SubscriberNames(subs),
		Resources:     ResourceNames(resources),
		PollInterval:  5 * time.Millisecond,
		TokenHopDelay: 2 * time.Millisecond,
		Lower:         protocol.NewReliableDatagram(kernel, protocol.NewUnreliableDatagram(net), protocol.ReliableDatagramConfig{}),
	}
	parts, err := (&ProtoCallback{}).Build(env)
	if err != nil {
		t.Fatal(err)
	}
	return kernel, net, observer, parts
}

// TestPartitionHealedPreservesService injects a partition between a
// subscriber and the controller mid-acquisition; after healing, the
// reliability layer retransmits through and the service completes
// conformantly — distribution faults are masked below the service
// boundary.
func TestPartitionHealedPreservesService(t *testing.T) {
	kernel, net, observer, parts := buildProtoEnv(t, 3, 2, 1)

	granted := map[string]bool{}
	released := map[string]bool{}
	for _, sub := range SubscriberNames(2) {
		sub := sub
		part := parts[sub]
		kernel.Schedule(0, func() {
			part.Acquire("r1", func() {
				granted[sub] = true
				kernel.Schedule(5*time.Millisecond, func() {
					part.Release("r1")
					released[sub] = true
				})
			})
		})
	}
	// Cut s2 ↔ ctrl just before its request would reach the controller.
	net.PartitionBoth("s2", "ctrl")
	kernel.Schedule(60*time.Millisecond, func() { net.HealBoth("s2", "ctrl") })

	if _, err := kernel.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !granted["s1"] || !granted["s2"] {
		t.Fatalf("grants = %v; healing did not recover the partitioned subscriber", granted)
	}
	if !released["s1"] || !released["s2"] {
		t.Fatalf("releases = %v", released)
	}
	if err := observer.Complete(); err != nil {
		t.Fatalf("conformance after partition+heal: %v", err)
	}
	if st := net.Stats(); st.Dropped == 0 {
		t.Fatal("partition dropped nothing; fault not exercised")
	}
}

// TestPartitionNeverHealedIsLivenessViolation shows the complementary
// outcome: an unhealed partition cannot violate safety (no double grant),
// only liveness — and the observer attributes it correctly.
func TestPartitionNeverHealedIsLivenessViolation(t *testing.T) {
	kernel, net, observer, parts := buildProtoEnv(t, 5, 2, 1)
	net.PartitionBoth("s2", "ctrl")

	s1done := false
	kernel.Schedule(0, func() {
		parts["s1"].Acquire("r1", func() {
			kernel.Schedule(5*time.Millisecond, func() {
				parts["s1"].Release("r1")
				s1done = true
			})
		})
	})
	kernel.Schedule(0, func() {
		parts["s2"].Acquire("r1", func() {
			t.Error("partitioned subscriber was granted")
		})
	})
	if _, err := kernel.RunUntil(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	kernel.Stop() // retransmit timers would run forever
	if !s1done {
		t.Fatal("healthy subscriber blocked by peer's partition")
	}
	verr := observer.Complete()
	if verr == nil {
		t.Fatal("unanswered request not flagged")
	}
	v, ok := core.AsViolation(verr)
	if !ok || v.Constraint != "request-eventually-granted" {
		t.Fatalf("violation = %v, want liveness constraint", verr)
	}
}

// TestFairnessReported checks the new fairness measurements: under a
// symmetric workload every solution should serve subscribers roughly
// evenly (index near 1), and the per-subscriber histograms partition the
// global one.
func TestFairnessReported(t *testing.T) {
	for _, name := range []string{"mw-callback", "proto-callback", "proto-token"} {
		res, err := RunWorkload(Config{Solution: name, Subscribers: 4, Cycles: 6, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		if res.FairnessIndex < 0.5 || res.FairnessIndex > 1.0 {
			t.Fatalf("%s: fairness index %v implausible", name, res.FairnessIndex)
		}
		total := 0
		for _, h := range res.LatencyBySubscriber {
			total += h.Count()
		}
		if total != res.AcquireLatency.Count() {
			t.Fatalf("%s: per-subscriber samples %d != global %d", name, total, res.AcquireLatency.Count())
		}
	}
}

// replayTrace re-checks a recorded trace against a (possibly stricter)
// specification using the original event timestamps.
func replayTrace(t *testing.T, spec *core.ServiceSpec, trace core.Trace) error {
	t.Helper()
	clock := &replayClock{}
	obs, err := core.NewObserver(spec, clock)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range trace {
		clock.now = e.At
		_ = obs.Observe(e.SAP, e.Primitive, e.Params) //nolint:errcheck
	}
	return obs.Complete()
}

type replayClock struct{ now time.Duration }

func (c *replayClock) Now() time.Duration { return c.now }

// TestQoSSpecOverRecordedTraces replays real workload traces against a
// spec extended with QoS constraints (deadline, capacity) — the §5 point
// that QoS aspects can be addressed separately, at the service level.
func TestQoSSpecOverRecordedTraces(t *testing.T) {
	strict := Spec()
	strict.Constraints = append(strict.Constraints,
		&core.Deadline{
			ConstraintName: "grant-within-2s",
			ScopeKind:      core.ScopeLocal,
			Trigger:        PrimRequest,
			Response:       PrimGranted,
			Key:            core.KeySAPAndParam(ParamResource),
			Within:         2 * time.Second,
		},
		&core.Capacity{
			ConstraintName: "single-holder",
			Acquire:        PrimGranted,
			Release:        PrimFree,
			Key:            core.KeyParam(ParamResource),
			Limit:          1,
		},
	)
	if err := strict.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"proto-callback", "mw-token", "mda-queue-mq-like"} {
		_, tr, err := runTraced(Config{Solution: name, Seed: 4, Cycles: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := replayTrace(t, strict, tr); err != nil {
			t.Fatalf("%s: QoS-extended spec violated: %v", name, err)
		}
	}
	// A tight deadline catches the token solution's circulation latency.
	tight := Spec()
	tight.Constraints = append(tight.Constraints, &core.Deadline{
		ConstraintName: "grant-within-1us",
		ScopeKind:      core.ScopeLocal,
		Trigger:        PrimRequest,
		Response:       PrimGranted,
		Key:            core.KeySAPAndParam(ParamResource),
		Within:         time.Microsecond,
	})
	_, tr, err := runTraced(Config{Solution: "proto-token", Seed: 4, Cycles: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := replayTrace(t, tight, tr); err == nil {
		t.Fatal("1µs grant deadline should be violated by token circulation")
	}
}

// TestHistogramIntegrationSanity guards the metrics coupling end to end.
func TestHistogramIntegrationSanity(t *testing.T) {
	res, err := RunWorkload(Config{Solution: "proto-callback", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var h metrics.Histogram
	for _, sub := range res.LatencyBySubscriber {
		for q := 0.0; q <= 1.0; q += 0.5 {
			h.Add(sub.Quantile(q))
		}
	}
	if h.Count() == 0 || h.Max() < h.Min() {
		t.Fatal("histogram invariants broken")
	}
}
