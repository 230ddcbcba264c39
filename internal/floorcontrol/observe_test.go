package floorcontrol

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// runTraced runs cfg with a trace attached and returns the result and the
// recorded service trace.
func runTraced(cfg Config) (*Result, core.Trace, error) {
	var tr core.Trace
	cfg.Trace = &tr
	res, err := RunWorkload(cfg)
	return res, tr, err
}

// TestTraceParity pins the opt-in trace against the observer's own count:
// for every solution the trace holds exactly the events the observer
// checked, and the service LTS accepts them.
func TestTraceParity(t *testing.T) {
	spec := safetyLTS(t, 2, 1)
	for _, name := range AllSolutionNames() {
		t.Run(name, func(t *testing.T) {
			sol, ok := SolutionByName(name)
			if !ok {
				t.Fatalf("unknown solution %q", name)
			}
			c := &envCapture{Solution: sol}
			var tr core.Trace
			res, err := RunWorkloadWith(c, Config{Solution: name, Subscribers: 2, Resources: 1, Cycles: 3, Seed: 5, Trace: &tr})
			if err != nil {
				t.Fatal(err)
			}
			if res.ConformanceErr != nil {
				t.Fatalf("conformance: %v", res.ConformanceErr)
			}
			if n := c.env.Observer.EventCount(); len(tr) != n || n != 3*res.Expected {
				t.Fatalf("trace holds %d events, observer counted %d, want %d", len(tr), n, 3*res.Expected)
			}
			if !spec.Accepts(tr.Labels()) {
				t.Fatalf("recorded trace rejected by the service LTS:\n%s", tr)
			}
		})
	}
}

// TestObserveAllocs pins that conformance observation without a trace
// allocates nothing per steady-state request→granted→free cycle: every
// monitor keeps its state by the key's dense id, so a key seen before
// costs neither a string nor a slot.
func TestObserveAllocs(t *testing.T) {
	obs, err := core.NewObserver(Spec(), sim.NewKernel())
	if err != nil {
		t.Fatal(err)
	}
	sap := SubscriberSAP("s1")
	var params paramBuf
	cycle := func() {
		for _, prim := range []string{PrimRequest, PrimGranted, PrimFree} {
			if err := obs.Observe(sap, prim, params.of("r1")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("%.1f allocs per observed cycle, want 0", n)
	}
	if err := obs.Complete(); err != nil {
		t.Fatal(err)
	}
}
