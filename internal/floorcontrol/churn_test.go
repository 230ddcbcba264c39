package floorcontrol

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// churnConfig is the shared base workload for the churn tests: a
// contended four-subscriber deployment under a 2-crashes-per-second
// fault plan with 200 ms repairs.
func churnConfig(sol string, seed int64) Config {
	return Config{
		Solution:    sol,
		Subscribers: 4,
		Resources:   2,
		Cycles:      4,
		Seed:        seed,
		Deadline:    8 * time.Second,
		CrashRate:   2,
		MTTR:        200 * time.Millisecond,
	}
}

// TestChurnAllSolutionsSafe is the headline robustness result: every one
// of the ten solutions runs under crash/restart churn with ZERO safety
// violations. Liveness loss — cycles that never complete because a grant
// died with a node — is legal and shows up as availability < 1, never as
// a monitor violation with a triggering event.
func TestChurnAllSolutionsSafe(t *testing.T) {
	for _, name := range AllSolutionNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			res, err := RunWorkload(churnConfig(name, 42))
			if err != nil {
				t.Fatalf("RunWorkload: %v", err)
			}
			if !res.Churn {
				t.Fatal("Result.Churn not set")
			}
			if !res.SafetyOK {
				t.Fatalf("%d safety violations under churn; conformance: %v\ntrace:\n%s",
					res.SafetyViolations, res.ConformanceErr, res.Trace)
			}
			if res.Crashes == 0 {
				t.Fatal("fault plan fired no crashes")
			}
			if res.Offered == 0 {
				t.Fatal("no acquires offered")
			}
			if res.Availability <= 0 || res.Availability > 1 {
				t.Fatalf("availability %v out of (0, 1]", res.Availability)
			}
			sum := res.Summary()
			for _, k := range []string{"offered", "served", "availability", "crashes", "safety_ok"} {
				if _, ok := sum[k]; !ok {
					t.Errorf("Summary missing churn key %q", k)
				}
			}
			if sum["safety_ok"] != 1 {
				t.Errorf("safety_ok = %v, want 1", sum["safety_ok"])
			}
		})
	}
}

// TestChurnRetryingSolutionsServeEverything: the middleware solutions
// carry idempotent retry machinery, so under moderate churn every
// offered acquire is eventually granted — the run completes all cycles
// even though nodes crash throughout.
func TestChurnRetryingSolutionsServeEverything(t *testing.T) {
	res, err := RunWorkload(churnConfig("mw-callback", 42))
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != res.Offered || res.Offered != res.Expected {
		t.Fatalf("served %d of %d offered (%d expected): retries did not recover",
			res.Served, res.Offered, res.Expected)
	}
	if res.ConformanceErr != nil {
		t.Fatalf("conformance under churn: %v", res.ConformanceErr)
	}
}

// TestChurnDeterminism: a churn run is a pure function of its Config —
// identical configs yield identical traces and metrics, crashes and all.
func TestChurnDeterminism(t *testing.T) {
	for _, name := range []string{"mw-callback", "mw-token", "proto-token"} {
		a, err := RunWorkload(churnConfig(name, 7))
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunWorkload(churnConfig(name, 7))
		if err != nil {
			t.Fatal(err)
		}
		la, lb := a.Trace.Labels(), b.Trace.Labels()
		if len(la) != len(lb) {
			t.Fatalf("%s: trace lengths differ: %d vs %d", name, len(la), len(lb))
		}
		for i := range la {
			if la[i] != lb[i] {
				t.Fatalf("%s: traces diverge at %d: %q vs %q", name, i, la[i], lb[i])
			}
		}
		if a.Crashes != b.Crashes || a.Served != b.Served || a.NetMessages != b.NetMessages {
			t.Fatalf("%s: metrics differ across identical churn runs", name)
		}
	}
}

// TestChurnShardIdentity: the fault plan rides the same deterministic
// engine as everything else and shares no state between runs, so a churn
// run is byte-identical whether it executes alone or alongside copies of
// itself on other goroutines.
func TestChurnShardIdentity(t *testing.T) {
	const copies = 4
	for _, name := range []string{"mw-callback", "mw-polling", "proto-token", "mda-queue-mq-like"} {
		cfg := churnConfig(name, 7)
		a, err := RunWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		results := make([]*Result, copies)
		errs := make([]error, copies)
		var wg sync.WaitGroup
		for i := range results {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = RunWorkload(cfg)
			}(i)
		}
		wg.Wait()
		la := a.Trace.Labels()
		for c, b := range results {
			if errs[c] != nil {
				t.Fatal(errs[c])
			}
			lb := b.Trace.Labels()
			if len(la) != len(lb) {
				t.Fatalf("%s: alone vs concurrent copy %d trace lengths differ: %d vs %d", name, c, len(la), len(lb))
			}
			for i := range la {
				if la[i] != lb[i] {
					t.Fatalf("%s: alone vs concurrent copy %d traces diverge at %d", name, c, i)
				}
			}
			if a.Crashes != b.Crashes || a.Served != b.Served || a.Availability != b.Availability {
				t.Fatalf("%s: alone vs concurrent copy %d churn metrics differ:\n%+v\n%+v", name, c, a.Summary(), b.Summary())
			}
		}
	}
}

// TestChurnFailoverImprovesAvailability compares the two rebind policies
// over a seed ensemble: live-rebinding the controller onto a standby
// node at the crash instant must beat waiting out the repair on average.
// (Individual seeds can go either way — a failover run explores a
// different trajectory — so the assertion is on the ensemble mean.)
func TestChurnFailoverImprovesAvailability(t *testing.T) {
	for _, name := range []string{"mw-callback", "mw-polling"} {
		var noneSum, failSum float64
		const seeds = 10
		for seed := int64(0); seed < seeds; seed++ {
			cfg := churnConfig(name, seed)
			cfg.CrashRate = 5
			cfg.MTTR = 500 * time.Millisecond
			none, err := RunWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.RebindPolicy = RebindFailover
			fo, err := RunWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !none.SafetyOK || !fo.SafetyOK {
				t.Fatalf("%s seed %d: safety violations (none=%v failover=%v)",
					name, seed, none.SafetyViolations, fo.SafetyViolations)
			}
			noneSum += none.Availability
			failSum += fo.Availability
		}
		if failSum <= noneSum {
			t.Errorf("%s: failover mean availability %.3f not above no-rebind %.3f",
				name, failSum/seeds, noneSum/seeds)
		}
	}
}

// TestChurnRebindPolicyValidation: unknown policies are rejected up
// front; the failover policy on a symmetric solution (no controller to
// re-home) is accepted and inert.
func TestChurnRebindPolicyValidation(t *testing.T) {
	cfg := churnConfig("mw-callback", 1)
	cfg.RebindPolicy = "bogus"
	if _, err := RunWorkload(cfg); err == nil {
		t.Fatal("bogus rebind policy accepted")
	}
	cfg = churnConfig("mw-token", 1)
	cfg.RebindPolicy = RebindFailover
	res, err := RunWorkload(cfg)
	if err != nil {
		t.Fatalf("failover on symmetric solution: %v", err)
	}
	if !res.SafetyOK {
		t.Fatalf("safety violations: %d", res.SafetyViolations)
	}
}

// TestChurnScenarioIdentity: churn parameters are workload identity —
// they fork scenario IDs (and hence derived seeds) and surface as
// params.
func TestChurnScenarioIdentity(t *testing.T) {
	base := churnConfig("mw-callback", 0)
	id := base.ScenarioID()
	want := "/crash=2/mttr=200ms"
	if !strings.Contains(id, want) {
		t.Fatalf("ScenarioID %q missing %q", id, want)
	}
	fo := base
	fo.RebindPolicy = RebindFailover
	if fo.ScenarioID() == id {
		t.Fatal("rebind policy does not fork the scenario ID")
	}
	if !strings.Contains(fo.ScenarioID(), "/rebind=failover") {
		t.Fatalf("ScenarioID %q missing rebind policy", fo.ScenarioID())
	}
	var faultFree Config
	faultFree.Solution = "mw-callback"
	if strings.Contains(faultFree.ScenarioID(), "crash") {
		t.Fatalf("fault-free ScenarioID %q mentions churn", faultFree.ScenarioID())
	}
	p := base.Params()
	if p["crash_rate"] != "2" || p["mttr"] != "200ms" || p["rebind"] != RebindNone {
		t.Fatalf("Params missing churn fields: %v", p)
	}
	if _, ok := faultFree.Params()["crash_rate"]; ok {
		t.Fatal("fault-free Params mention churn")
	}
}

// TestChurnFaultFreeResultOmitsChurnFields: without a crash rate the
// Result carries no churn bookkeeping and the Summary no churn keys —
// the fault-free report surface is exactly what it was before the churn
// engine existed.
func TestChurnFaultFreeResultOmitsChurnFields(t *testing.T) {
	res, err := RunWorkload(Config{Solution: "mw-callback", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Churn || res.Offered != 0 || res.Crashes != 0 {
		t.Fatalf("fault-free run carries churn bookkeeping: %+v", res)
	}
	if _, ok := res.Summary()["availability"]; ok {
		t.Fatal("fault-free Summary has availability")
	}
}

// TestChurnTraceRefinesSafetyLTS closes the formal loop under churn: the
// recorded trace of a churned execution is still a trace of the
// safety-only service LTS (liveness is deliberately excluded — a crash
// may orphan a request forever, which the safety LTS accepts as a
// prefix).
func TestChurnTraceRefinesSafetyLTS(t *testing.T) {
	subs, ress := 3, 2
	spec := ServiceLTS(SubscriberNames(subs), ResourceNames(ress))
	for _, name := range AllSolutionNames() {
		for seed := int64(0); seed < 3; seed++ {
			cfg := Config{
				Solution: name, Subscribers: subs, Resources: ress, Cycles: 3,
				Seed: seed, Deadline: 8 * time.Second,
				CrashRate: 5, MTTR: 300 * time.Millisecond,
			}
			res, err := RunWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.SafetyOK {
				t.Fatalf("%s seed %d: safety violations", name, seed)
			}
			if !spec.Accepts(res.Trace.Labels()) {
				t.Fatalf("%s seed %d: churned trace not accepted by safety LTS\n%s",
					name, seed, res.Trace)
			}
		}
	}
}

// TestChurnViolationClassification pins the safety/liveness split the
// availability metric rests on: a liveness violation (no triggering
// event) is not counted as a safety violation.
func TestChurnViolationClassification(t *testing.T) {
	res, err := RunWorkload(churnConfig("proto-token", 42))
	if err != nil {
		t.Fatal(err)
	}
	if res.ConformanceErr == nil {
		t.Skip("seed produced a fully live run; liveness classification untestable here")
	}
	ve, ok := core.AsViolation(res.ConformanceErr)
	if !ok {
		t.Fatalf("conformance error is not a violation: %v", res.ConformanceErr)
	}
	if ve.Event != nil {
		t.Fatalf("churned proto-token produced a safety violation: %v", ve)
	}
	if !res.SafetyOK {
		t.Fatal("liveness violation was classified as safety")
	}
}
