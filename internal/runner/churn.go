package runner

import (
	"time"

	"repro/internal/floorcontrol"
)

// Default churn-band dimensions: crash rates in crashes per second per
// node, repair times as MTTR. The cross product with the rebind-policy
// dimension (see ChurnBandWith) over all ten solutions yields the
// 108-scenario conformance-gated churn band.
var (
	defaultChurnRates = []float64{0.5, 2, 5}
	defaultChurnMTTRs = []time.Duration{50 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond}
)

// ChurnBand is the crash/restart robustness sweep: every solution at
// every crash-rate × MTTR combination, plus — for the solutions whose
// controller supports live rebinding (ControllerFailover) — the same
// grid again under the failover policy. Unlike the throughput bands the
// headline metric is availability (served/offered within the acquire
// timeout); the gate is zero safety violations across the whole band.
// Churn parameters are workload identity, so every grid point gets a
// distinct scenario ID and derived seed.
//
// The argument is ignored; it stays only so the benchmark's existing
// ChurnBand(0) call compiles, and goes when that call site changes.
func ChurnBand(_ int) []Scenario {
	return ChurnBandWith(nil, nil)
}

// ChurnBandWith expands the churn band over explicit crash-rate and
// MTTR dimensions (nil/empty take the defaults above) — the hook for
// cmd/sweep's -crash and -mttr overrides. Expansion order is
// deterministic: solution, then rebind policy, then crash rate, then
// MTTR.
func ChurnBandWith(rates []float64, mttrs []time.Duration) []Scenario {
	if len(rates) == 0 {
		rates = defaultChurnRates
	}
	if len(mttrs) == 0 {
		mttrs = defaultChurnMTTRs
	}
	var out []Scenario
	for _, sol := range floorcontrol.AllSolutionNames() {
		policies := []string{floorcontrol.RebindNone}
		if s, ok := floorcontrol.SolutionByName(sol); ok {
			if _, failover := s.(floorcontrol.ControllerFailover); failover {
				policies = append(policies, floorcontrol.RebindFailover)
			}
		}
		for _, policy := range policies {
			for _, rate := range rates {
				for _, mttr := range mttrs {
					out = append(out, WorkloadScenario(floorcontrol.Config{
						Solution:     sol,
						Subscribers:  churnSubscribers,
						Resources:    churnResources,
						Cycles:       churnCycles,
						Deadline:     churnDeadline,
						CrashRate:    rate,
						MTTR:         mttr,
						RebindPolicy: policy,
					}))
				}
			}
		}
	}
	return out
}
