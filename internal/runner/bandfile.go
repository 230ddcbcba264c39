package runner

import (
	"fmt"
	"time"

	"repro/internal/bandfile"
	"repro/internal/floorcontrol"
)

// Fixed workload shape of every churn band, built in (ChurnBandWith) or
// file-defined.
const (
	churnSubscribers = 4
	churnResources   = 2
	churnCycles      = 4
	churnDeadline    = 8 * time.Second
)

// BandFileScenarios parses band-file source (see internal/bandfile) and
// expands every band it declares, in file order, into the scenario list
// a sweep runs.
//
// Value validation applies the same rules the cmd/sweep dimension flags
// enforce: known solution names, positive counts, loss rates in [0, 1),
// positive crash rates and repair times, and no duplicates in any
// dimension. A file whose matrix band matches a built-in band expands
// to the identical scenario list, so its sweep output is byte-identical.
func BandFileScenarios(src string) ([]Scenario, error) {
	f, err := bandfile.Parse(src)
	if err != nil {
		return nil, err
	}
	var out []Scenario
	for i := range f.Bands {
		scens, err := expandBand(&f.Bands[i])
		if err != nil {
			return nil, err
		}
		out = append(out, scens...)
	}
	return out, nil
}

func expandBand(b *bandfile.Band) ([]Scenario, error) {
	solutions, err := checkSolutions(b)
	if err != nil {
		return nil, err
	}
	if b.Kind == bandfile.KindChurn {
		return expandChurnBand(b, solutions)
	}
	if err := checkPositiveInts(b.Name, "clients", b.Clients); err != nil {
		return nil, err
	}
	if err := checkPositiveInts(b.Name, "resources", b.Resources); err != nil {
		return nil, err
	}
	if err := checkLossRates(b.Name, b.Loss); err != nil {
		return nil, err
	}
	return BandSpec{
		Solutions: solutions,
		Clients:   b.Clients,
		Resources: b.Resources,
		Loss:      b.Loss,
		Cycles:    b.Cycles,
	}.Scenarios(), nil
}

// expandChurnBand mirrors ChurnBandWith: solution, then rebind policy,
// then crash rate, then MTTR, with the same fixed workload shape. A
// file with defaulted dimensions therefore expands to exactly
// ChurnBand's scenario list.
func expandChurnBand(b *bandfile.Band, solutions []string) ([]Scenario, error) {
	if len(b.Clients) > 0 || len(b.Resources) > 0 || b.Cycles != 0 || len(b.Loss) > 0 {
		return nil, fmt.Errorf("runner: band %q: churn bands fix the workload shape; only crash, mttr, rebind, and deadline vary", b.Name)
	}
	rates := b.Crash
	if len(rates) == 0 {
		rates = defaultChurnRates
	} else if err := checkPositiveFloats(b.Name, "crash", rates); err != nil {
		return nil, err
	}
	mttrs := b.MTTR
	if len(mttrs) == 0 {
		mttrs = defaultChurnMTTRs
	} else if err := checkPositiveDurations(b.Name, "mttr", mttrs); err != nil {
		return nil, err
	}
	deadline := b.Deadline
	if deadline == 0 {
		deadline = churnDeadline
	}
	explicit := b.Rebind
	if err := checkRebind(b.Name, explicit); err != nil {
		return nil, err
	}
	if len(solutions) == 0 {
		solutions = floorcontrol.AllSolutionNames()
	}
	var out []Scenario
	for _, sol := range solutions {
		failover := false
		if s, ok := floorcontrol.SolutionByName(sol); ok {
			_, failover = s.(floorcontrol.ControllerFailover)
		}
		var policies []string
		if explicit == nil {
			policies = []string{floorcontrol.RebindNone}
			if failover {
				policies = append(policies, floorcontrol.RebindFailover)
			}
		} else {
			for _, pol := range explicit {
				if pol == floorcontrol.RebindFailover && !failover {
					return nil, fmt.Errorf("runner: band %q: rebind: solution %q does not support failover", b.Name, sol)
				}
			}
			policies = explicit
		}
		for _, policy := range policies {
			for _, rate := range rates {
				for _, mttr := range mttrs {
					out = append(out, WorkloadScenario(floorcontrol.Config{
						Solution:     sol,
						Subscribers:  churnSubscribers,
						Resources:    churnResources,
						Cycles:       churnCycles,
						Deadline:     deadline,
						CrashRate:    rate,
						MTTR:         mttr,
						RebindPolicy: policy,
					}))
				}
			}
		}
	}
	return out, nil
}

// checkSolutions validates the solution dimension: every name known, no
// duplicates. Nil (the "all" form) stays nil for the expander defaults.
func checkSolutions(b *bandfile.Band) ([]string, error) {
	seen := make(map[string]struct{}, len(b.Solutions))
	for _, s := range b.Solutions {
		if _, ok := floorcontrol.SolutionByName(s); !ok {
			return nil, fmt.Errorf("runner: band %q: solutions: unknown solution %q", b.Name, s)
		}
		if _, dup := seen[s]; dup {
			return nil, fmt.Errorf("runner: band %q: solutions: duplicate value %q", b.Name, s)
		}
		seen[s] = struct{}{}
	}
	return b.Solutions, nil
}

func checkPositiveInts(band, stmt string, vs []int) error {
	for i, v := range vs {
		if v <= 0 {
			return fmt.Errorf("runner: band %q: %s: value %d is not positive", band, stmt, v)
		}
		for _, prev := range vs[:i] {
			if prev == v {
				return fmt.Errorf("runner: band %q: %s: duplicate value %d", band, stmt, v)
			}
		}
	}
	return nil
}

func checkLossRates(band string, vs []float64) error {
	for i, v := range vs {
		if v < 0 || v >= 1 {
			return fmt.Errorf("runner: band %q: loss: rate %g is outside [0, 1)", band, v)
		}
		for _, prev := range vs[:i] {
			if prev == v {
				return fmt.Errorf("runner: band %q: loss: duplicate value %g", band, v)
			}
		}
	}
	return nil
}

func checkPositiveFloats(band, stmt string, vs []float64) error {
	for i, v := range vs {
		if v <= 0 {
			return fmt.Errorf("runner: band %q: %s: value %g is not positive", band, stmt, v)
		}
		for _, prev := range vs[:i] {
			if prev == v {
				return fmt.Errorf("runner: band %q: %s: duplicate value %g", band, stmt, v)
			}
		}
	}
	return nil
}

func checkPositiveDurations(band, stmt string, vs []time.Duration) error {
	for i, v := range vs {
		if v <= 0 {
			return fmt.Errorf("runner: band %q: %s: value %s is not positive", band, stmt, v)
		}
		for _, prev := range vs[:i] {
			if prev == v {
				return fmt.Errorf("runner: band %q: %s: duplicate value %s", band, stmt, v)
			}
		}
	}
	return nil
}

// checkRebind validates an explicit rebind-policy list.
func checkRebind(band string, policies []string) error {
	for i, pol := range policies {
		if pol != floorcontrol.RebindNone && pol != floorcontrol.RebindFailover {
			return fmt.Errorf("runner: band %q: rebind: unknown policy %q (none, failover, auto)", band, pol)
		}
		for _, prev := range policies[:i] {
			if prev == pol {
				return fmt.Errorf("runner: band %q: rebind: duplicate policy %q", band, pol)
			}
		}
	}
	return nil
}
