package runner

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/bandfile"
	"repro/internal/floorcontrol"
)

// builtinBands are the named floor-control bands, in the form a .band
// file parses to. Nil dimensions take Expand's defaults.
var builtinBands = []bandfile.Band{
	// The 120-scenario headline sweep: every solution at client counts
	// {2, 8, 32} and loss {0, 1, 5, 10}% — what cmd/sweep runs with no
	// flags.
	{
		Name:    "default",
		Kind:    bandfile.KindMatrix,
		Clients: []int{2, 8, 32},
		Loss:    []float64{0, 0.01, 0.05, 0.1},
		Cycles:  6,
	},
	// The 60-scenario large-deployment band: client counts {64, 128,
	// 256}, lossless and at 1% loss, with fewer cycles so the band stays
	// a few seconds of wall time.
	{
		Name:    "large",
		Kind:    bandfile.KindMatrix,
		Clients: []int{64, 128, 256},
		Loss:    []float64{0, 0.01},
		Cycles:  4,
	},
	// The 108-scenario crash/restart robustness band (see ChurnBand).
	{
		Name: "churn",
		Kind: bandfile.KindChurn,
	},
}

// NamedBand returns the built-in band called name: default, large, or
// churn. Callers override a dimension by replacing its slice, never by
// writing into it, because the slices are shared with the table.
func NamedBand(name string) (bandfile.Band, bool) {
	for _, b := range builtinBands {
		if b.Name == name {
			return b, true
		}
	}
	return bandfile.Band{}, false
}

// Builtin is a band from the built-in table. Those bands are valid by
// construction, so expanding one cannot fail.
type Builtin struct{ bandfile.Band }

// Scenarios expands the band; it panics if the table entry is invalid.
func (b Builtin) Scenarios() []Scenario {
	out, err := Expand(b.Band)
	if err != nil {
		panic(err)
	}
	return out
}

func builtin(name string) Builtin {
	b, _ := NamedBand(name)
	return Builtin{b}
}

// DefaultBand is the 120-scenario headline sweep.
func DefaultBand() Builtin { return builtin("default") }

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
func ChurnBand(_ int) []Scenario { return builtin("churn").Scenarios() }

// Defaults of a band's nil dimensions. Matrix bands default to clients
// {3}, resources {2}, lossless; churn bands to the crash rates (crashes
// per second per node) and repair times below.
var (
	defaultClients    = []int{3}
	defaultResources  = []int{2}
	defaultLoss       = []float64{0}
	defaultChurnRates = []float64{0.5, 2, 5}
	defaultChurnMTTRs = []time.Duration{50 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond}
)

// Fixed workload shape of every churn band.
const (
	churnSubscribers = 4
	churnResources   = 2
	churnCycles      = 4
	churnDeadline    = 8 * time.Second
)

// BandFileScenarios parses band-file source (see internal/bandfile) and
// expands every band it declares, in file order, into the scenario list
// a sweep runs.
func BandFileScenarios(src string) ([]Scenario, error) {
	f, err := bandfile.Parse(src)
	if err != nil {
		return nil, err
	}
	var out []Scenario
	for _, b := range f.Bands {
		scens, err := Expand(b)
		if err != nil {
			return nil, err
		}
		out = append(out, scens...)
	}
	return out, nil
}

// Expand validates a band and expands it, in deterministic order, into
// the scenario list a sweep runs. A matrix band runs solution ×
// clients × resources × loss; a churn band runs solution × rebind
// policy × crash rate × MTTR over a fixed workload shape. Nil
// dimensions take the defaults above (nil solutions: all ten), so a
// band file equal to a built-in band expands to the identical list.
func Expand(b bandfile.Band) ([]Scenario, error) {
	if err := checkBand(b); err != nil {
		return nil, err
	}
	solutions := b.Solutions
	if len(solutions) == 0 {
		solutions = floorcontrol.AllSolutionNames()
	}
	if b.Kind == bandfile.KindChurn {
		return expandChurn(b, solutions)
	}
	clients := orDefault(b.Clients, defaultClients)
	resources := orDefault(b.Resources, defaultResources)
	loss := orDefault(b.Loss, defaultLoss)
	out := make([]Scenario, 0, len(solutions)*len(clients)*len(resources)*len(loss))
	for _, sol := range solutions {
		for _, subs := range clients {
			for _, res := range resources {
				for _, rate := range loss {
					out = append(out, WorkloadScenario(floorcontrol.Config{
						Solution:    sol,
						Subscribers: subs,
						Resources:   res,
						Cycles:      b.Cycles,
						LossRate:    rate,
					}))
				}
			}
		}
	}
	return out, nil
}

func expandChurn(b bandfile.Band, solutions []string) ([]Scenario, error) {
	rates := orDefault(b.Crash, defaultChurnRates)
	mttrs := orDefault(b.MTTR, defaultChurnMTTRs)
	deadline := b.Deadline
	if deadline == 0 {
		deadline = churnDeadline
	}
	var out []Scenario
	for _, sol := range solutions {
		failover := false
		if s, ok := floorcontrol.SolutionByName(sol); ok {
			_, failover = s.(floorcontrol.ControllerFailover)
		}
		policies := b.Rebind
		if len(policies) == 0 {
			policies = []string{floorcontrol.RebindNone}
			if failover {
				policies = append(policies, floorcontrol.RebindFailover)
			}
		} else if slices.Contains(policies, floorcontrol.RebindFailover) && !failover {
			return nil, fmt.Errorf("runner: band %q: rebind: solution %q does not support failover", b.Name, sol)
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

func orDefault[T any](vs, def []T) []T {
	if len(vs) == 0 {
		return def
	}
	return vs
}

// checkBand is the one validation of a band, wherever it came from: a
// known kind, no statement the kind does not take, and every set
// dimension positive or in range, without duplicates. Defaulted (nil or
// zero) dimensions are not checked.
func checkBand(b bandfile.Band) error {
	churn := b.Kind == bandfile.KindChurn
	if !churn && b.Kind != bandfile.KindMatrix {
		return fmt.Errorf("runner: band %q: unknown kind %q (matrix, churn)", b.Name, b.Kind)
	}
	for _, s := range []struct {
		name           string
		set, churnOnly bool
	}{
		{"clients", len(b.Clients) > 0, false},
		{"resources", len(b.Resources) > 0, false},
		{"loss", len(b.Loss) > 0, false},
		{"cycles", b.Cycles != 0, false},
		{"crash", len(b.Crash) > 0, true},
		{"mttr", len(b.MTTR) > 0, true},
		{"rebind", len(b.Rebind) > 0, true},
		{"deadline", b.Deadline != 0, true},
	} {
		switch {
		case !s.set || s.churnOnly == churn: // the kind takes it
		case churn:
			return fmt.Errorf("runner: band %q: %s: churn bands fix the workload shape; only solutions, crash, mttr, rebind, and deadline vary", b.Name, s.name)
		default:
			return fmt.Errorf("runner: band %q: %s: only applies to churn bands", b.Name, s.name)
		}
	}
	return errors.Join(
		checkDim(b.Name, "solutions", b.Solutions, knownSolution, "unknown solution"),
		checkDim(b.Name, "clients", b.Clients, positive, "not positive"),
		checkDim(b.Name, "resources", b.Resources, positive, "not positive"),
		checkDim(b.Name, "loss", b.Loss, lossRate, "outside [0, 1)"),
		checkDim(b.Name, "cycles", nonZero(b.Cycles), positive, "not positive"),
		checkDim(b.Name, "crash", b.Crash, positive, "not positive"),
		checkDim(b.Name, "mttr", b.MTTR, positive, "not positive"),
		checkDim(b.Name, "rebind", b.Rebind, knownPolicy, "unknown policy (none, failover, auto)"),
		checkDim(b.Name, "deadline", nonZero(b.Deadline), positive, "not positive"),
	)
}

// checkDim checks one dimension: every value valid, none repeated.
func checkDim[T comparable](band, stmt string, vs []T, valid func(T) bool, rule string) error {
	for i, v := range vs {
		if !valid(v) {
			return fmt.Errorf("runner: band %q: %s: %v: %s", band, stmt, v, rule)
		}
		if slices.Contains(vs[:i], v) {
			return fmt.Errorf("runner: band %q: %s: %v: duplicate value", band, stmt, v)
		}
	}
	return nil
}

// nonZero lifts a single-valued statement into a dimension; zero means
// defaulted and yields none.
func nonZero[T comparable](v T) []T {
	var zero T
	if v == zero {
		return nil
	}
	return []T{v}
}

func positive[T ~int | ~int64 | ~float64](v T) bool { return v > 0 }

func lossRate(v float64) bool { return v >= 0 && v < 1 }

func knownSolution(name string) bool {
	_, ok := floorcontrol.SolutionByName(name)
	return ok
}

func knownPolicy(p string) bool {
	return p == floorcontrol.RebindNone || p == floorcontrol.RebindFailover
}
