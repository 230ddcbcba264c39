package runner

import (
	"time"

	"repro/internal/experiments"
	"repro/internal/floorcontrol"
)

// FigureScenarios wraps experiment descriptors into sweep scenarios. Each
// scenario regenerates its figure with the seed the sweep derives for it;
// the figure's rendered table becomes the scenario text.
func FigureScenarios(descs []experiments.Descriptor) []Scenario {
	out := make([]Scenario, len(descs))
	for i, d := range descs {
		d := d
		out[i] = Scenario{
			ID:     d.ID,
			Params: map[string]string{"experiment": d.Title},
			Run: func(seed int64) (Outcome, error) {
				rep, err := d.Gen(seed)
				if err != nil {
					return Outcome{}, err
				}
				return Outcome{Text: rep.String()}, nil
			},
		}
	}
	return out
}

// Matrix describes a cross-product of floor-control workload scenarios:
// every listed solution is run at every combination of subscriber count,
// resource count, and loss rate. Zero-valued dimensions take the defaults
// below so the zero Matrix is runnable.
type Matrix struct {
	// Solutions to exercise; empty means all ten implementations.
	Solutions []string
	// Subscribers, Resources, and LossRates are the swept dimensions;
	// empty dimensions default to {3}, {2}, and {0}.
	Subscribers []int
	Resources   []int
	LossRates   []float64
	// Cycles, PollInterval, and Latency are held fixed across the sweep;
	// zero values take the workload defaults.
	Cycles       int
	PollInterval time.Duration
	Latency      time.Duration
}

func (m Matrix) withDefaults() Matrix {
	if len(m.Solutions) == 0 {
		m.Solutions = floorcontrol.AllSolutionNames()
	}
	if len(m.Subscribers) == 0 {
		m.Subscribers = []int{3}
	}
	if len(m.Resources) == 0 {
		m.Resources = []int{2}
	}
	if len(m.LossRates) == 0 {
		m.LossRates = []float64{0}
	}
	return m
}

// Size returns the number of scenarios the matrix expands to.
func (m Matrix) Size() int {
	m = m.withDefaults()
	return len(m.Solutions) * len(m.Subscribers) * len(m.Resources) * len(m.LossRates)
}

// Scenarios expands the cross product in deterministic order (solution,
// then subscribers, then resources, then loss rate).
func (m Matrix) Scenarios() []Scenario {
	m = m.withDefaults()
	out := make([]Scenario, 0, m.Size())
	for _, sol := range m.Solutions {
		for _, subs := range m.Subscribers {
			for _, res := range m.Resources {
				for _, loss := range m.LossRates {
					cfg := floorcontrol.Config{
						Solution:     sol,
						Subscribers:  subs,
						Resources:    res,
						Cycles:       m.Cycles,
						PollInterval: m.PollInterval,
						Latency:      m.Latency,
						LossRate:     loss,
					}
					out = append(out, WorkloadScenario(cfg))
				}
			}
		}
	}
	return out
}

// BandSpec is the declarative description of a scenario band: the swept
// dimensions a band varies (solutions, client counts, loss rates,
// resource counts) plus the cycle count it holds fixed. It is the
// single way bands are defined — the named band constructors below are
// one-line specs, and callers compose ad-hoc bands the same way instead
// of hand-rolling Matrix literals:
//
//	runner.BandSpec{Clients: []int{64}, Loss: []float64{0.05}}.Scenarios()
//
// Field names follow the sweep CLI (-clients, -loss), not the workload
// struct, because a band is a CLI-level concept. Empty dimensions take
// the Matrix defaults (all solutions, clients {3}, resources {2},
// lossless).
type BandSpec struct {
	// Solutions restricts the solution dimension; empty means all ten.
	Solutions []string
	// Clients is the subscriber-count dimension.
	Clients []int
	// Resources is the resource-count dimension.
	Resources []int
	// Loss is the link loss-rate dimension (fractions in [0, 1)).
	Loss []float64
	// Cycles fixes the acquire/hold/release cycles per subscriber; zero
	// takes the workload default.
	Cycles int
}

// Matrix lowers the spec to the cross-product form the expander runs.
func (s BandSpec) Matrix() Matrix {
	return Matrix{
		Solutions:   s.Solutions,
		Subscribers: s.Clients,
		Resources:   s.Resources,
		LossRates:   s.Loss,
		Cycles:      s.Cycles,
	}
}

// Size returns the number of scenarios the band expands to.
func (s BandSpec) Size() int { return s.Matrix().Size() }

// Scenarios expands the band in deterministic order.
func (s BandSpec) Scenarios() []Scenario { return s.Matrix().Scenarios() }

// DefaultBand is the 120-scenario headline sweep: every solution at
// client counts {2, 8, 32} and loss {0, 1, 5, 10}% — the matrix cmd/sweep
// runs when invoked with no flags.
func DefaultBand() BandSpec {
	return BandSpec{
		Clients: []int{2, 8, 32},
		Loss:    []float64{0, 0.01, 0.05, 0.1},
		Cycles:  6,
	}
}

// LargeClientBand is the large-deployment scenario band the dense
// routing/demux plane makes affordable: every solution at client counts
// {64, 128, 256}, lossless and at 1% loss, with a reduced cycle count so
// the 60-scenario band stays a few seconds of wall time. It complements
// DefaultBand (clients {2, 8, 32}), extending coverage into the fan-out
// regime where per-message table-walk costs dominate.
func LargeClientBand() Matrix {
	return BandSpec{
		Clients: []int{64, 128, 256},
		Loss:    []float64{0, 0.01},
		Cycles:  4,
	}.Matrix()
}

// WorkloadScenario wraps one floor-control workload configuration into a
// sweep scenario. The sweep-derived seed overrides cfg.Seed, so equal
// configurations under equal base seeds reproduce exactly.
func WorkloadScenario(cfg floorcontrol.Config) Scenario {
	return Scenario{
		ID:     cfg.ScenarioID(),
		Params: cfg.Params(),
		Run: func(seed int64) (Outcome, error) {
			cfg := cfg
			cfg.Seed = seed
			res, err := floorcontrol.RunWorkload(cfg)
			if err != nil {
				return Outcome{}, err
			}
			return Outcome{Text: res.SummaryLine(), Metrics: res.Summary()}, nil
		},
	}
}
