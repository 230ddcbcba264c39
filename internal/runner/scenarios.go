package runner

import (
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
