package runner

import (
	"repro/internal/fanout"
	"repro/internal/floorcontrol"
)

// FanoutScenario wraps one pub/sub fan-out workload configuration into a
// sweep scenario. The sweep-derived seed overrides cfg.Seed, exactly as
// WorkloadScenario does for floor-control configs.
func FanoutScenario(cfg fanout.Config) Scenario {
	return Scenario{
		ID:     cfg.ScenarioID(),
		Params: cfg.Params(),
		Run: func(seed int64) (Outcome, error) {
			cfg := cfg
			cfg.Seed = seed
			res, err := fanout.Run(cfg)
			if err != nil {
				return Outcome{}, err
			}
			return Outcome{Text: res.SummaryLine(), Metrics: res.Summary()}, nil
		},
	}
}

// XLBand is the million-client band the federated broker tree and the
// streaming metrics plane exist for. At scale 1 it holds two scenarios:
//
//   - a 1,048,576-subscriber pub/sub fan-out (16,384 subscriber nodes,
//     4 leaf brokers, 64 sinks per node) — the encode-once federation
//     headline, and
//   - a 100,000-client floor-control run (mw-callback, 2,048 resources,
//     one cycle per client) — the contention workload at population.
//
// scale divides every population for CI smoke runs (e.g. scale 1024
// keeps the same code paths at ~1k subscribers). Memory is O(1) per
// client throughout: dense per-leaf subscriber rows, membership bits,
// and streaming histograms — no per-subscriber retained samples.
func XLBand(scale int) []Scenario {
	if scale < 1 {
		scale = 1
	}
	div := func(n int) int {
		if n /= scale; n < 1 {
			return 1
		}
		return n
	}
	fan := fanout.Config{
		Subscribers:  div(1 << 20),
		Nodes:        div(16384),
		Leaves:       4,
		Events:       4,
		PayloadBytes: 128,
	}
	floor := floorcontrol.Config{
		Solution:    "mw-callback",
		Subscribers: div(100000),
		Resources:   div(2048),
		Cycles:      1,
	}
	return []Scenario{FanoutScenario(fan), WorkloadScenario(floor)}
}
