package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/fanout"
	"repro/internal/floorcontrol"
	"repro/internal/runner"
)

// goldenSeed is the base seed the committed report digests were recorded
// at (the cmd/sweep default).
const goldenSeed = 42

// Population divisors of the two XL workloads. floor-xl runs the XL
// band's floor-control scenario at a sixteenth of its population, so a
// run holds enough passes for a steady median; fanout-xl runs the full
// million-subscriber tree.
const (
	floorXLDiv  = 16
	fanoutXLDiv = 1
)

// churnReplicas is how many times a churn-band pass runs the band, each
// copy under its own derived seeds. One band's cost swings by almost a
// fifth from one base seed to the next, because the seed draws the crash
// schedule; a pass over sixteen copies keeps that swing within a few
// percent.
const churnReplicas = 16

// workload is one named benchmark input: a closed batch of scenarios run
// back to back by one runner.Sweep worker.
type workload struct {
	name string
	// band returns one copy of the workload's scenarios, built through
	// the same public entry points cmd/sweep uses.
	band func() []runner.Scenario
	// replicas is how many copies of band a pass runs (0 means one).
	replicas int
	// fan is the fan-out configuration of a fan-out workload (nil for
	// floor-control workloads); the traced run re-drives it.
	fan *fanout.Config
	// churn marks the crash/restart workload: starvation is expected
	// there, safety violations are not.
	churn bool
	// digest is the SHA-256 of the report CSV at goldenSeed; default-band's
	// is the hash TestGoldenDefaultBandCSV pins. The XL digests are empty
	// when their populations are divided further (div > 1).
	digest string
}

// workloads returns the benchmark's workloads. div further divides the XL
// populations (1 for the benchmark itself; tests use 1024).
func workloads(div int) []workload {
	floor := floorcontrol.Config{
		Solution:    "mw-callback",
		Subscribers: 100000 / floorXLDiv / div,
		Resources:   max(2048/floorXLDiv/div, 1),
		Cycles:      1,
	}
	fan := fanout.Config{
		Subscribers:  (1 << 20) / fanoutXLDiv / div,
		Nodes:        max(16384/fanoutXLDiv/div, 1),
		Leaves:       4,
		Events:       4,
		PayloadBytes: 128,
	}
	ws := []workload{
		{
			name:   "default-band",
			band:   func() []runner.Scenario { return runner.DefaultBand().Scenarios() },
			digest: "36e197fa96a00e353f98f4150304a16f276b537b3b4d690384cbe543e493acec",
		},
		{
			name: "churn-band",
			// The only call in the benchmark that takes a shard count.
			band:     func() []runner.Scenario { return runner.ChurnBand(0) },
			replicas: churnReplicas,
			churn:    true,
			digest:   "f89838a9dfdcdfdfd33f89c0a581b0031e433b92f87363da11aa0fbe7d8ba154",
		},
		{
			name:   "floor-xl",
			band:   func() []runner.Scenario { return []runner.Scenario{runner.WorkloadScenario(floor)} },
			digest: "83aaaecbb37b3b3a2dbe37f84fd4603367bcd777b852ed8adc1d81f913cfa781",
		},
		{
			name:   "fanout-xl",
			band:   func() []runner.Scenario { return []runner.Scenario{runner.FanoutScenario(fan)} },
			fan:    &fan,
			digest: "828f101968758ca1995ed8504057f571d6c7dff4af1cb6adf07cac8fc9a9a95b",
		},
	}
	if div != 1 {
		for i := range ws {
			if ws[i].name == "floor-xl" || ws[i].name == "fanout-xl" {
				ws[i].digest = ""
			}
		}
	}
	return ws
}

// scenarios returns the scenarios of one pass.
func (w workload) scenarios() []runner.Scenario {
	return replicate(w.band(), w.replicas)
}

// replicaSep joins a scenario ID and its replica number. Replica 0 keeps
// the band's own IDs, so it reproduces the band exactly; the others get
// IDs, and therefore derived seeds, of their own.
const replicaSep = "/replica="

func replicate(band []runner.Scenario, n int) []runner.Scenario {
	out := append([]runner.Scenario(nil), band...)
	for r := 1; r < n; r++ {
		for _, sc := range band {
			sc.ID += replicaSep + strconv.Itoa(r)
			out = append(out, sc)
		}
	}
	return out
}

// findWorkload looks a workload up by name.
func findWorkload(name string, div int) (workload, error) {
	var names []string
	for _, w := range workloads(div) {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// digestOf returns the hex SHA-256 of a report rendering.
func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// opCounts returns the operations a report attempted and failed. For
// floor-control scenarios the operations are acquires: offered minus
// served under churn, expected minus completed cycles otherwise. For
// fan-out they are sink deliveries.
func opCounts(rep *runner.SweepReport) (attempted, failed float64) {
	for _, s := range rep.Scenarios {
		m := s.Outcome.Metrics
		switch {
		case hasMetric(m, "offered"):
			attempted += m["offered"]
			failed += m["offered"] - m["served"]
		case hasMetric(m, "delivered"):
			attempted += m["expected"]
			failed += m["expected"] - m["delivered"]
		default:
			attempted += m["expected"]
			failed += m["expected"] - m["completed"]
		}
	}
	return attempted, failed
}

func hasMetric(m map[string]float64, name string) bool {
	_, ok := m[name]
	return ok
}

// check verifies one report of workload w: no scenario failed, no
// conformance violation on a fault-free workload, no safety violation
// under churn, and no fan-out delivery shortfall.
func (w workload) check(rep *runner.SweepReport) error {
	if err := rep.Err(); err != nil {
		return err
	}
	for _, s := range rep.Scenarios {
		m := s.Outcome.Metrics
		switch {
		case w.fan != nil:
			if m["delivered"] != m["expected"] {
				return fmt.Errorf("%s: delivered %g of %g", s.ID, m["delivered"], m["expected"])
			}
		case w.churn:
			if m["safety_ok"] != 1 {
				return fmt.Errorf("%s: safety violation: %s", s.ID, s.Outcome.Text)
			}
		default:
			if m["conforms"] != 1 {
				return fmt.Errorf("%s: conformance violation: %s", s.ID, s.Outcome.Text)
			}
		}
	}
	return nil
}

// configFromID rebuilds the floor-control configuration a scenario ID
// names. Every parameter that differs from its default appears in the ID
// (see floorcontrol.Config.ScenarioID), so the rebuilt config describes
// the same workload; the caller checks that it renders the same ID.
func configFromID(id string) (floorcontrol.Config, error) {
	parts := strings.Split(id, "/")
	cfg := floorcontrol.Config{Solution: parts[0]}
	for _, p := range parts[1:] {
		key, val, _ := strings.Cut(p, "=")
		var err error
		switch key {
		case "subs":
			cfg.Subscribers, err = strconv.Atoi(val)
		case "res":
			cfg.Resources, err = strconv.Atoi(val)
		case "cycles":
			cfg.Cycles, err = strconv.Atoi(val)
		case "loss":
			cfg.LossRate, err = strconv.ParseFloat(val, 64)
		case "crash":
			cfg.CrashRate, err = strconv.ParseFloat(val, 64)
		case "think":
			cfg.ThinkTime, err = time.ParseDuration(val)
		case "hold":
			cfg.HoldTime, err = time.ParseDuration(val)
		case "poll":
			cfg.PollInterval, err = time.ParseDuration(val)
		case "hop":
			cfg.TokenHopDelay, err = time.ParseDuration(val)
		case "lat":
			cfg.Latency, err = time.ParseDuration(val)
		case "deadline":
			cfg.Deadline, err = time.ParseDuration(val)
		case "mttr":
			cfg.MTTR, err = time.ParseDuration(val)
		case "acqto":
			cfg.AcquireTimeout, err = time.ParseDuration(val)
		case "rebind":
			cfg.RebindPolicy = val
		case "raw":
			cfg.RawTransport = true
		default:
			err = fmt.Errorf("unsupported parameter %q", key)
		}
		if err != nil {
			return floorcontrol.Config{}, fmt.Errorf("scenario %q: %w", id, err)
		}
	}
	if got := cfg.ScenarioID(); got != id {
		return floorcontrol.Config{}, fmt.Errorf("scenario %q: rebuilt config renders as %q", id, got)
	}
	return cfg, nil
}
