package runner

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/bandfile"
	"repro/internal/experiments"
	"repro/internal/floorcontrol"
)

func TestDeriveSeedStable(t *testing.T) {
	a := DeriveSeed(42, "F4")
	if b := DeriveSeed(42, "F4"); a != b {
		t.Fatalf("DeriveSeed not stable: %d vs %d", a, b)
	}
	if a <= 0 {
		t.Fatalf("DeriveSeed returned non-positive seed %d", a)
	}
	if DeriveSeed(42, "F5") == a {
		t.Fatal("distinct IDs derived the same seed")
	}
	if DeriveSeed(43, "F4") == a {
		t.Fatal("distinct base seeds derived the same seed")
	}
}

func TestDeriveSeedSpreads(t *testing.T) {
	seen := make(map[int64]string)
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("scenario-%d", i)
		s := DeriveSeed(1, id)
		if s <= 0 {
			t.Fatalf("seed for %q is %d, want positive", id, s)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between %q and %q", prev, id)
		}
		seen[s] = id
	}
}

func TestSweepValidatesMatrix(t *testing.T) {
	ok := func(int64) (Outcome, error) { return Outcome{}, nil }
	cases := []struct {
		name      string
		scenarios []Scenario
	}{
		{"empty matrix", nil},
		{"empty ID", []Scenario{{ID: "", Run: ok}}},
		{"nil Run", []Scenario{{ID: "a"}}},
		{"duplicate ID", []Scenario{{ID: "a", Run: ok}, {ID: "a", Run: ok}}},
	}
	for _, tc := range cases {
		if _, err := Sweep(tc.scenarios, Options{}); err == nil {
			t.Errorf("%s: Sweep accepted an invalid matrix", tc.name)
		}
	}
}

func TestSweepRecordsScenarioFailures(t *testing.T) {
	scenarios := []Scenario{
		{ID: "ok", Run: func(int64) (Outcome, error) { return Outcome{Text: "fine"}, nil }},
		{ID: "fails", Run: func(int64) (Outcome, error) { return Outcome{}, errors.New("boom") }},
		{ID: "panics", Run: func(int64) (Outcome, error) { panic("kaboom") }},
	}
	rep, err := Sweep(scenarios, Options{Workers: 2, BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scenarios[0].Err != "" || rep.Scenarios[0].Outcome.Text != "fine" {
		t.Fatalf("healthy scenario mangled: %+v", rep.Scenarios[0])
	}
	if rep.Scenarios[1].Err != "boom" {
		t.Fatalf("error not recorded: %+v", rep.Scenarios[1])
	}
	if !strings.Contains(rep.Scenarios[2].Err, "kaboom") {
		t.Fatalf("panic not recorded: %+v", rep.Scenarios[2])
	}
	if rep.Err() == nil {
		t.Fatal("SweepReport.Err missed the failures")
	}
}

func TestSweepPreservesInputOrder(t *testing.T) {
	var scenarios []Scenario
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("s%02d", i)
		scenarios = append(scenarios, Scenario{ID: id, Run: func(int64) (Outcome, error) {
			return Outcome{Text: id}, nil
		}})
	}
	rep, err := Sweep(scenarios, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range rep.Scenarios {
		if want := fmt.Sprintf("s%02d", i); s.ID != want || s.Outcome.Text != want {
			t.Fatalf("slot %d holds %q/%q, want %q", i, s.ID, s.Outcome.Text, want)
		}
	}
}

// testMatrix is the determinism workload: 10 solutions × 2 subscriber
// counts × 2 loss rates = 40 scenarios, each with real simulation work.
// The 32-subscriber column matters: large deployments caught a
// map-iteration-order float instability in the fairness index that small
// ones slipped past.
func testMatrix(t *testing.T) []Scenario {
	t.Helper()
	return mustExpand(t, bandfile.Band{
		Name:    "test",
		Kind:    bandfile.KindMatrix,
		Clients: []int{2, 32},
		Loss:    []float64{0, 0.05},
		Cycles:  3,
	})
}

func mustExpand(t *testing.T, b bandfile.Band) []Scenario {
	t.Helper()
	scenarios, err := Expand(b)
	if err != nil {
		t.Fatal(err)
	}
	return scenarios
}

// TestSweepDeterministicAcrossWorkerCounts is the splittable-seed
// regression guard: the same sweep on 1 worker and on N workers must
// aggregate to byte-identical reports in every rendering.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	scenarios := testMatrix(t)
	if len(scenarios) < 40 {
		t.Fatalf("matrix expands to %d scenarios, want >= 40", len(scenarios))
	}
	type rendering struct{ json, csv, table []byte }
	render := func(workers int) rendering {
		rep, err := Sweep(scenarios, Options{Workers: workers, BaseSeed: 42})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := rep.Err(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		j, err := rep.JSON()
		if err != nil {
			t.Fatalf("workers=%d: json: %v", workers, err)
		}
		c, err := rep.CSV()
		if err != nil {
			t.Fatalf("workers=%d: csv: %v", workers, err)
		}
		return rendering{json: j, csv: c, table: []byte(rep.String())}
	}
	base := render(1)
	for _, workers := range []int{2, 4, 16} {
		got := render(workers)
		if !bytes.Equal(base.json, got.json) {
			t.Errorf("JSON report differs between 1 and %d workers", workers)
		}
		if !bytes.Equal(base.csv, got.csv) {
			t.Errorf("CSV report differs between 1 and %d workers", workers)
		}
		if !bytes.Equal(base.table, got.table) {
			t.Errorf("table report differs between 1 and %d workers", workers)
		}
	}
}

// bandCase is one built-in band, possibly overridden the way cmd/sweep
// overrides it (replace a field of a named band, then Expand): it keeps
// its scenario count, first and last IDs, and one of its scenarios runs
// to completion.
type bandCase struct {
	name        string
	band        bandfile.Band
	size        int
	first, last string
	// run is the scenario run end to end; empty means the first.
	run    string
	params map[string]string
}

// namedBand returns the built-in band called name with override, if
// any, applied.
func namedBand(t *testing.T, name string, override func(*bandfile.Band)) bandfile.Band {
	t.Helper()
	b, ok := NamedBand(name)
	if !ok {
		t.Fatalf("no built-in band %q", name)
	}
	if override != nil {
		override(&b)
	}
	return b
}

// churnID is the fixed workload part of every churn scenario ID.
const churnID = "/subs=4/res=2/cycles=4/loss=0/deadline=8s/crash="

func checkBandCases(t *testing.T, cases ...bandCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			scenarios := mustExpand(t, tc.band)
			if len(scenarios) != tc.size {
				t.Fatalf("expands to %d scenarios, want %d", len(scenarios), tc.size)
			}
			if first, last := scenarios[0].ID, scenarios[len(scenarios)-1].ID; first != tc.first || last != tc.last {
				t.Fatalf("IDs run %q … %q, want %q … %q", first, last, tc.first, tc.last)
			}
			for k, v := range tc.params {
				if got := scenarios[0].Params[k]; got != v {
					t.Errorf("Params[%q] = %q, want %q", k, got, v)
				}
			}
			sc := scenarios[0]
			if tc.run != "" {
				i := slices.IndexFunc(scenarios, func(s Scenario) bool { return s.ID == tc.run })
				if i < 0 {
					t.Fatalf("scenario %q not in band", tc.run)
				}
				sc = scenarios[i]
			}
			out, err := sc.Run(DeriveSeed(42, sc.ID))
			if err != nil {
				t.Fatalf("run %s: %v", sc.ID, err)
			}
			if tc.band.Kind == bandfile.KindMatrix && (out.Metrics["completed"] != out.Metrics["expected"] || out.Metrics["completed"] == 0) {
				t.Fatalf("scenario %s incomplete: %v", sc.ID, out.Metrics)
			}
		})
	}
}

// TestNamedBands pins the default and churn entries of the built-in
// band table.
func TestNamedBands(t *testing.T) {
	checkBandCases(t,
		bandCase{
			name: "default", band: namedBand(t, "default", nil), size: 120,
			first: "mw-callback/subs=2/res=2/cycles=6/loss=0",
			last:  "mda-queue-mq-like/subs=32/res=2/cycles=6/loss=0.1",
		},
		bandCase{
			name: "churn", band: namedBand(t, "churn", nil), size: 108,
			first: "mw-callback" + churnID + "0.5/mttr=50ms",
			last:  "mda-queue-mq-like" + churnID + "5/mttr=500ms",
		},
	)
}

// TestBandSpec pins the matrix override path: every overridden field of
// a named band reaches the expanded scenario's Params.
func TestBandSpec(t *testing.T) {
	checkBandCases(t, bandCase{
		name: "matrix override",
		band: namedBand(t, "default", func(b *bandfile.Band) {
			b.Solutions = []string{"proto-token"}
			b.Clients = []int{5}
			b.Resources = []int{3}
			b.Loss = []float64{0.02}
			b.Cycles = 2
		}),
		size:   1,
		first:  "proto-token/subs=5/res=3/cycles=2/loss=0.02",
		last:   "proto-token/subs=5/res=3/cycles=2/loss=0.02",
		params: map[string]string{"solution": "proto-token", "subscribers": "5", "resources": "3", "cycles": "2", "loss": "0.02"},
	})
}

// TestLargeClientBand pins the shape of the large-deployment band (10
// solutions × {64,128,256} × loss {0,1%}; the CI smoke runs the same
// band through cmd/sweep) and that one of its heaviest scenarios
// actually executes.
func TestLargeClientBand(t *testing.T) {
	checkBandCases(t, bandCase{
		name: "large", band: namedBand(t, "large", nil), size: 60,
		first: "mw-callback/subs=64/res=2/cycles=4/loss=0",
		last:  "mda-queue-mq-like/subs=256/res=2/cycles=4/loss=0.01",
		run:   "proto-callback/subs=256/res=2/cycles=4/loss=0",
	})
}

// TestFigureScenariosDeterministic runs the figure regenerations through
// the sweep twice at different worker counts and compares the rendered
// figures.
func TestFigureScenariosDeterministic(t *testing.T) {
	scenarios := FigureScenarios(experiments.All())
	run := func(workers int) []byte {
		rep, err := Sweep(scenarios, Options{Workers: workers, BaseSeed: 42})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := rep.Err(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		j, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	if !bytes.Equal(run(1), run(4)) {
		t.Fatal("figure sweep differs between 1 and 4 workers")
	}
}

// TestWorkloadScenarioSeedOverride pins the contract that the derived
// seed, not cfg.Seed, drives the run.
func TestWorkloadScenarioSeedOverride(t *testing.T) {
	cfg := floorcontrol.Config{Solution: "mw-callback", Seed: 999}
	sc := WorkloadScenario(cfg)
	out1, err := sc.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := sc.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(out1.Metrics) != fmt.Sprint(out2.Metrics) {
		t.Fatal("equal seeds produced different outcomes")
	}
	direct, err := floorcontrol.RunWorkload(floorcontrol.Config{Solution: "mw-callback", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if out1.Metrics["net_msgs"] != float64(direct.NetMessages) {
		t.Fatalf("scenario ignored the handed seed: %v vs %d", out1.Metrics["net_msgs"], direct.NetMessages)
	}
}

// TestMatrixSizeMatchesExpansion pins that a matrix band expands to the
// full cross product of its dimensions, with no repeated scenario ID.
func TestMatrixSizeMatchesExpansion(t *testing.T) {
	scenarios := testMatrix(t)
	if want := 10 * 2 * 2; len(scenarios) != want {
		t.Fatalf("matrix band expands to %d scenarios, want %d", len(scenarios), want)
	}
	seen := make(map[string]struct{})
	for _, s := range scenarios {
		if _, dup := seen[s.ID]; dup {
			t.Fatalf("duplicate scenario ID %q", s.ID)
		}
		seen[s.ID] = struct{}{}
	}
}

func TestTotalMetric(t *testing.T) {
	rep := &SweepReport{Scenarios: []ScenarioResult{
		{ID: "a", Outcome: Outcome{Metrics: map[string]float64{"kernel_events": 10, "other": 1}}},
		{ID: "b", Outcome: Outcome{Metrics: map[string]float64{"kernel_events": 32}}},
		{ID: "c"}, // no metrics at all
	}}
	if got := rep.TotalMetric("kernel_events"); got != 42 {
		t.Fatalf("TotalMetric(kernel_events) = %v, want 42", got)
	}
	if got := rep.TotalMetric("absent"); got != 0 {
		t.Fatalf("TotalMetric(absent) = %v, want 0", got)
	}
}

// TestWallTimeOnlyInTableString pins that wall time is recorded per
// scenario but never leaks into the byte-compared renderings.
func TestWallTimeOnlyInTableString(t *testing.T) {
	sc := Scenario{ID: "w", Run: func(seed int64) (Outcome, error) {
		return Outcome{Metrics: map[string]float64{"m": 1}}, nil
	}}
	rep, err := Sweep([]Scenario{sc}, Options{Workers: 1, BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scenarios[0].WallNanos <= 0 {
		t.Fatal("scenario wall time not recorded")
	}
	j, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(j), "Wall") || strings.Contains(string(j), "wall") {
		t.Fatalf("wall time leaked into JSON: %s", j)
	}
	if got := rep.String(); strings.Contains(got, "wall") {
		t.Fatalf("wall column in the deterministic table rendering:\n%s", got)
	}
	if got := rep.TableString(true); !strings.Contains(got, "wall") {
		t.Fatalf("wall column missing from TableString(true):\n%s", got)
	}
}
