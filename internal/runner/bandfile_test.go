package runner

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bandfile"
)

func readBandFile(t *testing.T, name string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "bands", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// TestBandFileDefaultBandGolden pins the declarative layer end to end:
// the committed default.band expands to the exact scenario list of
// DefaultBand(), so its sweep CSV is byte-identical to the recorded
// golden — at one worker and at eight.
func TestBandFileDefaultBandGolden(t *testing.T) {
	scenarios, err := BandFileScenarios(readBandFile(t, "default.band"))
	if err != nil {
		t.Fatal(err)
	}
	if want := len(DefaultBand().Scenarios()); len(scenarios) != want {
		t.Fatalf("default.band expands to %d scenarios, want %d", len(scenarios), want)
	}
	if got := sweepCSVHash(t, scenarios, 1); got != goldenDefaultBandCSV {
		t.Fatalf("default.band CSV hash (1 worker) = %s, want %s", got, goldenDefaultBandCSV)
	}
	if testing.Short() {
		return
	}
	if got := sweepCSVHash(t, scenarios, 8); got != goldenDefaultBandCSV {
		t.Fatalf("default.band CSV hash (8 workers) = %s, want %s", got, goldenDefaultBandCSV)
	}
}

// scenarioIDs projects a scenario list to its identity sequence.
func scenarioIDs(scens []Scenario) []string {
	out := make([]string, len(scens))
	for i, s := range scens {
		out[i] = s.ID
	}
	return out
}

// TestBandFileChurnEquivalence pins that the committed churn.band
// expands to exactly the built-in churn band: same scenarios, same
// order, so the sweep output is byte-identical by construction
// (scenario IDs determine derived seeds and row order).
func TestBandFileChurnEquivalence(t *testing.T) {
	scenarios, err := BandFileScenarios(readBandFile(t, "churn.band"))
	if err != nil {
		t.Fatal(err)
	}
	want := scenarioIDs(ChurnBand(0))
	got := scenarioIDs(scenarios)
	if len(got) != len(want) {
		t.Fatalf("churn.band expands to %d scenarios, built-in band has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("scenario %d: churn.band %q, built-in %q", i, got[i], want[i])
		}
	}
}

// TestBandFileChurnOverrides pins that a churn band file with explicit
// dimensions expands to what cmd/sweep's -crash and -mttr overrides of
// the built-in churn band expand to.
func TestBandFileChurnOverrides(t *testing.T) {
	src := `band churn {
  kind churn
  crash 1, 10
  mttr 100 ms
}
`
	scenarios, err := BandFileScenarios(src)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NamedBand("churn")
	b.Crash = []float64{1, 10}
	b.MTTR = []time.Duration{100 * time.Millisecond}
	want := scenarioIDs(mustExpand(t, b))
	got := scenarioIDs(scenarios)
	if len(got) != 12*2 || len(got) != len(want) {
		t.Fatalf("override band expands to %d scenarios, flags to %d, want %d", len(got), len(want), 12*2)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("scenario %d: file %q, flags %q", i, got[i], want[i])
		}
	}
}

// TestBandFileMultipleBands pins that a file's bands concatenate in
// declaration order.
func TestBandFileMultipleBands(t *testing.T) {
	src := `band first {
  solutions mw-token
  clients 2
  loss 0
}
band second {
  solutions proto-token
  clients 3
  loss 0
}
`
	scenarios, err := BandFileScenarios(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 2 {
		t.Fatalf("got %d scenarios, want 2", len(scenarios))
	}
	one := func(sol string, clients int) string {
		return mustExpand(t, bandfile.Band{Kind: bandfile.KindMatrix, Solutions: []string{sol}, Clients: []int{clients}, Loss: []float64{0}})[0].ID
	}
	first, second := one("mw-token", 2), one("proto-token", 3)
	if scenarios[0].ID != first || scenarios[1].ID != second {
		t.Fatalf("bands out of order: got [%s %s], want [%s %s]",
			scenarios[0].ID, scenarios[1].ID, first, second)
	}
}

// TestExpandRejectsMisplacedStatements pins that Expand, not the band
// file parser, rejects a statement the band's kind does not take, so
// Go-built and flag-built bands get the same check as files.
func TestExpandRejectsMisplacedStatements(t *testing.T) {
	matrix, _ := NamedBand("default")
	churn, _ := NamedBand("churn")
	cases := []struct {
		name     string
		band     bandfile.Band
		override func(*bandfile.Band)
		want     string
	}{
		{"crash in matrix", matrix, func(b *bandfile.Band) { b.Crash = []float64{1} }, "crash: only applies to churn bands"},
		{"mttr in matrix", matrix, func(b *bandfile.Band) { b.MTTR = []time.Duration{time.Second} }, "mttr: only applies to churn bands"},
		{"rebind in matrix", matrix, func(b *bandfile.Band) { b.Rebind = []string{"none"} }, "rebind: only applies to churn bands"},
		{"deadline in matrix", matrix, func(b *bandfile.Band) { b.Deadline = time.Second }, "deadline: only applies to churn bands"},
		{"cycles in churn", churn, func(b *bandfile.Band) { b.Cycles = 3 }, "cycles: churn bands fix the workload shape"},
		{"negative cycles", matrix, func(b *bandfile.Band) { b.Cycles = -1 }, "cycles: -1: not positive"},
		{"no kind", matrix, func(b *bandfile.Band) { b.Kind = "" }, "unknown kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.band
			tc.override(&b)
			_, err := Expand(b)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Expand error %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}

// TestBandFileErrors pins the validation error paths: the same rules
// the cmd/sweep dimension flags enforce, applied to file input.
func TestBandFileErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{
			name: "unknown solution",
			src:  "band b {\n  solutions no-such-solution\n}\n",
			want: "unknown solution",
		},
		{
			name: "duplicate solution",
			src:  "band b {\n  solutions mw-token, mw-token\n}\n",
			want: "duplicate value",
		},
		{
			name: "zero clients",
			src:  "band b {\n  clients 0\n}\n",
			want: "not positive",
		},
		{
			name: "duplicate clients",
			src:  "band b {\n  clients 2, 2\n}\n",
			want: "duplicate value",
		},
		{
			name: "loss out of range",
			src:  "band b {\n  loss 1.5\n}\n",
			want: "outside [0, 1)",
		},
		{
			name: "churn statement in matrix band",
			src:  "band b {\n  crash 1\n}\n",
			want: "only applies to churn bands",
		},
		{
			name: "malformed dimension",
			src:  "band b {\n  clients two\n}\n",
			want: "expected number",
		},
		{
			name: "unknown statement",
			src:  "band b {\n  gremlins 3\n}\n",
			want: "unknown statement",
		},
		{
			name: "empty file",
			src:  "# nothing here\n",
			want: "no bands",
		},
		{
			name: "duplicate band name",
			src:  "band b {\n}\nband b {\n}\n",
			want: "declared twice",
		},
		{
			name: "zero crash rate",
			src:  "band b {\n  kind churn\n  crash 0\n}\n",
			want: "not positive",
		},
		{
			name: "duplicate mttr",
			src:  "band b {\n  kind churn\n  mttr 50 ms, 50 ms\n}\n",
			want: "duplicate value",
		},
		{
			name: "failover on incapable solution",
			src:  "band b {\n  kind churn\n  solutions proto-callback\n  rebind failover\n}\n",
			want: "does not support failover",
		},
		{
			name: "unknown rebind policy",
			src:  "band b {\n  kind churn\n  rebind sometimes\n}\n",
			want: "unknown policy",
		},
		{
			name: "shaped churn band",
			src:  "band b {\n  kind churn\n  clients 8\n}\n",
			want: "fix the workload shape",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := BandFileScenarios(tc.src)
			if err == nil {
				t.Fatal("invalid band file accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
