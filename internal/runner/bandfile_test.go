package runner

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
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
	if want := DefaultBand().Size(); len(scenarios) != want {
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

// TestBandFileChurnOverrides pins the override path against
// ChurnBandWith with the same dimensions.
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
	want := scenarioIDs(ChurnBandWith([]float64{1, 10}, []time.Duration{100 * time.Millisecond}))
	got := scenarioIDs(scenarios)
	if len(got) != len(want) {
		t.Fatalf("override band expands to %d scenarios, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("scenario %d: file %q, ChurnBandWith %q", i, got[i], want[i])
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
	first := BandSpec{Solutions: []string{"mw-token"}, Clients: []int{2}, Loss: []float64{0}}.Scenarios()
	second := BandSpec{Solutions: []string{"proto-token"}, Clients: []int{3}, Loss: []float64{0}}.Scenarios()
	if scenarios[0].ID != first[0].ID || scenarios[1].ID != second[0].ID {
		t.Fatalf("bands out of order: got [%s %s], want [%s %s]",
			scenarios[0].ID, scenarios[1].ID, first[0].ID, second[0].ID)
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
