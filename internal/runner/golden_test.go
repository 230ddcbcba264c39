package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// The golden hashes pin the machine-readable sweep output byte-for-byte
// across PRs: any change to workload semantics, seed derivation, metric
// naming, or CSV rendering shows up here as a hash mismatch. They were
// recorded from `sweep -format csv` (base seed 42) and must only be
// updated on a deliberate, documented output change.
const (
	goldenDefaultBandCSV = "36e197fa96a00e353f98f4150304a16f276b537b3b4d690384cbe543e493acec"
	goldenLargeBandCSV   = "8be6bcf615978d3616183648e2a1f567d9df295fd3a11fc3f24b2ada1cf1e0a4"
	goldenChurnBandCSV   = "05849407fb3b27d028290264fbab39fe1be66d2087148b7bf96f508362499834"
	goldenXL1024BandCSV  = "017d1f5419af220310b4914fa1b65d94c4229e0b0d1e1e4986c9ba9910a0441a"
)

// sweepCSVHash runs the scenarios under the given worker count with the
// CLI's default base seed and returns the SHA-256 of the CSV rendering.
func sweepCSVHash(t *testing.T, scenarios []Scenario, workers int) string {
	t.Helper()
	report, err := Sweep(scenarios, Options{Workers: workers, BaseSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Err(); err != nil {
		t.Fatal(err)
	}
	csv, err := report.CSV()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(csv)
	return hex.EncodeToString(sum[:])
}

// TestGoldenDefaultBandCSV pins the 120-scenario headline sweep: the
// CSV must be byte-identical to the recorded golden at one worker and
// at eight workers.
func TestGoldenDefaultBandCSV(t *testing.T) {
	spec := DefaultBand()
	if got := sweepCSVHash(t, spec.Scenarios(), 1); got != goldenDefaultBandCSV {
		t.Fatalf("default band CSV hash (1 worker) = %s, want %s", got, goldenDefaultBandCSV)
	}
	if testing.Short() {
		return
	}
	if got := sweepCSVHash(t, spec.Scenarios(), 8); got != goldenDefaultBandCSV {
		t.Fatalf("default band CSV hash (8 workers) = %s, want %s", got, goldenDefaultBandCSV)
	}
}

// TestGoldenLargeBandCSV pins the large-client band the same way.
func TestGoldenLargeBandCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("large band takes seconds; skipped in -short")
	}
	if got := sweepCSVHash(t, builtin("large").Scenarios(), 8); got != goldenLargeBandCSV {
		t.Fatalf("large band CSV hash = %s, want %s", got, goldenLargeBandCSV)
	}
}

// TestGoldenXLBandCSV pins the xl band scaled down by 1024 (the CI
// smoke size) at one and two workers.
func TestGoldenXLBandCSV(t *testing.T) {
	for _, workers := range []int{1, 2} {
		if got := sweepCSVHash(t, XLBand(1024), workers); got != goldenXL1024BandCSV {
			t.Fatalf("xl/1024 band CSV hash (%d workers) = %s, want %s", workers, got, goldenXL1024BandCSV)
		}
	}
}
