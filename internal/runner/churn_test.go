package runner

import (
	"testing"

	"repro/internal/bandfile"
)

// TestChurnBandSize pins the band's shape: ten solutions × 3 crash
// rates × 3 MTTRs under no-rebind, plus the two failover-capable
// solutions again under the failover policy.
func TestChurnBandSize(t *testing.T) {
	scenarios := ChurnBand(0)
	const want = 10*3*3 + 2*3*3
	if len(scenarios) != want {
		t.Fatalf("churn band has %d scenarios, want %d", len(scenarios), want)
	}
	seen := make(map[string]struct{}, len(scenarios))
	failover := 0
	for _, s := range scenarios {
		if _, dup := seen[s.ID]; dup {
			t.Fatalf("duplicate scenario ID %q", s.ID)
		}
		seen[s.ID] = struct{}{}
		if s.Params["rebind"] == "failover" {
			failover++
		}
	}
	if failover != 2*3*3 {
		t.Fatalf("%d failover scenarios, want %d", failover, 2*3*3)
	}
}

// TestChurnBandGate is the conformance gate over the whole band: every
// scenario must run to completion with zero safety violations
// (safety_ok = 1). Availability below one is the expected signal, not a
// failure — but across the band crashes must actually fire and some
// scenarios must lose availability, or the band is not exercising churn
// at all. (A single low-rate scenario may legitimately complete before
// its first scheduled crash, so the stress floor is band-level.)
func TestChurnBandGate(t *testing.T) {
	report, err := Sweep(ChurnBand(0), Options{Workers: 8, BaseSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Err(); err != nil {
		t.Fatal(err)
	}
	degraded, crashes := 0, 0.0
	for _, r := range report.Scenarios {
		m := r.Outcome.Metrics
		if m["safety_ok"] != 1 {
			t.Errorf("%s: safety_ok = %v", r.ID, m["safety_ok"])
		}
		crashes += m["crashes"]
		if m["availability"] < 1 {
			degraded++
		}
	}
	if crashes == 0 {
		t.Error("no crashes fired anywhere in the band")
	}
	if degraded == 0 {
		t.Error("no scenario lost availability; the band is not stressing anything")
	}
}

// TestChurnBandDeterminism: the churn band CSV is byte-identical across
// worker counts and matches the recorded golden — crashes, retries, and
// failovers ride the same deterministic kernel as everything else.
func TestChurnBandDeterminism(t *testing.T) {
	h1 := sweepCSVHash(t, ChurnBand(0), 1)
	if h1 != goldenChurnBandCSV {
		t.Fatalf("churn band CSV hash = %s, want %s", h1, goldenChurnBandCSV)
	}
	if h8 := sweepCSVHash(t, ChurnBand(0), 8); h8 != h1 {
		t.Fatalf("churn band CSV diverges across workers: 1 → %s, 8 → %s", h1, h8)
	}
}

// TestChurnBandWithOverrides: an explicit crash-rate dimension reshapes
// the churn band, and the reshaped scenarios sweep clean.
func TestChurnBandWithOverrides(t *testing.T) {
	band := namedBand(t, "churn", func(b *bandfile.Band) { b.Crash = []float64{1} })
	checkBandCases(t, bandCase{
		name: "churn override", band: band, size: 12 * 3,
		first: "mw-callback" + churnID + "1/mttr=50ms",
		last:  "mda-queue-mq-like" + churnID + "1/mttr=500ms",
	})
	report, err := Sweep(mustExpand(t, band)[:3], Options{Workers: 3, BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Err(); err != nil {
		t.Fatal(err)
	}
}
