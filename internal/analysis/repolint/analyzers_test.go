package repolint_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/repolint"
)

// Each golden package under testdata/src pairs true positives with the
// nearest true negative and an //repolint:allow suppression, so these
// tests pin down both edges of every check.

func TestSimdeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", "repro/internal/sim", repolint.Simdeterminism)
}

// TestSimdeterminismSync proves the sync check's edges: a sync import
// in a simulated layer or in codec is reported, and the runner's is not.
func TestSimdeterminismSync(t *testing.T) {
	analysistest.Run(t, "testdata", "repro/internal/network", repolint.Simdeterminism)
	analysistest.Run(t, "testdata", "repro/internal/codec", repolint.Simdeterminism)
	analysistest.Run(t, "testdata", "repro/internal/runner", repolint.Simdeterminism)
}

// TestGeneratedFilesSkipped proves the generated-file exemption: a file
// with a standard "Code generated ... DO NOT EDIT." marker draws no
// diagnostics even inside the deterministic package set, while its
// hand-written sibling in the same package is checked as usual.
func TestGeneratedFilesSkipped(t *testing.T) {
	analysistest.Run(t, "testdata", "repro/internal/sim/gen", repolint.Simdeterminism)
}

// TestSimdeterminismScope proves the analyzer is scoped by import path:
// the same constructs draw no diagnostics outside the deterministic
// package set.
func TestSimdeterminismScope(t *testing.T) {
	analysistest.Run(t, "testdata", "example.com/free", repolint.Simdeterminism)
}

func TestMapiter(t *testing.T) {
	analysistest.Run(t, "testdata", "example.com/report", repolint.Mapiter)
}

func TestPoolalias(t *testing.T) {
	analysistest.Run(t, "testdata", "example.com/mw", repolint.Poolalias)
}

func TestHotpathalloc(t *testing.T) {
	analysistest.Run(t, "testdata", "example.com/hot", repolint.Hotpathalloc)
}

func TestAllowcheck(t *testing.T) {
	analysistest.Run(t, "testdata", "example.com/allowdecl", repolint.Allowcheck)
}

// TestAll pins the suite composition: five analyzers, stable order,
// every check name routed to the analyzer that implements it.
func TestAll(t *testing.T) {
	all := repolint.All()
	want := []string{"simdeterminism", "mapiter", "poolalias", "hotpathalloc", "allowcheck"}
	if len(all) != len(want) {
		t.Fatalf("All() returned %d analyzers, want %d", len(all), len(want))
	}
	byName := make(map[string]bool, len(all))
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("All()[%d] = %s, want %s", i, a.Name, want[i])
		}
		byName[a.Name] = true
	}
	for check, analyzer := range repolint.Checks {
		if !byName[analyzer] {
			t.Errorf("check %q maps to analyzer %q, which All() does not include", check, analyzer)
		}
	}
}
