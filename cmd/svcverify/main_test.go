package main

import (
	"strings"
	"testing"
)

// TestCheckFlags pins that svcverify rejects counts ≤ 0 instead of
// checking a run of the workload defaults against an LTS built over the
// given counts (which reported a false refinement failure for -subs 0).
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		subs, resources, cycles int
		want                    string // "" means accepted
	}{
		{2, 1, 3, ""},
		{0, 1, 3, "-subs"},
		{-1, 1, 3, "-subs"},
		{2, 0, 3, "-resources"},
		{2, 1, 0, "-cycles"},
	}
	for _, tc := range cases {
		err := checkFlags(tc.subs, tc.resources, tc.cycles)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%+v rejected: %v", tc, err)
			}
			continue
		}
		if err == nil || !strings.HasPrefix(err.Error(), tc.want+":") {
			t.Errorf("%+v: error %v, want one naming %s", tc, err, tc.want)
		}
	}
}
