package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunAll verifies every solution at 2 subscribers × 1 resource: the
// compiled service LTS has the size of the hand-built one it replaced,
// and each of the ten solutions passes both the online and the offline
// check over its 18 events (3 cycles × 2 subscribers × 3 primitives).
func TestRunAll(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-all"}, &out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, &out)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if want := "service LTS: 8 states, 14 transitions (for 2 subscribers × 1 resources)"; lines[0] != want {
		t.Fatalf("first line %q, want %q", lines[0], want)
	}
	verdicts := 0
	for _, l := range lines {
		if !strings.Contains(l, "events=") {
			continue
		}
		verdicts++
		f := strings.Fields(l)
		if len(f) != 4 || f[1] != "events=18" || f[2] != "online(constraints)=pass" || f[3] != "offline(trace⊑LTS)=pass" {
			t.Errorf("verdict line %q", l)
		}
	}
	if verdicts != 10 {
		t.Fatalf("%d verdict lines, want 10:\n%s", verdicts, &out)
	}
	if last := lines[len(lines)-1]; last != "all verifications passed" {
		t.Fatalf("last line %q", last)
	}
}

// TestRunFlagErrors: -h exits 0, and an unknown flag or a count ≤ 0
// exits 2, each before anything is verified.
func TestRunFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{{[]string{"-h"}, 0}, {[]string{"-nosuch"}, 2}, {[]string{"-subs", "0"}, 2}} {
		var out bytes.Buffer
		if code := run(tc.args, &out); code != tc.code || out.Len() != 0 {
			t.Errorf("%v: exit %d, output %q", tc.args, code, &out)
		}
	}
}

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
