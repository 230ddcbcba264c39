package main

import (
	"strings"
	"testing"
)

// TestCheckFlags pins that floorctl rejects the values RunWorkload would
// silently replace with its defaults, naming the offending flag.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		subs, resources, cycles int
		loss                    float64
		want                    string // "" means accepted
	}{
		{3, 2, 5, 0, ""},
		{1, 1, 1, 0.99, ""},
		{0, 2, 5, 0, "-subs"},
		{-2, 2, 5, 0, "-subs"},
		{3, 0, 5, 0, "-resources"},
		{3, 2, 0, 0, "-cycles"},
		{3, 2, 5, 1, "-loss"},
		{3, 2, 5, -0.1, "-loss"},
	}
	for _, tc := range cases {
		err := checkFlags(tc.subs, tc.resources, tc.cycles, tc.loss)
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
