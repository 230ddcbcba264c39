package main

import (
	"bytes"
	"strings"
	"testing"
)

// sweep runs the command with args, CSV output and no run summary, and
// returns its exit code, stdout, and stderr.
func sweep(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"-quiet", "-format", "csv"}, args...), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestFlagsAppliedOrRejected pins that every flag either reshapes the
// selected band or exits 2 naming itself; none is silently ignored.
func TestFlagsAppliedOrRejected(t *testing.T) {
	cases := []struct {
		args []string
		code int
		// want is a substring of stderr (code 2) or of the CSV (code 0).
		want string
		rows int
	}{
		{[]string{"-band", "default", "-loss", "0"}, 0, "mda-queue-mq-like/subs=32/res=2/cycles=6/loss=0,", 30},
		{[]string{"-band", "large", "-solutions", "mw-token", "-clients", "64", "-loss", "0"}, 0, "mw-token/subs=64/res=2/cycles=4/loss=0,", 1},
		{[]string{"-band", "churn", "-solutions", "proto-callback", "-crash", "1", "-mttr", "100ms"}, 0, "proto-callback/subs=4/res=2/cycles=4/loss=0/deadline=8s/crash=1/mttr=100ms,", 1},
		{[]string{"-band", "churn", "-clients", "4"}, 2, "clients: churn bands fix the workload shape", 0},
		{[]string{"-band", "churn", "-cycles", "3"}, 2, "cycles: churn bands fix the workload shape", 0},
		{[]string{"-crash", "1"}, 2, "crash: only applies to churn bands", 0},
		{[]string{"-bandfile", "../../examples/bands/default.band", "-loss", "0"}, 2, "-loss does not apply to -bandfile", 0},
		{[]string{"-band", "xl", "-xlscale", "1024", "-loss", "0"}, 2, "-loss does not apply to -band xl", 0},
		{[]string{"-xlscale", "4", "-solutions", "mw-token", "-clients", "2", "-loss", "0"}, 2, "-xlscale only applies to -band xl", 0},
		{[]string{"-subs", "2"}, 2, "-subs", 0},
		{[]string{"-band", "churn", "-bandfile", "x.band"}, 2, "mutually exclusive", 0},
		{[]string{"-clients", "0"}, 2, "clients: 0: not positive", 0},
		{[]string{"-cycles", "0"}, 2, "-cycles: value 0 is not positive", 0},
		{[]string{"-cycles", "-1"}, 2, "cycles: -1: not positive", 0},
		{[]string{"-loss", "0.1,0.1"}, 2, "loss: 0.1: duplicate value", 0},
		{[]string{"-clients", "two"}, 2, "-clients:", 0},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			code, stdout, stderr := sweep(tc.args...)
			if code != tc.code {
				t.Fatalf("exit %d, want %d; stderr: %s", code, tc.code, stderr)
			}
			got := stderr
			if code == 0 {
				got = stdout
				if rows := strings.Count(stdout, "\n") - 1; rows != tc.rows {
					t.Errorf("%d scenario rows, want %d", rows, tc.rows)
				}
			}
			if !strings.Contains(got, tc.want) {
				t.Errorf("output does not mention %q:\n%s", tc.want, got)
			}
		})
	}
}

// TestDimensionFlagsReproduceBand pins that spelling the default band's
// dimensions as flags reproduces the no-flag report byte for byte.
func TestDimensionFlagsReproduceBand(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 120-scenario band twice")
	}
	code, want, stderr := sweep()
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	code, got, stderr := sweep("-clients", "2,8,32", "-loss", "0,0.01,0.05,0.1", "-cycles", "6")
	if code != 0 || got != want {
		t.Fatalf("exit %d, report differs from the no-flag run; stderr: %s", code, stderr)
	}
}
