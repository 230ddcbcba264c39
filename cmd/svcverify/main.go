// Command svcverify performs the formal assessment the paper calls for:
// it executes a floor-control solution (middleware solutions run over
// typed internal/svc service ports, protocol solutions over the
// core.Provider boundary), checks the run online against the service
// constraints, and checks the recorded trace offline against the
// service LTS compiled from the same constraints (trace refinement).
//
// Usage:
//
//	svcverify -solution proto-token
//	svcverify -solution mw-polling -subs 2 -resources 1 -cycles 4
//	svcverify -all
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/floorcontrol"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("svcverify", flag.ContinueOnError)
	solution := fs.String("solution", "proto-callback", "solution to verify")
	subs := fs.Int("subs", 2, "subscribers (LTS state space is exponential; keep small)")
	resources := fs.Int("resources", 1, "resources")
	cycles := fs.Int("cycles", 3, "cycles per subscriber")
	seed := fs.Int64("seed", 1, "simulation seed")
	all := fs.Bool("all", false, "verify every solution, including the MDA trajectory deployments")
	dot := fs.Bool("dot", false, "print the service LTS in Graphviz dot format and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if err := checkFlags(*subs, *resources, *cycles); err != nil {
		fmt.Fprintf(os.Stderr, "svcverify: %v\n", err)
		return 2
	}
	names := []string{*solution}
	if *all {
		names = names[:0]
		for _, s := range floorcontrol.Solutions() {
			names = append(names, s.Name())
		}
		for _, s := range floorcontrol.MDASolutions() {
			names = append(names, s.Name())
		}
	}

	spec, err := floorcontrol.SafetyLTS(
		floorcontrol.SubscriberNames(*subs),
		floorcontrol.ResourceNames(*resources))
	if err != nil {
		fmt.Fprintf(os.Stderr, "svcverify: %v\n", err)
		return 1
	}
	if *dot {
		fmt.Fprint(stdout, spec.DOT())
		return 0
	}
	fmt.Fprintf(stdout, "service LTS: %d states, %d transitions (for %d subscribers × %d resources)\n\n",
		spec.NumStates(), spec.NumTransitions(), *subs, *resources)

	failures := 0
	for _, name := range names {
		var tr core.Trace
		res, err := floorcontrol.RunWorkload(floorcontrol.Config{
			Solution:    name,
			Subscribers: *subs,
			Resources:   *resources,
			Cycles:      *cycles,
			Seed:        *seed,
			Trace:       &tr,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "svcverify: %s: %v\n", name, err)
			failures++
			continue
		}
		online := "pass"
		if res.ConformanceErr != nil {
			online = "FAIL: " + res.ConformanceErr.Error()
		}
		offline := "pass"
		labels := tr.Labels()
		rejected := spec.FirstRejected(labels)
		if rejected >= 0 {
			offline = fmt.Sprintf("FAIL at %v", labels[:rejected+1])
		}
		fmt.Fprintf(stdout, "%-22s events=%-4d online(constraints)=%s offline(trace⊑LTS)=%s\n",
			name, len(tr), online, offline)
		if res.ConformanceErr != nil || rejected >= 0 {
			failures++
		}
	}
	if failures > 0 {
		fmt.Fprintf(stdout, "\n%d verification failure(s)\n", failures)
		return 1
	}
	fmt.Fprintln(stdout, "\nall verifications passed")
	return 0
}

// checkFlags rejects counts ≤ 0: the service LTS would be built over
// them while RunWorkload silently ran its defaults instead.
func checkFlags(subs, resources, cycles int) error {
	for _, f := range []struct {
		name string
		v    int
	}{{"subs", subs}, {"resources", resources}, {"cycles", cycles}} {
		if f.v <= 0 {
			return fmt.Errorf("-%s: value %d is not positive", f.name, f.v)
		}
	}
	return nil
}
