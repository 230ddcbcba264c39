// Command svcverify performs the formal assessment the paper calls for:
// it executes a floor-control solution (middleware solutions run over
// typed internal/svc service ports, protocol solutions over the
// core.Provider boundary), checks the run online against the service
// constraints, and checks the recorded trace offline against the
// generated service LTS (trace refinement).
//
// Usage:
//
//	svcverify -solution proto-token
//	svcverify -solution mw-polling -subs 2 -resources 1 -cycles 4
//	svcverify -all
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/floorcontrol"
	"repro/internal/lts"
)

func main() {
	os.Exit(run())
}

func run() int {
	solution := flag.String("solution", "proto-callback", "solution to verify")
	subs := flag.Int("subs", 2, "subscribers (LTS state space is exponential; keep small)")
	resources := flag.Int("resources", 1, "resources")
	cycles := flag.Int("cycles", 3, "cycles per subscriber")
	seed := flag.Int64("seed", 1, "simulation seed")
	all := flag.Bool("all", false, "verify every solution, including the MDA trajectory deployments")
	dot := flag.Bool("dot", false, "print the service LTS in Graphviz dot format and exit")
	flag.Parse()

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

	spec := floorcontrol.ServiceLTS(
		floorcontrol.SubscriberNames(*subs),
		floorcontrol.ResourceNames(*resources))
	if *dot {
		fmt.Print(spec.DOT())
		return 0
	}
	fmt.Printf("service LTS: %d states, %d transitions (for %d subscribers × %d resources)\n\n",
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
		impl := traceLTS(res.Solution, tr)
		r := lts.TraceRefines(impl, spec)
		if !r.Holds {
			offline = fmt.Sprintf("FAIL at %v", r.Counterexample)
		}
		fmt.Printf("%-22s events=%-4d online(constraints)=%s offline(trace⊑LTS)=%s (explored %d product states)\n",
			name, len(tr), online, offline, r.StatesExplored)
		if res.ConformanceErr != nil || !r.Holds {
			failures++
		}
	}
	if failures > 0 {
		fmt.Printf("\n%d verification failure(s)\n", failures)
		return 1
	}
	fmt.Println("\nall verifications passed")
	return 0
}

// traceLTS turns an executed trace into a linear LTS for refinement.
func traceLTS(solution string, tr core.Trace) *lts.LTS {
	b := lts.NewBuilder(solution + "-trace")
	prev := b.State("t0")
	for i, label := range tr.Labels() {
		next := b.State(fmt.Sprintf("t%d", i+1))
		b.Transition(prev, label, next)
		prev = next
	}
	b.Final(prev)
	return b.MustBuild()
}
