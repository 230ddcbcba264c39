// Command floorctl runs one floor-control solution under a configurable
// workload and reports its measured footprint and conformance verdict.
// Middleware solutions execute against typed service ports
// (internal/svc); protocol solutions against the core.Provider service
// boundary — the same workload driver exercises both.
//
// Usage:
//
//	floorctl -solution proto-callback -subs 4 -resources 2 -cycles 6
//	floorctl -solution mda-queue-mq-like -loss 0.2 -trace
//	floorctl -list
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/floorcontrol"
)

func main() {
	os.Exit(run())
}

func run() int {
	solution := flag.String("solution", "proto-callback", "solution name (see -list)")
	subs := flag.Int("subs", 3, "number of subscribers")
	resources := flag.Int("resources", 2, "number of shared resources")
	cycles := flag.Int("cycles", 5, "acquire/hold/release cycles per subscriber")
	think := flag.Duration("think", 20*time.Millisecond, "mean think time")
	hold := flag.Duration("hold", 10*time.Millisecond, "mean hold time")
	poll := flag.Duration("poll", 10*time.Millisecond, "poll interval (polling solutions)")
	hop := flag.Duration("hop", 2*time.Millisecond, "token hop delay (token solutions)")
	latency := flag.Duration("latency", time.Millisecond, "link latency")
	loss := flag.Float64("loss", 0, "datagram loss rate [0,1)")
	seed := flag.Int64("seed", 1, "simulation seed")
	trace := flag.Bool("trace", false, "print the recorded service trace")
	list := flag.Bool("list", false, "list solution names and exit")
	flag.Parse()

	if *list {
		for _, s := range floorcontrol.Solutions() {
			fmt.Printf("%-16s %-12s %-9s %s\n", s.Name(), s.Paradigm(), s.Style(), s.Figure())
		}
		for _, s := range floorcontrol.MDASolutions() {
			fmt.Printf("%-16s %-12s %-9s %s\n", s.Name(), s.Paradigm(), s.Style(), s.Figure())
		}
		return 0
	}

	if err := checkFlags(*subs, *resources, *cycles, *loss); err != nil {
		fmt.Fprintf(os.Stderr, "floorctl: %v\n", err)
		return 2
	}
	var tr core.Trace
	res, err := floorcontrol.RunWorkload(floorcontrol.Config{
		Solution:      *solution,
		Subscribers:   *subs,
		Resources:     *resources,
		Cycles:        *cycles,
		ThinkTime:     *think,
		HoldTime:      *hold,
		PollInterval:  *poll,
		TokenHopDelay: *hop,
		Latency:       *latency,
		LossRate:      *loss,
		Seed:          *seed,
		Trace:         &tr,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "floorctl: %v\n", err)
		return 1
	}

	fmt.Printf("solution:          %s (%s paradigm, %s style, %s)\n", res.Solution, res.Paradigm, res.Style, res.Figure)
	fmt.Printf("cycles completed:  %d/%d\n", res.Completed, res.Expected)
	fmt.Printf("virtual duration:  %v\n", res.VirtualDuration.Round(time.Microsecond))
	fmt.Printf("acquire latency:   %s\n", res.AcquireLatency.Summary())
	fmt.Printf("paradigm messages: %d\n", res.ParadigmMessages)
	fmt.Printf("network messages:  %d (%d bytes)\n", res.NetMessages, res.NetBytes)
	fmt.Printf("kernel events:     %d\n", res.KernelEvents)
	fmt.Printf("fairness (Jain):   %.3f across %d subscribers\n", res.FairnessIndex, len(res.LatencyBySubscriber))
	sc := res.Scattering
	fmt.Printf("scattering:        app=%d controller=%d system=%d index=%.2f\n",
		sc.AppPartOps, sc.ControllerOps, sc.InteractionSystemOps, sc.Index())
	if res.ConformanceErr != nil {
		fmt.Printf("conformance:       VIOLATION — %v\n", res.ConformanceErr)
	} else {
		fmt.Printf("conformance:       conforms (%d events checked online)\n", len(tr))
	}
	if *trace {
		fmt.Println("\nservice trace:")
		fmt.Print(tr)
	}
	if res.ConformanceErr != nil || res.Completed != res.Expected {
		return 1
	}
	return 0
}

// checkFlags rejects the workload values RunWorkload would silently
// replace with its defaults (counts ≤ 0) and loss rates outside [0, 1).
func checkFlags(subs, resources, cycles int, loss float64) error {
	for _, f := range []struct {
		name string
		v    int
	}{{"subs", subs}, {"resources", resources}, {"cycles", cycles}} {
		if f.v <= 0 {
			return fmt.Errorf("-%s: value %d is not positive", f.name, f.v)
		}
	}
	if loss < 0 || loss >= 1 {
		return fmt.Errorf("-loss: rate %g is outside [0, 1)", loss)
	}
	return nil
}
