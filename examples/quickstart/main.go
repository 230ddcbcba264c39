// Quickstart: run one floor-control solution and check it against the
// service definition — the smallest end-to-end use of the library. Every
// solution programs against the service concept: protocol solutions via
// core.Provider, middleware solutions via typed internal/svc ports.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/floorcontrol"
)

func main() {
	// The floor-control service definition (paper, Figure 5): three
	// primitives and their local/remote constraints.
	spec := floorcontrol.Spec()
	fmt.Println(spec.Document())

	// Execute the callback protocol solution (Figure 6(a)) under a small
	// workload: 3 subscribers × 5 acquire/hold/release cycles over 2
	// shared resources, on a simulated 1ms network.
	var tr core.Trace
	res, err := floorcontrol.RunWorkload(floorcontrol.Config{
		Solution: "proto-callback",
		Seed:     1,
		Trace:    &tr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}

	fmt.Printf("completed %d/%d cycles in %v of virtual time\n",
		res.Completed, res.Expected, res.VirtualDuration)
	fmt.Printf("acquire latency: %s\n", res.AcquireLatency.Summary())
	fmt.Printf("wire footprint: %d PDUs, %d datagrams, %d bytes\n",
		res.ParadigmMessages, res.NetMessages, res.NetBytes)
	if res.ConformanceErr != nil {
		fmt.Println("conformance: VIOLATION —", res.ConformanceErr)
		os.Exit(1)
	}
	fmt.Printf("conformance: every one of the %d observed primitives satisfied the service constraints\n",
		len(tr))
}
