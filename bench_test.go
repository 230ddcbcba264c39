package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bandfile"
	"repro/internal/chat"
	"repro/internal/experiments"
	"repro/internal/floorcontrol"
	"repro/internal/runner"
)

// benchExperiment runs one figure generator per iteration. The benchmark
// time therefore measures the full regeneration cost of the figure; the
// figure's content (the paper-facing result) is printed once via
// cmd/benchfig or the experiments tests.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	gen, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gen(42); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// One bench target per paper figure (F1–F12) and ablation (A1–A3) — the
// regeneration entry points promised in DESIGN.md §3.

func BenchmarkFig1DistributedSystem(b *testing.B)     { benchExperiment(b, "F1") }
func BenchmarkFig2ProtocolParadigm(b *testing.B)      { benchExperiment(b, "F2") }
func BenchmarkFig3MiddlewareParadigm(b *testing.B)    { benchExperiment(b, "F3") }
func BenchmarkFig4MiddlewareSolutions(b *testing.B)   { benchExperiment(b, "F4") }
func BenchmarkFig5ServiceConformance(b *testing.B)    { benchExperiment(b, "F5") }
func BenchmarkFig6ProtocolSolutions(b *testing.B)     { benchExperiment(b, "F6") }
func BenchmarkFig7Scattering(b *testing.B)            { benchExperiment(b, "F7") }
func BenchmarkFig8MiddlewareView(b *testing.B)        { benchExperiment(b, "F8") }
func BenchmarkFig9InteractionSystemView(b *testing.B) { benchExperiment(b, "F9") }
func BenchmarkFig10Trajectory(b *testing.B)           { benchExperiment(b, "F10") }
func BenchmarkFig11Milestones(b *testing.B)           { benchExperiment(b, "F11") }
func BenchmarkFig12Recursion(b *testing.B)            { benchExperiment(b, "F12") }
func BenchmarkAblationPollingSweep(b *testing.B)      { benchExperiment(b, "A1") }
func BenchmarkAblationScaling(b *testing.B)           { benchExperiment(b, "A2") }
func BenchmarkAblationLoss(b *testing.B)              { benchExperiment(b, "A3") }

// BenchmarkSolutionWorkload benchmarks one standard workload per solution
// (all ten implementations), reporting simulated wire messages and
// acquisition latency as custom metrics so `go test -bench` output carries
// the paper-facing numbers alongside wall-clock cost.
func BenchmarkSolutionWorkload(b *testing.B) {
	names := make([]string, 0, 10)
	for _, s := range floorcontrol.Solutions() {
		names = append(names, s.Name())
	}
	for _, s := range floorcontrol.MDASolutions() {
		names = append(names, s.Name())
	}
	for _, name := range names {
		name := name
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var msgs, latencyUS float64
			for i := 0; i < b.N; i++ {
				res, err := floorcontrol.RunWorkload(floorcontrol.Config{
					Solution:    name,
					Subscribers: 4,
					Resources:   2,
					Cycles:      6,
					Seed:        42,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.ConformanceErr != nil {
					b.Fatalf("conformance: %v", res.ConformanceErr)
				}
				msgs = float64(res.NetMessages)
				latencyUS = float64(res.AcquireLatency.Mean()) / float64(time.Microsecond)
			}
			b.ReportMetric(msgs, "wire-msgs")
			b.ReportMetric(latencyUS, "acquire-µs")
		})
	}
}

// BenchmarkContentionSweep exercises the high-contention regime (the
// mutual-exclusion core of the paper's example) for the two flagship
// solutions.
func BenchmarkContentionSweep(b *testing.B) {
	for _, name := range []string{"mw-callback", "proto-callback"} {
		for _, subs := range []int{2, 4, 8} {
			b.Run(fmt.Sprintf("%s/subs-%d", name, subs), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := floorcontrol.RunWorkload(floorcontrol.Config{
						Solution:    name,
						Subscribers: subs,
						Resources:   1,
						Cycles:      4,
						Seed:        42,
					})
					if err != nil {
						b.Fatal(err)
					}
					if res.Completed != res.Expected {
						b.Fatalf("completed %d/%d", res.Completed, res.Expected)
					}
				}
			})
		}
	}
}

// BenchmarkCaseStudyChat exercises the second case study (ordered chat,
// internal/chat) on both implementation paths: the sequencer protocol and
// the PIM deployed through the MDA trajectory.
func BenchmarkCaseStudyChat(b *testing.B) {
	for _, platform := range []string{"", "rpc-corba-like", "queue-mq-like"} {
		name := "sequencer-protocol"
		if platform != "" {
			name = "mda-" + platform
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := chat.Run(chat.Config{
					Participants: 4,
					MessagesEach: 5,
					Seed:         42,
					Platform:     platform,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.ConformanceErr != nil {
					b.Fatal(res.ConformanceErr)
				}
			}
		})
	}
}

// BenchmarkCaseStudyChatReport regenerates the C1 case-study table.
func BenchmarkCaseStudyChatReport(b *testing.B) { benchExperiment(b, "C1") }

// sweepBenchMatrix is the fixed scenario matrix of the sweep benchmarks:
// all ten solutions × subscribers {2,4,8} × loss {0,5%} = 60 scenarios.
func sweepBenchMatrix(b *testing.B) []runner.Scenario {
	scenarios, err := runner.Expand(bandfile.Band{
		Name:    "sweep-bench",
		Kind:    bandfile.KindMatrix,
		Clients: []int{2, 4, 8},
		Loss:    []float64{0, 0.05},
		Cycles:  4,
	})
	if err != nil {
		b.Fatal(err)
	}
	return scenarios
}

// benchSweep runs the full 60-scenario matrix once per iteration on the
// given worker count (0 = GOMAXPROCS). BenchmarkSweepSequential vs
// BenchmarkSweepParallel is the headline parallel-runner comparison; the
// two aggregate bit-identical reports (see
// runner.TestSweepDeterministicAcrossWorkerCounts), so the benchmark pair
// isolates pure scheduling speedup.
func benchSweep(b *testing.B, workers int) {
	b.Helper()
	scenarios := sweepBenchMatrix(b)
	b.ReportAllocs()
	var kernelEvents float64
	for i := 0; i < b.N; i++ {
		rep, err := runner.Sweep(scenarios, runner.Options{Workers: workers, BaseSeed: 42})
		if err != nil {
			b.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			b.Fatal(err)
		}
		kernelEvents = rep.TotalMetric("kernel_events")
	}
	b.ReportMetric(float64(len(scenarios)), "scenarios")
	b.ReportMetric(kernelEvents, "kernel-events")
}

func BenchmarkSweepSequential(b *testing.B) { benchSweep(b, 1) }
func BenchmarkSweepParallel(b *testing.B)   { benchSweep(b, 0) }

// BenchmarkKernelEventThroughput is the macro view of the sim-kernel hot
// path the whole harness runs on: one full floor-control workload per
// iteration, reporting simulated kernel events per wall-clock second.
// The micro benchmarks (and the CI regression gate over them) live in
// internal/sim; this one shows what they buy end to end.
func BenchmarkKernelEventThroughput(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		res, err := floorcontrol.RunWorkload(floorcontrol.Config{
			Solution:    "proto-callback",
			Subscribers: 8,
			Resources:   2,
			Cycles:      6,
			Seed:        42,
		})
		if err != nil {
			b.Fatal(err)
		}
		events += res.KernelEvents
	}
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(events)/elapsed, "kernel-events/s")
	}
}

// BenchmarkXLFloor runs the XL band's floor-control scenario (the
// callback middleware solution of Fig. 4(a)) at 1/16 of its population —
// 6,250 clients, 128 resources, one cycle, the shape of perfbench's
// floor-xl — once per iteration on one sweep worker. `make
// profile-floor-xl` profiles it.
func BenchmarkXLFloor(b *testing.B) {
	var floor []runner.Scenario
	for _, sc := range runner.XLBand(16) {
		if sc.Params["solution"] == "mw-callback" {
			floor = append(floor, sc)
		}
	}
	if len(floor) != 1 {
		b.Fatalf("the XL band holds %d mw-callback scenarios, want 1", len(floor))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := runner.Sweep(floor, runner.Options{Workers: 1, BaseSeed: 42})
		if err != nil {
			b.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXLFanout runs the XL band's fan-out scenario at full
// population — 1,048,576 sinks on 16,384 subscriber nodes behind four
// leaf brokers, four events, the shape of perfbench's fanout-xl — once
// per iteration on one sweep worker. `make profile-fanout-xl` profiles
// it.
func BenchmarkXLFanout(b *testing.B) {
	var fan []runner.Scenario
	for _, sc := range runner.XLBand(1) {
		if sc.Params["workload"] == "fanout" {
			fan = append(fan, sc)
		}
	}
	if len(fan) != 1 {
		b.Fatalf("the XL band holds %d fan-out scenarios, want 1", len(fan))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := runner.Sweep(fan, runner.Options{Workers: 1, BaseSeed: 42})
		if err != nil {
			b.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			b.Fatal(err)
		}
	}
}
