// Command perfbench is the repository benchmark. It runs one named
// workload through runner.Sweep on one worker, exactly as cmd/sweep does,
// checks that the reports are correct, and prints the result as one JSON
// line: end-to-end metrics with -trace 0, per-layer metrics with -trace 1.
// perfbench/README.md describes the workloads and metrics; run it through
// perfbench/run.py, which builds it first.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"text/tabwriter"
	"time"

	"repro/internal/runner"
)

const (
	// minPasses is the fewest timed passes a run makes, however short
	// -seconds is.
	minPasses = 3
	// setupProbesPerPass is how many set-up probes follow each timed
	// pass, and minSetupProbes the fewest a run starts; setup_s is their
	// median.
	setupProbesPerPass = 3
	minSetupProbes     = 41
)

func main() {
	// One processor: the sweep worker and the collector share one core,
	// so a pass's wall time does not depend on whether the shared host
	// grants the process a second one.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what a run reports on its last line. A run that returns a
// result had no failed scenario: any failure ends it with an error.
type result struct {
	attempted int
	metrics   []metric
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: default-band, churn-band, floor-xl or fanout-xl")
	seed := fs.Int64("seed", goldenSeed, "base seed of the sweep (scenario seeds are derived from it)")
	seconds := fs.Float64("seconds", 10, "how long to keep making timed passes")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	probe := fs.Bool(probeFlag, false, "internal: run as a set-up probe")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name, 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *probe {
		probeSetup(w, *seed)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))
	var res result
	if *trace == 1 {
		res, err = tracedRun(w, *seed, dur, stderr)
	} else {
		res, err = benchRun(w, *seed, dur, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		fmt.Fprintln(stdout, `{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`)
		return 1
	}
	printTable(stderr, w.name, res.metrics)
	line, err := resultJSON(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func resultJSON(res result) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(res.metrics))
	for _, m := range res.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, v)
		}
		ms[m.name] = value{v, m.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, res.attempted, 0, ms})
}

func printTable(out io.Writer, workload string, ms []metric) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\tvalue\tunit\n", workload)
	for _, m := range ms {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\n", m.name, m.value, m.unit)
	}
	tw.Flush()
}

// reference runs the workload untraced at the golden seed, checks the
// report and its committed digest, and returns the digest at seed (the
// golden one when seed is the golden seed). The golden pass also warms
// the process up before anything is timed.
func reference(w workload, scenarios []runner.Scenario, seed int64, gc *gcWatch, log io.Writer) (string, *runner.SweepReport, error) {
	rep, _, digest, err := checkedPass(w, scenarios, goldenSeed, gc)
	if err != nil {
		return "", nil, err
	}
	fmt.Fprintf(log, "%s: report digest at seed %d: %s\n", w.name, goldenSeed, digest)
	if w.digest != "" && digest != w.digest {
		return "", nil, fmt.Errorf("report digest at seed %d is %s, want %s", goldenSeed, digest, w.digest)
	}
	if seed == goldenSeed {
		return digest, rep, nil
	}
	rep, _, digest, err = checkedPass(w, scenarios, seed, gc)
	return digest, rep, err
}

// checkedPass runs one pass, checks its report, and returns the report
// with its host cost and digest.
func checkedPass(w workload, scenarios []runner.Scenario, seed int64, gc *gcWatch) (*runner.SweepReport, passStats, string, error) {
	rep, st, err := pass(scenarios, seed, gc)
	if err != nil {
		return nil, st, "", err
	}
	digest, err := w.checked(rep)
	return rep, st, digest, err
}

// checked checks a report of w and returns its digest.
func (w workload) checked(rep *runner.SweepReport) (string, error) {
	if err := w.check(rep); err != nil {
		return "", err
	}
	csv, err := rep.CSV()
	if err != nil {
		return "", err
	}
	return digestOf(csv), nil
}

// reproduces checks a report of w and requires it to be byte-identical
// to the reference, whose digest is want.
func (w workload) reproduces(rep *runner.SweepReport, want string) error {
	got, err := w.checked(rep)
	if err == nil && got != want {
		err = fmt.Errorf("report digest %s differs from the reference %s", got, want)
	}
	return err
}

// timedPass is checkedPass that also requires the report to be
// byte-identical to the reference.
func timedPass(w workload, scenarios []runner.Scenario, seed int64, gc *gcWatch, want string) (passStats, error) {
	rep, st, err := pass(scenarios, seed, gc)
	if err == nil {
		err = w.reproduces(rep, want)
	}
	return st, err
}

// benchRun measures the end-to-end metrics with tracing off.
func benchRun(w workload, seed int64, dur time.Duration, log io.Writer) (result, error) {
	gc := startGCWatch()
	defer gc.stop()
	scenarios := w.scenarios()
	want, ref, err := reference(w, scenarios, seed, gc, log)
	if err != nil {
		return result{}, err
	}
	// Timed passes run between calibration batches, one sweep per copy of
	// the band (see calibrate.go). Set-up probes run between the timed
	// passes, so that they sample the host over the same span of time as
	// the passes do.
	cal := newCalibrator()
	sweepLen := len(scenarios) / max(w.replicas, 1)
	var stats []passStats
	var setups []time.Duration
	for deadline := time.Now().Add(dur); len(stats) < minPasses || time.Now().Before(deadline); {
		rep, st, err := cal.pass(scenarios, sweepLen, seed, gc)
		if err == nil {
			err = w.reproduces(rep, want)
		}
		if err != nil {
			return result{}, err
		}
		stats = append(stats, st)
		fmt.Fprintf(log, "pass %d: wall %v, cpu %v, alloc %.1f MB, peak live heap %.2f MiB; kernel %v wall, %v cpu\n",
			len(stats), st.wall.Round(time.Microsecond), st.cpu.Round(time.Microsecond),
			float64(st.allocBytes)/1e6, float64(st.peakLive)/(1<<20),
			st.kernel.wall.Round(time.Microsecond), st.kernel.cpu.Round(time.Microsecond))
		s, err := measureSetup(w, seed, setupProbesPerPass)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, s...)
	}
	if n := minSetupProbes - len(setups); n > 0 {
		s, err := measureSetup(w, seed, n)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, s...)
	}
	attempted, failed := opCounts(ref)
	ms := []metric{
		{"wall_s", median(collect(stats, func(s passStats) float64 { return s.wallRef })), "s"},
		{"cpu_s", median(collect(stats, func(s passStats) float64 { return s.cpuRef })), "s"},
		{"setup_s", median(collect(setups, time.Duration.Seconds)), "s"},
		{"alloc_mb", median(collect(stats, func(s passStats) float64 { return float64(s.allocBytes) / 1e6 })), "MB"},
		{"peak_heap_mib", mean(collect(stats, func(s passStats) float64 { return float64(s.peakLive) / (1 << 20) })), "MiB"},
		{"op_ok_frac", 1 - failed/attempted, "ratio"},
	}
	fmt.Fprintf(log, "%s: %d timed passes of %d scenarios; host wall %.4g s, cpu %.4g s (medians before calibration); op_fail_frac %g (%g of %g operations)\n",
		w.name, len(stats), len(scenarios),
		median(collect(stats, func(s passStats) float64 { return s.wall.Seconds() })),
		median(collect(stats, func(s passStats) float64 { return s.cpu.Seconds() })),
		failed/attempted, failed, attempted)
	return result{attempted: len(stats) * len(scenarios), metrics: ms}, nil
}

// tracedRun alternates untraced passes, sampled by the CPU profiler, with
// traced passes, and reports the per-layer metrics.
func tracedRun(w workload, seed int64, dur time.Duration, log io.Writer) (result, error) {
	gc := startGCWatch()
	defer gc.stop()
	scenarios := w.scenarios()
	want, _, err := reference(w, scenarios, seed, gc, log)
	if err != nil {
		return result{}, err
	}
	split := cpuSplit{}
	var plain, traced []passStats
	var tracers []*tracer
	for deadline := time.Now().Add(dur); len(plain) < minPasses || time.Now().Before(deadline); {
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return result{}, err
		}
		st, err := timedPass(w, scenarios, seed, gc, want)
		pprof.StopCPUProfile()
		if err != nil {
			return result{}, err
		}
		if err := split.addProfile(prof.Bytes()); err != nil {
			return result{}, err
		}
		plain = append(plain, st)

		t := newTracer()
		tscen, err := tracedScenarios(w, t)
		if err != nil {
			return result{}, err
		}
		st, err = timedPass(w, tscen, seed, gc, want)
		if err != nil {
			return result{}, fmt.Errorf("traced pass: %w", err)
		}
		traced = append(traced, st)
		tracers = append(tracers, t)
		fmt.Fprintf(log, "pass %d: untraced %v, traced %v\n", len(plain),
			plain[len(plain)-1].wall.Round(time.Microsecond), st.wall.Round(time.Microsecond))
	}
	ms := layerMetrics(plain, traced, tracers, split)
	printSpans(log, tracers[len(tracers)-1])
	printCPU(log, w.name, split)
	n := len(scenarios) * (len(plain) + len(traced))
	return result{attempted: n, metrics: ms}, nil
}

func collect[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// layerMetrics derives the per-layer metrics. Timings are medians over
// the passes; counts repeat exactly, so they come from the last traced
// pass.
func layerMetrics(plain, traced []passStats, tracers []*tracer, split cpuSplit) []metric {
	last := tracers[len(tracers)-1]
	c := last.counts
	spanMed := func(f func(t *tracer) float64) float64 { return median(collect(tracers, f)) }
	totalMs := func(name string) float64 {
		return spanMed(func(t *tracer) float64 { return msOf(t.span(name).total) })
	}
	selfUsPerCall := func(name string) float64 {
		return spanMed(func(t *tracer) float64 {
			a := t.span(name)
			if a.count == 0 {
				return 0
			}
			return float64(a.self) / float64(a.count) / 1e3
		})
	}
	scenarioQ := func(q float64) float64 {
		return median(collect(plain, func(s passStats) float64 {
			return quantile(collect(s.scenarioWall, msOf), q)
		}))
	}
	// The engine runs inside floorcontrol.run (floor-control scenarios)
	// or middleware.run (the fan-out re-drive).
	runSeconds := (totalMs("floorcontrol.run") + totalMs("middleware.run")) / 1e3
	plainWall := median(collect(plain, func(s passStats) float64 { return s.wall.Seconds() }))
	tracedWall := median(collect(traced, func(s passStats) float64 { return s.wall.Seconds() }))
	allocObjects := median(collect(plain, func(s passStats) float64 { return float64(s.allocObjects) }))

	ms := []metric{
		{"runner.scenario_p50_ms", scenarioQ(0.5), "ms"},
		{"runner.scenario_p90_ms", scenarioQ(0.9), "ms"},
		{"floorcontrol.setup_ms", totalMs("floorcontrol.setup"), "ms"},
		{"floorcontrol.build_ms", totalMs("floorcontrol.build"), "ms"},
		{"floorcontrol.run_ms", totalMs("floorcontrol.run"), "ms"},
		{"floorcontrol.finish_ms", totalMs("floorcontrol.finish"), "ms"},
		{"floorcontrol.acquire_us", selfUsPerCall("floorcontrol.acquire"), "us"},
		{"floorcontrol.release_us", selfUsPerCall("floorcontrol.release"), "us"},
		{"protocol.rdp_send_us", selfUsPerCall("protocol.send"), "us"},
		{"protocol.deliver_us", selfUsPerCall("protocol.deliver"), "us"},
		{"protocol.retransmits", c["protocol.retransmits"], "count"},
		{"protocol.retransmit_ratio", ratio(c["protocol.retransmits"], c["protocol.data_sent"]), "ratio"},
		{"protocol.flow_resets", c["protocol.flow_resets"], "count"},
		{"network.sent", c["network.sent"], "count"},
		{"network.dropped", c["network.dropped"], "count"},
		{"network.bytes", c["network.bytes"], "bytes"},
		{"sim.events", c["sim.events"], "count"},
		{"sim.events_per_s", ratio(c["sim.events"], runSeconds), "1/s"},
		{"middleware.subscribe_ms", totalMs("middleware.subscribe"), "ms"},
		{"middleware.publish_ms", totalMs("middleware.publish"), "ms"},
		{"middleware.deliver_ms", spanMed(func(t *tracer) float64 { return msOf(t.span("middleware.run").self) }), "ms"},
		{"middleware.calls", c["middleware.calls"], "count"},
		{"middleware.wire_msgs", c["middleware.wire_msgs"], "count"},
		{"middleware.unavailables", c["middleware.unavailables"], "count"},
		{"core.observed_events", c["core.observed_events"], "count"},
		{"core.violations", c["core.violations"], "count"},
		{"fault.crashes", c["fault.crashes"], "count"},
		{"fault.availability", availability(c), "ratio"},
		{"runtime.gc_cpu_share", median(collect(plain, func(s passStats) float64 { return ratio(s.gcCPU, s.totalCPU) })), "ratio"},
		{"runtime.gc_cycles", median(collect(plain, func(s passStats) float64 { return float64(s.gcCycles) })), "count"},
		{"runtime.alloc_objects", allocObjects, "count"},
		{"runtime.allocs_per_event", ratio(allocObjects, c["sim.events"]), "ratio"},
		{"runtime.peak_rss_mib", float64(peakRSS()) / (1 << 20), "MiB"},
	}
	total := split.total()
	for _, l := range cpuLayers {
		ms = append(ms, metric{"cpu." + l, ratio(float64(split[l]), float64(total)), "ratio"})
	}
	ms = append(ms,
		metric{"tracing.overhead_s", tracedWall - plainWall, "s"},
		metric{"tracing.overhead_ratio", ratio(tracedWall-plainWall, plainWall), "ratio"},
	)
	return ms
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func availability(c map[string]float64) float64 {
	if c["fault.offered"] == 0 {
		return 1
	}
	return c["fault.served"] / c["fault.offered"]
}

func printSpans(out io.Writer, t *tracer) {
	names := make([]string, 0, len(t.spans))
	for n := range t.spans {
		names = append(names, n)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "span\tcalls\ttotal ms\tself ms\tself us/call\t")
	for _, n := range names {
		a := t.spans[n]
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%.3f\t\n", n, a.count, msOf(a.total), msOf(a.self),
			float64(a.self)/float64(a.count)/1e3)
	}
	tw.Flush()
}

func printCPU(out io.Writer, workload string, split cpuSplit) {
	total := split.total()
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "CPU by layer, %s (%.2f s sampled)\tshare\t\n", workload, float64(total)/1e9)
	for _, l := range cpuLayers {
		fmt.Fprintf(tw, "%s\t%5.1f%%\t\n", l, 100*ratio(float64(split[l]), float64(total)))
	}
	tw.Flush()
}
