// Command sweep runs cross-product floor-control workload sweeps on the
// parallel scenario runner and emits the aggregated report as a table,
// JSON, or CSV.
//
// Usage:
//
//	sweep                                  # default 120-scenario matrix
//	sweep -parallel 1                      # sequential; bit-identical output
//	sweep -solutions mw-token,proto-token  # restrict the solution dimension
//	sweep -loss 0,0.05 -subs 4,16          # restrict swept dimensions
//	sweep -clients 64,128,256              # large-client band (overrides -subs)
//	sweep -band xl                         # million-client band (see runner.XLBand)
//	sweep -band xl -xlscale 1024           # scaled-down xl smoke (same code paths)
//	sweep -band churn                      # crash/restart robustness band (runner.ChurnBand)
//	sweep -band churn -crash 1,10 -mttr 100ms  # override the churn dimensions
//	sweep -bandfile examples/bands/default.band  # file-defined band (see internal/bandfile)
//	sweep -format csv -out sweep.csv       # machine-readable output
//	sweep -cpuprofile cpu.pprof            # profile the sweep (see make profile)
//
// The default matrix is all 10 solutions × loss {0, 1, 5, 10}% × clients
// {2, 8, 32} (runner.DefaultBand). Every scenario's seed is derived from
// the base seed and the scenario ID, so the report is bit-identical for
// any -parallel value.
// Table output additionally shows per-scenario wall time (never part of
// the machine-readable renderings).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/floorcontrol"
	"repro/internal/runner"
)

func main() {
	os.Exit(run())
}

func run() int {
	solutions := flag.String("solutions", "all", "comma-separated solution names, or 'all'")
	subs := flag.String("subs", "2,8,32", "comma-separated subscriber (client) counts")
	clients := flag.String("clients", "", "override -subs (alias emphasizing deployment size, e.g. the 64,128,256 large-client band)")
	resources := flag.String("resources", "2", "comma-separated resource counts")
	loss := flag.String("loss", "0,0.01,0.05,0.1", "comma-separated link loss rates (fractions)")
	cycles := flag.Int("cycles", 6, "acquire/hold/release cycles per subscriber")
	band := flag.String("band", "", "named scenario band: default, large, xl, or churn (overrides the dimension flags)")
	bandfile := flag.String("bandfile", "", "band definition file (.band, see internal/bandfile; overrides the dimension flags)")
	xlscale := flag.Int("xlscale", 1, "population divisor for -band xl (CI smoke runs use e.g. 1024)")
	crash := flag.String("crash", "", "comma-separated crash rates (crashes/s per node) for -band churn; empty = band defaults")
	mttr := flag.String("mttr", "", "comma-separated mean times to repair (durations, e.g. 50ms,200ms) for -band churn; empty = band defaults")
	seed := flag.Int64("seed", 42, "base sweep seed (per-scenario seeds are derived from it)")
	parallel := flag.Int("parallel", 0, "worker count (0 = GOMAXPROCS)")
	format := flag.String("format", "table", "output format: table, json, or csv")
	out := flag.String("out", "", "output file (default stdout)")
	list := flag.Bool("list", false, "list solution names and exit")
	quiet := flag.Bool("quiet", false, "suppress the run summary on stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile taken after the sweep to this file")
	flag.Parse()

	if *list {
		for _, name := range floorcontrol.AllSolutionNames() {
			fmt.Println(name)
		}
		return 0
	}

	if *xlscale < 1 {
		fmt.Fprintf(os.Stderr, "sweep: -xlscale: value %d is not positive\n", *xlscale)
		return 2
	}
	if *bandfile != "" {
		if *band != "" {
			fmt.Fprintln(os.Stderr, "sweep: -band and -bandfile are mutually exclusive")
			return 2
		}
		if *crash != "" || *mttr != "" {
			fmt.Fprintln(os.Stderr, "sweep: -crash/-mttr only apply to -band churn; band files carry their own crash/mttr statements")
			return 2
		}
	}
	var scenarios []runner.Scenario
	switch *band {
	case "":
		// Dimension flags below assemble the matrix.
	case "default":
		scenarios = runner.DefaultBand().Scenarios()
	case "large":
		scenarios = runner.LargeClientBand().Scenarios()
	case "xl":
		scenarios = runner.XLBand(*xlscale)
	case "churn":
		rates, err := parseRates(*crash)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: -crash: %v\n", err)
			return 2
		}
		mttrs, err := parseDurations(*mttr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: -mttr: %v\n", err)
			return 2
		}
		scenarios = runner.ChurnBandWith(rates, mttrs)
	default:
		fmt.Fprintf(os.Stderr, "sweep: -band: unknown band %q (default, large, xl, churn)\n", *band)
		return 2
	}
	if *band != "churn" && (*crash != "" || *mttr != "") {
		fmt.Fprintln(os.Stderr, "sweep: -crash/-mttr only apply to -band churn")
		return 2
	}
	if *bandfile != "" {
		src, err := os.ReadFile(*bandfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: -bandfile: %v\n", err)
			return 1
		}
		if scenarios, err = runner.BandFileScenarios(string(src)); err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %s: %v\n", *bandfile, err)
			return 2
		}
	}
	matrix := runner.Matrix{Cycles: *cycles}
	if sols := strings.TrimSpace(*solutions); sols != "all" {
		seen := make(map[string]struct{})
		for _, s := range strings.Split(sols, ",") {
			s = strings.TrimSpace(s)
			if _, ok := floorcontrol.SolutionByName(s); !ok {
				fmt.Fprintf(os.Stderr, "sweep: -solutions: unknown solution %q (try -list)\n", s)
				return 2
			}
			if _, dup := seen[s]; dup {
				fmt.Fprintf(os.Stderr, "sweep: -solutions: duplicate value %q\n", s)
				return 2
			}
			seen[s] = struct{}{}
			matrix.Solutions = append(matrix.Solutions, s)
		}
	}
	var err error
	clientCSV, clientFlag := *subs, "-subs"
	if strings.TrimSpace(*clients) != "" {
		clientCSV, clientFlag = *clients, "-clients"
	}
	if matrix.Subscribers, err = parseInts(clientCSV); err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %s: %v\n", clientFlag, err)
		return 2
	}
	if matrix.Resources, err = parseInts(*resources); err != nil {
		fmt.Fprintf(os.Stderr, "sweep: -resources: %v\n", err)
		return 2
	}
	if matrix.LossRates, err = parseFloats(*loss); err != nil {
		fmt.Fprintf(os.Stderr, "sweep: -loss: %v\n", err)
		return 2
	}

	if scenarios == nil {
		scenarios = matrix.Scenarios()
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "sweep: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	start := time.Now()
	report, err := runner.Sweep(scenarios, runner.Options{Workers: *parallel, BaseSeed: *seed})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		return 1
	}
	elapsed := time.Since(start)
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: -memprofile: %v\n", err)
			return 1
		}
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fmt.Fprintf(os.Stderr, "sweep: -memprofile: %v\n", err)
			f.Close()
			return 1
		}
		f.Close()
	}

	var rendered []byte
	switch *format {
	case "table":
		// The interactive table includes per-scenario wall time so the
		// cost of heavy bands (e.g. -clients 64,128,256) is visible; the
		// machine-readable renderings stay wall-clock-free and therefore
		// byte-identical across worker counts.
		rendered = []byte(report.TableString(true))
	case "json":
		rendered, err = report.JSON()
	case "csv":
		rendered, err = report.CSV()
	default:
		fmt.Fprintf(os.Stderr, "sweep: unknown format %q (table, json, csv)\n", *format)
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: render: %v\n", err)
		return 1
	}

	if *out == "" {
		if _, err := os.Stdout.Write(rendered); err != nil {
			fmt.Fprintf(os.Stderr, "sweep: write: %v\n", err)
			return 1
		}
	} else if err := os.WriteFile(*out, rendered, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		return 1
	}

	if !*quiet {
		workers := *parallel
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		fmt.Fprintf(os.Stderr, "sweep: %d scenarios on %d workers in %s\n",
			len(scenarios), workers, elapsed.Round(time.Millisecond))
		if rss, ok := peakRSS(); ok {
			fmt.Fprintf(os.Stderr, "sweep: peak RSS %.1f MiB\n", float64(rss)/(1<<20))
		}
	}
	if serr := report.Err(); serr != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", serr)
		return 1
	}
	return 0
}

// peakRSS reads the process's peak resident set size (VmHWM) from
// /proc/self/status. Best-effort and Linux-only: callers print it when
// available and stay silent otherwise. It backs the xl band's O(1)
// memory-per-client claim with a measured number.
func peakRSS() (uint64, bool) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0, false
		}
		kb, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0, false
		}
		return kb << 10, true
	}
	return 0, false
}

// parseRates parses the -crash list: positive crash rates, no duplicates.
// Empty input means "use the band defaults" and returns nil.
func parseRates(csv string) ([]float64, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, nil
	}
	parts := strings.Split(csv, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		if v <= 0 {
			return nil, fmt.Errorf("crash rate %g is not positive", v)
		}
		for _, prev := range out {
			if prev == v {
				return nil, fmt.Errorf("duplicate value %g", v)
			}
		}
		out = append(out, v)
	}
	return out, nil
}

// parseDurations parses the -mttr list: positive durations, no
// duplicates. Empty input means "use the band defaults" and returns nil.
func parseDurations(csv string) ([]time.Duration, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, nil
	}
	parts := strings.Split(csv, ",")
	out := make([]time.Duration, 0, len(parts))
	for _, p := range parts {
		v, err := time.ParseDuration(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		if v <= 0 {
			return nil, fmt.Errorf("mttr %s is not positive", v)
		}
		for _, prev := range out {
			if prev == v {
				return nil, fmt.Errorf("duplicate value %s", v)
			}
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(csv string) ([]int, error) {
	parts := strings.Split(csv, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		if v <= 0 {
			return nil, fmt.Errorf("value %d is not positive", v)
		}
		for _, prev := range out {
			if prev == v {
				return nil, fmt.Errorf("duplicate value %d", v)
			}
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(csv string) ([]float64, error) {
	parts := strings.Split(csv, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		if v < 0 || v >= 1 {
			return nil, fmt.Errorf("loss rate %g is outside [0, 1)", v)
		}
		for _, prev := range out {
			if prev == v {
				return nil, fmt.Errorf("duplicate value %g", v)
			}
		}
		out = append(out, v)
	}
	return out, nil
}
