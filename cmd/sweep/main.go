// Command sweep runs floor-control scenario bands on the parallel
// scenario runner and emits the aggregated report as a table, JSON, or
// CSV.
//
// Usage:
//
//	sweep                                  # the default 120-scenario band
//	sweep -parallel 1                      # sequential; bit-identical output
//	sweep -solutions mw-token,proto-token  # restrict the solution dimension
//	sweep -loss 0,0.05 -clients 4,16       # override swept dimensions
//	sweep -band large                      # large-client band (clients 64/128/256)
//	sweep -band xl                         # million-client band (see runner.XLBand)
//	sweep -band xl -xlscale 1024           # scaled-down xl smoke (same code paths)
//	sweep -band churn                      # crash/restart robustness band (runner.ChurnBand)
//	sweep -band churn -crash 1,10 -mttr 100ms  # override the churn dimensions
//	sweep -bandfile examples/bands/default.band  # file-defined band (see internal/bandfile)
//	sweep -format csv -out sweep.csv       # machine-readable output
//	sweep -cpuprofile cpu.pprof            # profile the sweep (see make profile)
//
// -band names a built-in band (runner.NamedBand) and the dimension flags
// override its fields; runner.Expand validates the result, so a flag
// the band cannot take (-crash on a matrix band, -clients on churn) is
// an error, never ignored. The default band is all 10 solutions × loss
// {0, 1, 5, 10}% × clients {2, 8, 32}. Every scenario's seed is derived
// from the base seed and the scenario ID, so the report is bit-identical
// for any -parallel value.
// Table output additionally shows per-scenario wall time (never part of
// the machine-readable renderings).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/bandfile"
	"repro/internal/floorcontrol"
	"repro/internal/runner"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var b bandfile.Band
	// The dimension flags: each overrides one field of the -band band.
	dims := []struct {
		name, usage string
		apply       func(string) error
	}{
		{"solutions", "comma-separated solution names, or 'all'", func(v string) (err error) {
			if v == "all" {
				b.Solutions = nil
				return nil
			}
			b.Solutions, err = split(v, func(s string) (string, error) { return s, nil })
			return err
		}},
		{"clients", "comma-separated client (subscriber) counts", func(v string) (err error) {
			b.Clients, err = split(v, strconv.Atoi)
			return err
		}},
		{"resources", "comma-separated resource counts", func(v string) (err error) {
			b.Resources, err = split(v, strconv.Atoi)
			return err
		}},
		{"loss", "comma-separated link loss rates (fractions)", func(v string) (err error) {
			b.Loss, err = split(v, parseFloat)
			return err
		}},
		{"cycles", "acquire/hold/release cycles per subscriber", func(v string) (err error) {
			// A band's zero cycle count means the workload default, so an
			// explicit 0 cannot be carried to Expand; negatives can.
			if b.Cycles, err = strconv.Atoi(strings.TrimSpace(v)); err == nil && b.Cycles == 0 {
				err = errors.New("value 0 is not positive")
			}
			return err
		}},
		{"crash", "comma-separated crash rates (crashes/s per node), churn bands", func(v string) (err error) {
			b.Crash, err = split(v, parseFloat)
			return err
		}},
		{"mttr", "comma-separated mean times to repair (e.g. 50ms,200ms), churn bands", func(v string) (err error) {
			b.MTTR, err = split(v, time.ParseDuration)
			return err
		}},
	}
	values := make([]*string, len(dims))
	for i, d := range dims {
		values[i] = fs.String(d.name, "", d.usage+" (default: the band's)")
	}
	band := fs.String("band", "default", "built-in band: default, large, xl, or churn")
	bandFile := fs.String("bandfile", "", "band definition file (.band, see internal/bandfile)")
	xlscale := fs.Int("xlscale", 1, "population divisor for -band xl (CI smoke runs use e.g. 1024)")
	seed := fs.Int64("seed", 42, "base sweep seed (per-scenario seeds are derived from it)")
	parallel := fs.Int("parallel", 0, "worker count (0 = GOMAXPROCS)")
	format := fs.String("format", "table", "output format: table, json, or csv")
	out := fs.String("out", "", "output file (default stdout)")
	list := fs.Bool("list", false, "list solution names and exit")
	quiet := fs.Bool("quiet", false, "suppress the run summary on stderr")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile taken after the sweep to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, name := range floorcontrol.AllSolutionNames() {
			fmt.Fprintln(stdout, name)
		}
		return 0
	}

	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["band"] && set["bandfile"] {
		fmt.Fprintln(stderr, "sweep: -band and -bandfile are mutually exclusive")
		return 2
	}
	if set["xlscale"] && *band != "xl" {
		fmt.Fprintln(stderr, "sweep: -xlscale only applies to -band xl")
		return 2
	}
	if *xlscale < 1 {
		fmt.Fprintf(stderr, "sweep: -xlscale: value %d is not positive\n", *xlscale)
		return 2
	}
	source := "-band " + *band
	if set["bandfile"] {
		source = "-bandfile"
	}
	var scenarios []runner.Scenario
	switch {
	case set["bandfile"] || *band == "xl":
		for _, d := range dims {
			if set[d.name] {
				fmt.Fprintf(stderr, "sweep: -%s does not apply to %s\n", d.name, source)
				return 2
			}
		}
		if *band == "xl" {
			scenarios = runner.XLBand(*xlscale)
			break
		}
		src, err := os.ReadFile(*bandFile)
		if err != nil {
			fmt.Fprintf(stderr, "sweep: -bandfile: %v\n", err)
			return 1
		}
		if scenarios, err = runner.BandFileScenarios(string(src)); err != nil {
			fmt.Fprintf(stderr, "sweep: %s: %v\n", *bandFile, err)
			return 2
		}
	default:
		var ok bool
		if b, ok = runner.NamedBand(*band); !ok {
			fmt.Fprintf(stderr, "sweep: -band: unknown band %q (default, large, xl, churn)\n", *band)
			return 2
		}
		for i, d := range dims {
			if !set[d.name] {
				continue
			}
			if err := d.apply(*values[i]); err != nil {
				fmt.Fprintf(stderr, "sweep: -%s: %v\n", d.name, err)
				return 2
			}
		}
		var err error
		if scenarios, err = runner.Expand(b); err != nil {
			fmt.Fprintf(stderr, "sweep: %s: %v\n", source, err)
			return 2
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "sweep: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "sweep: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	start := time.Now()
	report, err := runner.Sweep(scenarios, runner.Options{Workers: *parallel, BaseSeed: *seed})
	if err != nil {
		fmt.Fprintf(stderr, "sweep: %v\n", err)
		return 1
	}
	elapsed := time.Since(start)
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(stderr, "sweep: -memprofile: %v\n", err)
			return 1
		}
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fmt.Fprintf(stderr, "sweep: -memprofile: %v\n", err)
			f.Close()
			return 1
		}
		f.Close()
	}

	var rendered []byte
	switch *format {
	case "table":
		// The interactive table includes per-scenario wall time so the
		// cost of heavy bands (e.g. -band large) is visible; the
		// machine-readable renderings stay wall-clock-free and therefore
		// byte-identical across worker counts.
		rendered = []byte(report.TableString(true))
	case "json":
		rendered, err = report.JSON()
	case "csv":
		rendered, err = report.CSV()
	default:
		fmt.Fprintf(stderr, "sweep: unknown format %q (table, json, csv)\n", *format)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "sweep: render: %v\n", err)
		return 1
	}

	if *out == "" {
		if _, err := stdout.Write(rendered); err != nil {
			fmt.Fprintf(stderr, "sweep: write: %v\n", err)
			return 1
		}
	} else if err := os.WriteFile(*out, rendered, 0o644); err != nil {
		fmt.Fprintf(stderr, "sweep: %v\n", err)
		return 1
	}

	if !*quiet {
		workers := *parallel
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		fmt.Fprintf(stderr, "sweep: %d scenarios on %d workers in %s\n",
			len(scenarios), workers, elapsed.Round(time.Millisecond))
		if rss, ok := peakRSS(); ok {
			fmt.Fprintf(stderr, "sweep: peak RSS %.1f MiB\n", float64(rss)/(1<<20))
		}
	}
	if serr := report.Err(); serr != nil {
		fmt.Fprintf(stderr, "sweep: %v\n", serr)
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

// split cuts a comma-separated flag value and parses each element. It
// checks syntax only; runner.Expand validates the values.
func split[T any](csv string, parse func(string) (T, error)) ([]T, error) {
	parts := strings.Split(csv, ",")
	out := make([]T, len(parts))
	for i, p := range parts {
		v, err := parse(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
