package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/runner"
)

// passStats is what one pass over a workload costs the host.
type passStats struct {
	wall, cpu time.Duration
	// allocBytes and allocObjects are heap allocations during the pass.
	allocBytes, allocObjects uint64
	// peakLive is the largest live heap at the end of any GC cycle that
	// finished during the pass.
	peakLive uint64
	gcCycles uint64
	// gcCPU and totalCPU are the runtime's own CPU accounting, from
	// which the GC share is taken.
	gcCPU, totalCPU float64
	// scenarioWall holds each scenario's wall time, in input order.
	scenarioWall []time.Duration
	// wallRef and cpuRef are wall and cpu calibrated against the kernel,
	// and kernel is the kernel's mean cost around the pass's sweeps (set
	// by calibrator.pass only).
	wallRef, cpuRef float64
	kernel          calibration
}

// add accumulates the cost of one sweep of a pass.
func (st *passStats) add(s passStats) {
	st.wall += s.wall
	st.cpu += s.cpu
	st.allocBytes += s.allocBytes
	st.allocObjects += s.allocObjects
	st.peakLive = max(st.peakLive, s.peakLive)
	st.gcCycles += s.gcCycles
	st.gcCPU += s.gcCPU
	st.totalCPU += s.totalCPU
	st.scenarioWall = append(st.scenarioWall, s.scenarioWall...)
}

// pass runs the scenarios once on one sweep worker and returns the report
// with its host cost. It starts from a collected heap, so that no pass
// pays for the garbage of the one before.
func pass(scenarios []runner.Scenario, seed int64, gc *gcWatch) (*runner.SweepReport, passStats, error) {
	runtime.GC()
	before := readRuntime()
	cpu0 := processCPU()
	gc.reset()
	start := time.Now()
	rep, err := runner.Sweep(scenarios, runner.Options{Workers: 1, BaseSeed: seed})
	wall := time.Since(start)
	cpu1 := processCPU()
	after := readRuntime()
	if err != nil {
		return nil, passStats{}, err
	}
	st := passStats{
		wall:         wall,
		cpu:          cpu1 - cpu0,
		allocBytes:   after.allocBytes - before.allocBytes,
		allocObjects: after.allocObjects - before.allocObjects,
		peakLive:     gc.peak.Load(),
		gcCycles:     after.gcCycles - before.gcCycles,
		gcCPU:        after.gcCPU - before.gcCPU,
		totalCPU:     after.totalCPU - before.totalCPU,
	}
	for _, s := range rep.Scenarios {
		st.scenarioWall = append(st.scenarioWall, time.Duration(s.WallNanos))
	}
	return rep, st, nil
}

type runtimeSnapshot struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU, totalCPU                    float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSnapshot {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSnapshot{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
		totalCPU:     s[4].Value.Float64(),
	}
}

// processCPU returns the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcWatch samples the live heap at the end of every GC cycle, through a
// finalizer that re-arms itself each cycle, and keeps the maximum since
// the last reset.
type gcWatch struct {
	peak    atomic.Uint64
	stopped atomic.Bool
}

// gcSentinel is large enough to get its own allocation: finalizers on
// tiny-allocator objects may never run.
type gcSentinel struct {
	_ [4]*int
}

func startGCWatch() *gcWatch {
	w := &gcWatch{}
	w.arm()
	return w
}

func (w *gcWatch) arm() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		if w.stopped.Load() {
			return
		}
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		live := s[0].Value.Uint64()
		for {
			old := w.peak.Load()
			if live <= old || w.peak.CompareAndSwap(old, live) {
				break
			}
		}
		w.arm()
	})
}

func (w *gcWatch) reset() { w.peak.Store(0) }

func (w *gcWatch) stop() { w.stopped.Store(true) }

// peakRSS reads the process's peak resident set size (VmHWM).
func peakRSS() uint64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseUint(f[0], 10, 64)
				return kb << 10
			}
		}
	}
	return 0
}

// probeFlag makes the benchmark binary a set-up probe: it builds the
// workload, enters the sweep, prints the wall-clock instant the first
// scenario's Run is entered, and exits without running it.
const probeFlag = "setup-probe"

// probeSetup is the probe child's body.
func probeSetup(w workload, seed int64) {
	scenarios := w.scenarios()
	for i := range scenarios {
		scenarios[i].Run = func(int64) (runner.Outcome, error) {
			fmt.Println(time.Now().UnixNano())
			os.Exit(0)
			return runner.Outcome{}, nil
		}
	}
	_, err := runner.Sweep(scenarios, runner.Options{Workers: 1, BaseSeed: seed})
	fmt.Fprintln(os.Stderr, "set-up probe: sweep returned without entering a scenario:", err)
	os.Exit(1)
}

// measureSetup starts the benchmark binary as a set-up probe n times and
// returns, for each, the host time from just before the process was
// started until its first scenario's Run was entered: runtime and
// package initialisation, schema compilation, band expansion and the
// sweep's own set-up.
func measureSetup(w workload, seed int64, n int) ([]time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "-"+probeFlag, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10))
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		line, _ := bufio.NewReader(&stdout).ReadString('\n')
		entered, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("set-up probe printed %q: %w", line, err)
		}
		out = append(out, time.Duration(entered-start.UnixNano()))
	}
	return out, nil
}

// median returns the median of xs (the mean of the middle two for even
// counts); xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
