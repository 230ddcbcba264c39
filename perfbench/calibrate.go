package main

import (
	"runtime"
	"slices"
	"time"

	"repro/internal/runner"
)

// Host-speed calibration.
//
// The reference machine is a 2-vCPU VM on a shared host. How fast it runs
// a fixed piece of Go code drifts by a fifth or more within minutes, in
// CPU time as well as in wall time, as other tenants load the host. Every
// sweep of a timed pass therefore sits between two batches of a fixed
// kernel that uses no repository code, and wall_s and cpu_s are the
// sweep's cost divided by the kernel's cost measured around it, times a
// typical kernel cost on the reference machine (calibRef), summed over
// the pass's sweeps. A change to the repository moves the sweeps and
// leaves the kernel alone; a slower host moves both.
const (
	// calibRef is a typical cost of one kernel call on the reference
	// machine. It only sets the scale of wall_s and cpu_s.
	calibRef = 6500 * time.Microsecond
	// calibShare is the kernel's running time after each sweep, as a
	// share of the sweep's wall time.
	calibShare = 0.25
	// calibMinCalls is the fewest kernel calls in one batch.
	calibMinCalls = 5
	// calibNodes is how many objects one kernel call allocates.
	calibNodes = 25000
)

type calibNode struct {
	next *calibNode
	key  uint64
	_    [4]uint64
}

// calibSink keeps the kernel's result live.
var calibSink uint64

// calibKernel is the fixed work: it allocates small objects, fills and
// walks a map, sorts, and chases pointers, which is what the simulation
// spends its time on, using only the standard library.
func calibKernel() {
	x := uint64(88172645463325252)
	m := make(map[uint32]*calibNode)
	var head *calibNode
	for i := 0; i < calibNodes; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		n := &calibNode{next: head, key: x}
		if i%4 == 0 {
			head = n
		}
		m[uint32(x)&(1<<20-1)] = n
	}
	keys := make([]uint32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	sum := uint64(keys[len(keys)/2])
	for n := head; n != nil; n = n.next {
		sum += n.key
	}
	calibSink += sum
}

// calibration is one batch's cost per kernel call.
type calibration struct {
	wall, cpu time.Duration
}

// calibrate runs the kernel for calibShare of sweepWall, and at least
// calibMinCalls times, starting from a collected heap, and returns its
// cost per call.
func calibrate(sweepWall time.Duration) calibration {
	runtime.GC()
	budget := time.Duration(calibShare * float64(sweepWall))
	cpu0 := processCPU()
	start := time.Now()
	calls := 0
	for calls < calibMinCalls || time.Since(start) < budget {
		calibKernel()
		calls++
	}
	wall := time.Since(start)
	cpu := processCPU() - cpu0
	return calibration{wall / time.Duration(calls), cpu / time.Duration(calls)}
}

// calibrator runs timed passes between calibration batches.
type calibrator struct {
	// prev is the batch before the next sweep.
	prev calibration
}

func newCalibrator() *calibrator {
	return &calibrator{prev: calibrate(0)}
}

// pass runs the scenarios as consecutive sweeps of at most size
// scenarios, each followed by a calibration batch and scaled by the
// batches on either side of it, and sums them into one pass. Each sweep
// is a pass of its own to the heap and the clock (see pass). The joined
// report is the one a single sweep gives, because every scenario's seed
// comes from the base seed and its ID alone.
func (c *calibrator) pass(scenarios []runner.Scenario, size int, seed int64, gc *gcWatch) (*runner.SweepReport, passStats, error) {
	rep := &runner.SweepReport{BaseSeed: seed}
	var st passStats
	sweeps := 0
	for lo := 0; lo < len(scenarios); lo += size {
		part, ps, err := pass(scenarios[lo:min(lo+size, len(scenarios))], seed, gc)
		if err != nil {
			return nil, st, err
		}
		next := calibrate(ps.wall)
		k := around(c.prev, next)
		c.prev = next
		rep.Scenarios = append(rep.Scenarios, part.Scenarios...)
		st.add(ps)
		st.wallRef += inRef(ps.wall, k.wall)
		st.cpuRef += inRef(ps.cpu, k.cpu)
		st.kernel.wall += k.wall
		st.kernel.cpu += k.cpu
		sweeps++
	}
	st.kernel.wall /= time.Duration(sweeps)
	st.kernel.cpu /= time.Duration(sweeps)
	return rep, st, nil
}

// around returns the kernel cost for a sweep between batches a and b: the
// host can change speed during a sweep, and the mean of the batches on
// either side follows it better than either batch alone.
func around(a, b calibration) calibration {
	return calibration{(a.wall + b.wall) / 2, (a.cpu + b.cpu) / 2}
}

// inRef returns a sweep's cost d, measured next to a kernel cost per call
// k, in seconds at a kernel cost of calibRef.
func inRef(d, k time.Duration) float64 {
	return float64(d) / float64(k) * calibRef.Seconds()
}
