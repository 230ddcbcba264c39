// Package fault derives deterministic fault schedules for churn
// experiments: given a churn specification, a node list, and a seeded
// RNG, Schedule produces the full crash/restart (and optionally
// partition/heal) event sequence for a run up front. The schedule is a
// pure function of its inputs — the per-scenario seed and the fault
// parameters — which is what lets the churn band stay byte-identical at
// any worker count: fault draws come from a dedicated
// stream and never perturb the engine RNG that feeds link jitter and
// workload think times.
//
// The package is deliberately free of any simulator dependency: it emits
// plain (offset, kind, node) events. internal/network's FaultPlan binds
// a schedule to a live network and kernel.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Kind discriminates fault events.
type Kind uint8

const (
	// Crash fail-stops a node: it emits nothing, receives nothing, and
	// in-flight traffic toward it is dropped.
	Crash Kind = iota
	// Restart brings a crashed node back under a fresh incarnation.
	Restart
	// Partition cuts the directed link Node→Peer.
	Partition
	// Heal restores the directed link Node→Peer.
	Heal
)

// String returns the kind's name for logs and test failures.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Restart:
		return "restart"
	case Partition:
		return "partition"
	case Heal:
		return "heal"
	default:
		return fmt.Sprintf("fault.Kind(%d)", uint8(k))
	}
}

// Event is one scheduled fault: at offset At from the start of the run,
// Kind happens to Node (Peer names the far end for partition/heal and is
// empty for crash/restart).
type Event struct {
	At   time.Duration
	Kind Kind
	Node string
	Peer string
}

// Spec parameterises a fault schedule. Rates are per-second; zero rates
// disable the corresponding fault class.
type Spec struct {
	// CrashRate is the expected number of crashes per node per second of
	// up-time (exponential inter-crash times).
	CrashRate float64
	// MTTR is the mean time to restart after a crash (exponential).
	// Required positive when CrashRate is.
	MTTR time.Duration
	// PartitionRate is the expected number of partitions per directed
	// node pair per second of connected time.
	PartitionRate float64
	// MTTH is the mean time to heal after a partition (exponential).
	// Required positive when PartitionRate is.
	MTTH time.Duration
	// Horizon bounds the schedule: no event is emitted at or beyond it.
	// A node whose restart (or heal) would land past the horizon simply
	// stays down — an unhealed fault, which the churn band reports as
	// availability loss, not a violation.
	Horizon time.Duration
}

func (s Spec) validate() error {
	if s.CrashRate < 0 || s.PartitionRate < 0 {
		return fmt.Errorf("fault: negative rate (crash %v, partition %v)", s.CrashRate, s.PartitionRate)
	}
	if s.CrashRate > 0 && s.MTTR <= 0 {
		return fmt.Errorf("fault: CrashRate %v requires positive MTTR (got %v)", s.CrashRate, s.MTTR)
	}
	if s.PartitionRate > 0 && s.MTTH <= 0 {
		return fmt.Errorf("fault: PartitionRate %v requires positive MTTH (got %v)", s.PartitionRate, s.MTTH)
	}
	if s.Horizon < 0 {
		return fmt.Errorf("fault: negative horizon %v", s.Horizon)
	}
	return nil
}

// Enabled reports whether the spec produces any faults at all — the
// cheap gate churn-aware code uses to stay behaviourally inert (no extra
// RNG draws, no extra events) on fault-free runs.
func (s Spec) Enabled() bool {
	return (s.CrashRate > 0 || s.PartitionRate > 0) && s.Horizon > 0
}

// Schedule derives the complete fault schedule for nodes over the spec's
// horizon. Per-node (and, when enabled, per-directed-pair) alternating
// up/down renewal processes are drawn in deterministic order — nodes in
// slice order, pairs in nested slice order — from rng, then merged into
// one event list sorted by (At, Kind, Node, Peer). Calling it twice with
// equal inputs yields equal schedules.
func Schedule(spec Spec, nodes []string, rng *rand.Rand) ([]Event, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if !spec.Enabled() || len(nodes) == 0 {
		return nil, nil
	}
	var events []Event
	if spec.CrashRate > 0 {
		for _, node := range nodes {
			events = drawAlternating(events, rng, spec.CrashRate, spec.MTTR, spec.Horizon,
				Crash, Restart, node, "")
		}
	}
	if spec.PartitionRate > 0 {
		for _, src := range nodes {
			for _, dst := range nodes {
				if src == dst {
					continue
				}
				events = drawAlternating(events, rng, spec.PartitionRate, spec.MTTH, spec.Horizon,
					Partition, Heal, src, dst)
			}
		}
	}
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Peer < b.Peer
	})
	return events, nil
}

// drawAlternating appends one subject's alternating fault/repair renewal
// process: exponential up-times at rate upRate, exponential down-times
// with mean repairMean, truncated at horizon. A repair that would land
// past the horizon is not emitted — the subject stays failed.
func drawAlternating(events []Event, rng *rand.Rand, upRate float64, repairMean, horizon time.Duration, fail, repair Kind, node, peer string) []Event {
	t := time.Duration(0)
	for {
		up := time.Duration(rng.ExpFloat64() / upRate * float64(time.Second))
		t += up
		if t >= horizon {
			return events
		}
		events = append(events, Event{At: t, Kind: fail, Node: node, Peer: peer})
		down := time.Duration(rng.ExpFloat64() * float64(repairMean))
		t += down
		if t >= horizon {
			return events
		}
		events = append(events, Event{At: t, Kind: repair, Node: node, Peer: peer})
	}
}
