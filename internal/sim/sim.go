// Package sim provides a deterministic discrete-event simulation kernel.
//
// All higher layers of this repository (the simulated network, the protocol
// framework, the middleware platform and the floor-control experiments) run
// on virtual time supplied by a Kernel. Determinism is a design goal: two
// runs with the same seed and the same schedule of calls execute the same
// events in the same order, which makes conformance traces reproducible and
// experiments comparable.
//
// The kernel is single-threaded: events run one at a time, in (time,
// sequence) order, and Run, RunUntil and Step must not be called
// re-entrantly from inside a handler.
//
// # Ownership
//
// A kernel, and every network, protocol layer, platform, port and
// observer built on it, belongs to the one goroutine that runs it. None
// of them takes a lock: scheduling, cancelling and every layer's state
// change happen either inside event handlers or on the owning goroutine
// between runs. Parallelism is the runner's policy, not a property of
// the simulated layers: the runner gives every scenario its own kernel
// and drives each on one worker goroutine, so scenarios share no
// simulated state.
//
// # Hot path
//
// The scheduler is built for throughput on the steady-state path:
//
//   - the pending queue is a concrete 4-ary min-heap ([timerHeap]) with no
//     container/heap interface boxing;
//   - every timer recycles through a free list as soon as it fires or is
//     cancelled, so steady-state scheduling does not allocate, with or
//     without a handle;
//   - the run loop pops one event, recycles its timer and runs it, so a
//     timer is pending exactly while it sits in the heap.
//
// A [TimerRef] names its timer by sequence number, so a ref kept after
// its event fired or was cancelled stays inert when the timer is reused.
//
// # Buffers
//
// The kernel also owns the free list of codec buffers ([Kernel.Buffers])
// that every layer built on it encodes into and delivers from. Like the
// timers, the buffers belong to the kernel's goroutine: the list takes
// no lock, and no two kernels exchange buffers.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/codec"
)

// ErrStopped is returned by Run variants when the kernel was explicitly
// stopped before the run condition was reached.
var ErrStopped = errors.New("sim: kernel stopped")

// Option configures a Kernel.
type Option func(*Kernel)

// WithSeed sets the seed of the kernel's deterministic random source.
// The default seed is 1.
func WithSeed(seed int64) Option {
	return func(k *Kernel) { k.seed = seed }
}

// WithEventLimit bounds the total number of events a single Run call may
// execute. Zero (the default) means no limit. The limit is a safety net for
// runaway models (for example a polling loop with zero interval).
func WithEventLimit(n int) Option {
	return func(k *Kernel) { k.eventLimit = n }
}

// timer is one scheduled event, an element of the kernel's heap. Timers
// recycle through the kernel's free list; a timer is pending exactly
// while it is in the heap (index >= 0).
type timer struct {
	kernel *Kernel
	seq    uint64
	at     time.Duration
	fn     func()
	index  int32 // heap index; -1 while not in the heap
}

// TimerRef is a cancellable handle to an event scheduled by
// Kernel.Schedule. It does not pin the event's timer: the kernel recycles
// the timer as soon as the event fires or is cancelled, and the ref
// checks itself against the timer's unique sequence number, so a stale
// ref (whose timer now carries a later event) is inert.
//
// The zero TimerRef is valid and inert: Cancel and Pending return false.
type TimerRef struct {
	t   *timer
	seq uint64
}

// Cancel removes the referenced event from the schedule, reporting
// whether it was still pending. Cancelling a fired or already-cancelled
// event is a no-op returning false. An event at the instant currently
// being executed can still be cancelled by an earlier event of the same
// instant: it is still in the heap.
func (r TimerRef) Cancel() bool {
	if !r.Pending() {
		return false
	}
	t := r.t
	k := t.kernel
	k.queue.remove(int(t.index))
	t.fn = nil
	k.free = append(k.free, t)
	return true
}

// Pending reports whether the referenced event is still scheduled.
func (r TimerRef) Pending() bool {
	return r.t != nil && r.t.index >= 0 && r.t.seq == r.seq
}

// Kernel is a deterministic discrete-event scheduler over virtual time.
// Create one with NewKernel; the zero value is not usable.
type Kernel struct {
	now        time.Duration
	seq        uint64
	queue      timerHeap
	free       []*timer // recycled timers
	bufs       codec.BufferList
	rng        *rand.Rand
	seed       int64 // of rng, set by WithSeed
	eventLimit int
	stopped    bool
	executed   uint64
}

// NewKernel returns a kernel at virtual time zero. Its random source is
// built once, after the options have set the seed.
func NewKernel(opts ...Option) *Kernel {
	k := &Kernel{seed: 1}
	for _, opt := range opts {
		opt(k)
	}
	k.rng = rand.New(rand.NewSource(k.seed))
	return k
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// Executed returns the total number of events executed so far. It is used
// by experiments as a platform-neutral proxy for computational work.
func (k *Kernel) Executed() uint64 { return k.executed }

// Pending returns the number of scheduled, not yet executed events.
func (k *Kernel) Pending() int { return k.queue.len() }

// Rand returns the kernel's deterministic random source. It must only be
// used from inside event handlers (or before the simulation starts) to keep
// runs reproducible.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Buffers returns the kernel's buffer free list. Every layer running on
// the kernel takes its encode and delivery buffers from it.
func (k *Kernel) Buffers() *codec.BufferList { return &k.bufs }

// Schedule arranges for fn to run after delay of virtual time and
// returns a handle that can cancel it. A negative delay is treated as
// zero. Events scheduled for the same instant run in scheduling order
// (FIFO). Steady-state Schedule+Run and Schedule+Cancel do not allocate.
//
//repolint:hotpath
func (k *Kernel) Schedule(delay time.Duration, fn func()) TimerRef {
	if fn == nil {
		panic("sim: Schedule called with nil function")
	}
	k.seq++
	var t *timer
	if n := len(k.free); n > 0 {
		t = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		t = &timer{kernel: k}
	}
	t.seq = k.seq
	t.at = k.now + max(delay, 0)
	t.fn = fn
	k.queue.push(t)
	return TimerRef{t: t, seq: t.seq}
}

// ScheduleFunc is Schedule for callers that never cancel: it returns no
// handle.
//
//repolint:hotpath
func (k *Kernel) ScheduleFunc(delay time.Duration, fn func()) {
	k.Schedule(delay, fn)
}

// Stop aborts any in-progress Run at the next event boundary. Pending
// events remain queued.
func (k *Kernel) Stop() { k.stopped = true }

// consumeStop reports whether Stop was called since the last run
// boundary, clearing the flag.
func (k *Kernel) consumeStop() bool {
	stopped := k.stopped
	k.stopped = false
	return stopped
}

// Step executes the single next event, if any, advancing virtual time to
// the event's instant. It reports whether an event was executed. Like the
// Run variants, Step honours a preceding Stop: the stop flag is consumed
// and no event runs.
//
//repolint:hotpath
func (k *Kernel) Step() bool {
	if k.consumeStop() || k.queue.len() == 0 {
		return false
	}
	k.fire()
	return true
}

// fire pops the earliest event, advances the clock to it, recycles its
// timer and runs it. The timer is recycled before the handler runs, so a
// handler that schedules may reuse it at once; a stale TimerRef to it is
// inert by its sequence number.
//
//repolint:hotpath
func (k *Kernel) fire() {
	t := k.queue.popMin()
	k.now = t.at
	k.executed++
	fn := t.fn
	t.fn = nil
	k.free = append(k.free, t)
	fn()
}

// Run executes events until the queue is empty. It returns the number of
// events executed. It returns ErrStopped if Stop was called, or an error if
// the configured event limit was exceeded.
func (k *Kernel) Run() (int, error) {
	return k.run(math.MaxInt64)
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline (even if no event fired exactly there). Events
// scheduled after the deadline stay queued. A run cut short by Stop or
// the event limit leaves the clock at the last executed event, so a
// later run still fires the events before the deadline in time order.
func (k *Kernel) RunUntil(deadline time.Duration) (int, error) {
	n, err := k.run(deadline)
	if err == nil && k.now < deadline {
		k.now = deadline
	}
	return n, err
}

// run executes events with timestamps <= deadline one at a time. Stop
// and the event limit are checked between events; the limit is checked
// before the clock advances, so the error (and Now) report the last
// executed instant, not the next one.
func (k *Kernel) run(deadline time.Duration) (int, error) {
	executed := 0
	for {
		if k.consumeStop() {
			return executed, ErrStopped
		}
		if k.queue.len() == 0 || k.queue.min().at > deadline {
			return executed, nil
		}
		if k.eventLimit > 0 && executed >= k.eventLimit {
			return executed, fmt.Errorf("sim: event limit %d exceeded at t=%v", k.eventLimit, k.now)
		}
		k.fire()
		executed++
	}
}
