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
//   - fire-and-forget scheduling (ScheduleFunc, ScheduleBatch) recycles
//     Timer structs through a free list, so steady-state scheduling does
//     not allocate;
//   - the run loop pops one event, recycles its timer and runs it, so a
//     timer is pending exactly while it sits in the heap.
//
// A Timer whose handle escaped (Schedule, ScheduleAt) is never recycled,
// so a stale handle can never alias a later timer.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// ErrStopped is returned by Run variants when the kernel was explicitly
// stopped before the run condition was reached.
var ErrStopped = errors.New("sim: kernel stopped")

// Option configures a Kernel.
type Option func(*Kernel)

// WithSeed sets the seed of the kernel's deterministic random source.
// The default seed is 1.
func WithSeed(seed int64) Option {
	return func(k *Kernel) { k.rng = rand.New(rand.NewSource(seed)) }
}

// WithEventLimit bounds the total number of events a single Run call may
// execute. Zero (the default) means no limit. The limit is a safety net for
// runaway models (for example a polling loop with zero interval).
func WithEventLimit(n int) Option {
	return func(k *Kernel) { k.eventLimit = n }
}

// Timer is a handle to a scheduled event. The zero value is not meaningful;
// timers are created by Kernel.Schedule and Kernel.ScheduleAt. A timer is
// pending exactly while it is in the kernel's heap (index >= 0).
type Timer struct {
	kernel  *Kernel
	seq     uint64
	at      time.Duration
	fn      func()
	index   int32 // heap index; -1 while not in the heap
	escaped bool  // handle returned to a caller; never recycled
}

// When reports the virtual time at which the timer will fire (or fired).
func (t *Timer) When() time.Duration { return t.at }

// Cancel removes the timer from the schedule. It reports whether the timer
// was still pending (true) or had already fired or been cancelled (false).
// An event at the instant currently being executed can still be cancelled
// by an earlier event of the same instant: it is still in the heap.
func (t *Timer) Cancel() bool {
	if !t.Pending() {
		return false
	}
	t.kernel.queue.remove(int(t.index))
	t.fn = nil
	return true
}

// Pending reports whether the timer is still scheduled.
func (t *Timer) Pending() bool {
	return t != nil && t.kernel != nil && t.index >= 0
}

// TimerRef is a lightweight, recyclable handle to a fire-and-forget
// timer, created by Kernel.ScheduleFuncRef. Unlike *Timer handles from
// Schedule, a TimerRef does not pin the underlying Timer struct: the
// kernel recycles it through the free list as soon as the event fires or
// is cancelled, and the ref validates itself against the timer's unique
// sequence number — a stale ref (whose timer has been recycled into a
// later event) is simply inert. That makes TimerRef the right handle for
// hot paths that arm and cancel timers per message (e.g. retransmission
// timers) without allocating a Timer per arm.
//
// The zero TimerRef is valid and inert: Cancel and Pending return false.
type TimerRef struct {
	t   *Timer
	seq uint64
}

// Cancel removes the referenced timer from the schedule, reporting
// whether it was still pending. Cancelling a fired, already-cancelled or
// recycled timer is a safe no-op returning false.
func (r TimerRef) Cancel() bool {
	if !r.Pending() {
		return false
	}
	t := r.t
	k := t.kernel
	k.queue.remove(int(t.index))
	t.fn = nil
	// Unlike an escaped *Timer handle, the ref self-invalidates via the
	// seq check, so a cancelled timer can go straight back to the free
	// list — this is what keeps arm/cancel loops allocation-free.
	k.free = append(k.free, t)
	return true
}

// Pending reports whether the referenced timer is still scheduled.
func (r TimerRef) Pending() bool {
	return r.t.Pending() && r.t.seq == r.seq
}

// BatchEntry describes one fire-and-forget event for ScheduleBatch. A
// negative Delay is treated as zero.
type BatchEntry struct {
	Delay time.Duration
	Fn    func()
}

// Kernel is a deterministic discrete-event scheduler over virtual time.
// Create one with NewKernel; the zero value is not usable.
type Kernel struct {
	now        time.Duration
	seq        uint64
	queue      timerHeap
	free       []*Timer // recycled non-escaped timers
	rng        *rand.Rand
	eventLimit int
	stopped    bool
	executed   uint64
}

// NewKernel returns a kernel at virtual time zero.
func NewKernel(opts ...Option) *Kernel {
	k := &Kernel{rng: rand.New(rand.NewSource(1))}
	for _, opt := range opts {
		opt(k)
	}
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

// Schedule arranges for fn to run after delay of virtual time. A negative
// delay is treated as zero. Events scheduled for the same instant run in
// scheduling order (FIFO).
//
// Schedule returns a cancellable handle; because the handle escapes, the
// underlying Timer is never recycled. Callers that do not need to cancel
// should prefer ScheduleFunc, which is allocation-free at steady state.
func (k *Kernel) Schedule(delay time.Duration, fn func()) *Timer {
	return k.schedule(k.now+max(delay, 0), fn, true)
}

// ScheduleAt arranges for fn to run at absolute virtual time at. Times in
// the past are clamped to the current instant.
func (k *Kernel) ScheduleAt(at time.Duration, fn func()) *Timer {
	return k.schedule(max(at, k.now), fn, true)
}

// ScheduleFunc is the fire-and-forget fast path: like Schedule, but it
// returns no handle, which lets the kernel recycle the timer through its
// free list. Steady-state ScheduleFunc+Run does not allocate.
//
//repolint:hotpath
func (k *Kernel) ScheduleFunc(delay time.Duration, fn func()) {
	k.schedule(k.now+max(delay, 0), fn, false)
}

// ScheduleFuncRef is ScheduleFunc with a cancellable TimerRef: the timer
// still recycles through the free list (scheduling stays allocation-free
// at steady state), and the returned ref self-invalidates once the event
// fires, is cancelled, or the struct is recycled. Use it where a hot
// path needs Schedule's cancellation without its per-call Timer
// allocation.
func (k *Kernel) ScheduleFuncRef(delay time.Duration, fn func()) TimerRef {
	t := k.schedule(k.now+max(delay, 0), fn, false)
	return TimerRef{t: t, seq: t.seq}
}

// ScheduleBatch schedules every entry in slice order (so same-instant
// entries fire FIFO in slice order). Like ScheduleFunc it returns no
// handles and recycles timers. It is the entry point used by the
// simulated network for link delivery and by the middleware platform for
// pub/sub fan-out.
//
//repolint:hotpath
func (k *Kernel) ScheduleBatch(entries []BatchEntry) {
	for i := range entries {
		k.schedule(k.now+max(entries[i].Delay, 0), entries[i].Fn, false)
	}
}

//repolint:hotpath
func (k *Kernel) schedule(at time.Duration, fn func(), escaped bool) *Timer {
	if fn == nil {
		panic("sim: Schedule called with nil function")
	}
	k.seq++
	var t *Timer
	if n := len(k.free); n > 0 {
		t = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		t = &Timer{kernel: k}
	}
	t.seq = k.seq
	t.at = at
	t.fn = fn
	t.escaped = escaped
	k.queue.push(t)
	return t
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
	if !t.escaped {
		k.free = append(k.free, t)
	}
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
