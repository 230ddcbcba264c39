// Package sim provides a deterministic discrete-event simulation kernel.
//
// All higher layers of this repository (the simulated network, the protocol
// framework, the middleware platform and the floor-control experiments) run
// on virtual time supplied by a Kernel. Determinism is a design goal: two
// runs with the same seed and the same schedule of calls execute the same
// events in the same order, which makes conformance traces reproducible and
// experiments comparable.
//
// The kernel is intentionally single-threaded: events run one at a time, in
// (time, sequence) order. Public entry points are safe for concurrent use,
// but event handlers themselves always execute sequentially, and Run, RunUntil
// and Step must not be called re-entrantly from inside a handler.
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
//   - the run loop pops all events of one instant in a single critical
//     section and executes them outside the lock, coordinating with
//     concurrent Cancel through a per-timer atomic state word instead of
//     re-locking per event.
//
// Handle-returning scheduling (Schedule, ScheduleAt) stays fully
// concurrency-safe: a Timer whose handle escaped is never recycled, so a
// stale handle can never alias a later timer.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
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

// Timer lifecycle states. Transitions into and out of statePending happen
// under the kernel mutex; the stateRunnable→stateDone transition is a CAS
// raced between the run loop (about to execute) and Cancel, which is what
// keeps the batch execution path lock-free.
const (
	stateDone     int32 = iota // fired, cancelled, or on the free list
	statePending               // in the heap
	stateRunnable              // popped into the current run batch
)

// Timer is a handle to a scheduled event. The zero value is not meaningful;
// timers are created by Kernel.Schedule and Kernel.ScheduleAt.
type Timer struct {
	kernel  *Kernel
	seq     uint64
	at      time.Duration
	fn      func()
	index   int32 // heap index; -1 while not in the heap
	escaped bool  // handle returned to a caller; never recycled
	state   atomic.Int32
}

// When reports the virtual time at which the timer will fire (or fired).
func (t *Timer) When() time.Duration { return t.at }

// Cancel removes the timer from the schedule. It reports whether the timer
// was still pending (true) or had already fired or been cancelled (false).
// An event at the instant currently being executed can still be cancelled
// by an earlier event of the same instant, exactly as if it were in the
// heap.
func (t *Timer) Cancel() bool {
	if t == nil || t.kernel == nil {
		return false
	}
	k := t.kernel
	k.mu.Lock()
	defer k.mu.Unlock()
	switch t.state.Load() {
	case statePending:
		k.queue.remove(int(t.index))
		t.state.Store(stateDone)
		t.fn = nil
		k.pending.Add(-1)
		return true
	case stateRunnable:
		// The timer sits in an executing batch; race the run loop for it.
		if t.state.CompareAndSwap(stateRunnable, stateDone) {
			t.fn = nil
			k.pending.Add(-1)
			return true
		}
		return false
	default:
		return false
	}
}

// Pending reports whether the timer is still scheduled.
func (t *Timer) Pending() bool {
	if t == nil || t.kernel == nil {
		return false
	}
	t.kernel.mu.Lock()
	defer t.kernel.mu.Unlock()
	return t.state.Load() != stateDone
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
	t := r.t
	if t == nil || t.kernel == nil {
		return false
	}
	k := t.kernel
	k.mu.Lock()
	defer k.mu.Unlock()
	if t.seq != r.seq {
		return false // recycled into a later event: stale ref
	}
	switch t.state.Load() {
	case statePending:
		k.queue.remove(int(t.index))
		t.state.Store(stateDone)
		t.fn = nil
		k.pending.Add(-1)
		// Unlike an escaped *Timer handle, the ref self-invalidates via
		// the seq check, so a cancelled timer can go straight back to the
		// free list — this is what keeps arm/cancel loops allocation-free.
		k.free = append(k.free, t)
		return true
	case stateRunnable:
		if t.state.CompareAndSwap(stateRunnable, stateDone) {
			t.fn = nil
			k.pending.Add(-1)
			return true
		}
		return false
	default:
		return false
	}
}

// Pending reports whether the referenced timer is still scheduled.
func (r TimerRef) Pending() bool {
	t := r.t
	if t == nil || t.kernel == nil {
		return false
	}
	t.kernel.mu.Lock()
	defer t.kernel.mu.Unlock()
	return t.seq == r.seq && t.state.Load() != stateDone
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
	mu         sync.Mutex
	now        time.Duration
	seq        uint64
	queue      timerHeap
	free       []*Timer // recycled non-escaped timers
	batch      []*Timer // events of the instant being executed
	rng        *rand.Rand
	eventLimit int

	stopped  atomic.Bool
	executed atomic.Uint64
	// pending mirrors queue length + runnable batch entries so Pending
	// can serve the stats path lock-free, like the executed counter. It
	// is incremented on schedule and decremented exactly once per event
	// on execution or successful cancellation.
	pending atomic.Int64
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
func (k *Kernel) Now() time.Duration {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.now
}

// Executed returns the total number of events executed so far. It is used
// by experiments as a platform-neutral proxy for computational work.
func (k *Kernel) Executed() uint64 { return k.executed.Load() }

// Pending returns the number of scheduled, not yet executed events. It
// reads a cached length maintained alongside the heap, so the stats
// path never contends with the scheduling hot path for the kernel lock
// (the same pattern as Executed).
func (k *Kernel) Pending() int { return int(k.pending.Load()) }

// Rand returns the kernel's deterministic random source. It must only be
// used from inside event handlers (or before the simulation starts) to keep
// runs reproducible.
func (k *Kernel) Rand() *rand.Rand {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.rng
}

// Schedule arranges for fn to run after delay of virtual time. A negative
// delay is treated as zero. Events scheduled for the same instant run in
// scheduling order (FIFO).
//
// Schedule returns a cancellable handle; because the handle escapes, the
// underlying Timer is never recycled. Callers that do not need to cancel
// should prefer ScheduleFunc, which is allocation-free at steady state.
func (k *Kernel) Schedule(delay time.Duration, fn func()) *Timer {
	if delay < 0 {
		delay = 0
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.scheduleLocked(k.now+delay, fn, true)
}

// ScheduleAt arranges for fn to run at absolute virtual time at. Times in
// the past are clamped to the current instant.
func (k *Kernel) ScheduleAt(at time.Duration, fn func()) *Timer {
	k.mu.Lock()
	defer k.mu.Unlock()
	if at < k.now {
		at = k.now
	}
	return k.scheduleLocked(at, fn, true)
}

// ScheduleFunc is the fire-and-forget fast path: like Schedule, but it
// returns no handle, which lets the kernel recycle the timer through its
// free list. Steady-state ScheduleFunc+Run does not allocate.
//
//repolint:hotpath
func (k *Kernel) ScheduleFunc(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	k.mu.Lock()
	k.scheduleLocked(k.now+delay, fn, false)
	k.mu.Unlock()
}

// ScheduleFuncRef is ScheduleFunc with a cancellable TimerRef: the timer
// still recycles through the free list (scheduling stays allocation-free
// at steady state), and the returned ref self-invalidates once the event
// fires, is cancelled, or the struct is recycled. Use it where a hot
// path needs Schedule's cancellation without its per-call Timer
// allocation.
func (k *Kernel) ScheduleFuncRef(delay time.Duration, fn func()) TimerRef {
	if delay < 0 {
		delay = 0
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	t := k.scheduleLocked(k.now+delay, fn, false)
	return TimerRef{t: t, seq: t.seq}
}

// ScheduleBatch schedules every entry under a single lock acquisition, in
// slice order (so same-instant entries fire FIFO in slice order). Like
// ScheduleFunc it returns no handles and recycles timers. It is the entry
// point used by the simulated network for link delivery and by the
// middleware platform for pub/sub fan-out.
//
//repolint:hotpath
func (k *Kernel) ScheduleBatch(entries []BatchEntry) {
	if len(entries) == 0 {
		return
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	for i := range entries {
		d := entries[i].Delay
		if d < 0 {
			d = 0
		}
		k.scheduleLocked(k.now+d, entries[i].Fn, false)
	}
}

//repolint:hotpath
func (k *Kernel) scheduleLocked(at time.Duration, fn func(), escaped bool) *Timer {
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
	t.state.Store(statePending)
	k.pending.Add(1)
	k.queue.push(t)
	return t
}

// recycleBatchLocked returns executed (or cancelled) non-escaped timers of
// the previous batch to the free list. Timers that were pushed back into
// the heap by an aborted batch are statePending and skipped.
//
//repolint:hotpath
func (k *Kernel) recycleBatchLocked() {
	for i, t := range k.batch {
		if !t.escaped && t.state.Load() == stateDone {
			k.free = append(k.free, t)
		}
		k.batch[i] = nil
	}
	k.batch = k.batch[:0]
}

// Stop aborts any in-progress Run at the next event boundary. Pending
// events remain queued.
func (k *Kernel) Stop() { k.stopped.Store(true) }

// Step executes the single next event, if any, advancing virtual time to
// the event's instant. It reports whether an event was executed. Like the
// Run variants, Step honours a preceding Stop: the stop flag is consumed
// and no event runs.
//
//repolint:hotpath
func (k *Kernel) Step() bool {
	k.mu.Lock()
	k.recycleBatchLocked()
	if k.stopped.CompareAndSwap(true, false) {
		k.mu.Unlock()
		return false
	}
	if k.queue.len() == 0 {
		k.mu.Unlock()
		return false
	}
	t := k.queue.popMin()
	t.state.Store(stateDone)
	k.pending.Add(-1)
	k.now = t.at
	k.executed.Add(1)
	fn := t.fn
	t.fn = nil
	if !t.escaped {
		k.free = append(k.free, t)
	}
	k.mu.Unlock()
	fn()
	return true
}

// Run executes events until the queue is empty. It returns the number of
// events executed. It returns ErrStopped if Stop was called, or an error if
// the configured event limit was exceeded.
func (k *Kernel) Run() (int, error) {
	return k.run(nil)
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline (even if no event fired exactly there). Events
// scheduled after the deadline stay queued.
func (k *Kernel) RunUntil(deadline time.Duration) (int, error) {
	n, err := k.run(func() bool {
		return k.queue.min().at <= deadline
	})
	k.mu.Lock()
	if k.now < deadline {
		k.now = deadline
	}
	k.mu.Unlock()
	return n, err
}

// run executes events while cond (evaluated under the lock, with a
// non-empty queue) holds; a nil cond means "always" and skips the
// per-pop indirect call on the unconditional Run path.
//
// Each loop iteration pops every event of the earliest instant into a
// batch in one critical section and executes the batch outside the lock:
// the mutex is taken per instant, not per event. Handlers scheduling new
// work for the same instant are still ordered correctly — their sequence
// numbers exceed those of the batch, so they join the next batch of the
// same instant. Stop and the event limit are checked between events
// (lock-free), and an aborted batch pushes its unexecuted tail back into
// the heap with the original (at, seq) keys, which restores the exact
// order.
func (k *Kernel) run(cond func() bool) (int, error) {
	executed := 0
	for {
		k.mu.Lock()
		k.recycleBatchLocked()
		if k.stopped.CompareAndSwap(true, false) {
			k.mu.Unlock()
			return executed, ErrStopped
		}
		if k.queue.len() == 0 || (cond != nil && !cond()) {
			k.mu.Unlock()
			return executed, nil
		}
		// Check the limit before advancing the clock so the error (and
		// Now) report the last *executed* instant, not the next one.
		if k.eventLimit > 0 && executed >= k.eventLimit {
			k.mu.Unlock()
			return executed, fmt.Errorf("sim: event limit %d exceeded at t=%v", k.eventLimit, k.now)
		}
		at := k.queue.min().at
		k.now = at
		for k.queue.len() > 0 && k.queue.min().at == at {
			t := k.queue.popMin()
			t.state.Store(stateRunnable)
			k.batch = append(k.batch, t)
		}
		k.mu.Unlock()

		for i, t := range k.batch {
			if k.stopped.CompareAndSwap(true, false) {
				k.abortBatchFrom(i)
				return executed, ErrStopped
			}
			// i > 0 here: the boundary check above guarantees budget for
			// the batch's first event, so an exhausted limit mid-batch
			// always follows an executed event of this same instant.
			if k.eventLimit > 0 && executed >= k.eventLimit {
				k.abortBatchFrom(i)
				return executed, fmt.Errorf("sim: event limit %d exceeded at t=%v", k.eventLimit, at)
			}
			if !t.state.CompareAndSwap(stateRunnable, stateDone) {
				continue // cancelled while in the batch
			}
			fn := t.fn
			t.fn = nil
			k.pending.Add(-1)
			k.executed.Add(1)
			fn()
			executed++
		}
	}
}

// abortBatchFrom pushes the unexecuted batch tail starting at index i back
// into the heap and recycles the executed prefix.
func (k *Kernel) abortBatchFrom(i int) {
	k.mu.Lock()
	for _, t := range k.batch[i:] {
		if t.state.CompareAndSwap(stateRunnable, statePending) {
			k.queue.push(t)
		}
	}
	k.recycleBatchLocked()
	k.mu.Unlock()
}
