package sim

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	k.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	k.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	n, err := k.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 3 {
		t.Fatalf("executed %d events, want 3", n)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if k.Now() != 30*time.Millisecond {
		t.Fatalf("Now = %v, want 30ms", k.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	if _, err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	k := NewKernel()
	fired := false
	k.Schedule(-time.Second, func() { fired = true })
	if _, err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired {
		t.Fatal("event with negative delay did not fire")
	}
	if k.Now() != 0 {
		t.Fatalf("Now = %v, want 0", k.Now())
	}
}

// TestScheduleAtPastClamps schedules, from a handler at 10ms, an event
// for 1ms (a negative delay): it must fire at the current instant, never
// moving the clock backwards.
func TestScheduleAtPastClamps(t *testing.T) {
	k := NewKernel()
	var firedAt time.Duration = -1
	k.Schedule(10*time.Millisecond, func() {
		k.Schedule(time.Millisecond-k.Now(), func() { firedAt = k.Now() })
	})
	if _, err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if firedAt != 10*time.Millisecond || k.Now() != 10*time.Millisecond {
		t.Fatalf("past event fired at %v, Now = %v; want both 10ms", firedAt, k.Now())
	}
}

func TestReentrantScheduling(t *testing.T) {
	k := NewKernel()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			k.Schedule(time.Second, tick)
		}
	}
	k.Schedule(0, tick)
	n, err := k.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 5 || count != 5 {
		t.Fatalf("n=%d count=%d, want 5", n, count)
	}
	if k.Now() != 4*time.Second {
		t.Fatalf("Now = %v, want 4s", k.Now())
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	timer := k.Schedule(time.Second, func() { fired = true })
	if !timer.Pending() {
		t.Fatal("timer should be pending")
	}
	if !timer.Cancel() {
		t.Fatal("Cancel should report true for pending timer")
	}
	if timer.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	if timer.Pending() {
		t.Fatal("cancelled timer should not be pending")
	}
	if _, err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestCancelMiddleOfQueue(t *testing.T) {
	k := NewKernel()
	var got []int
	k.Schedule(1*time.Millisecond, func() { got = append(got, 1) })
	mid := k.Schedule(2*time.Millisecond, func() { got = append(got, 2) })
	k.Schedule(3*time.Millisecond, func() { got = append(got, 3) })
	mid.Cancel()
	if _, err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("got %v, want [1 3]", got)
	}
}

func TestCancelAfterFire(t *testing.T) {
	k := NewKernel()
	timer := k.Schedule(0, func() {})
	if _, err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if timer.Cancel() {
		t.Fatal("Cancel after fire should report false")
	}
	if timer.Pending() {
		t.Fatal("fired timer should not be pending")
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	var got []int
	k.Schedule(1*time.Second, func() { got = append(got, 1) })
	k.Schedule(2*time.Second, func() { got = append(got, 2) })
	k.Schedule(3*time.Second, func() { got = append(got, 3) })
	n, err := k.RunUntil(2 * time.Second)
	if err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if n != 2 {
		t.Fatalf("executed %d, want 2", n)
	}
	if k.Now() != 2*time.Second {
		t.Fatalf("Now = %v, want 2s", k.Now())
	}
	if k.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", k.Pending())
	}
	// Resume.
	if _, err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("got %v, want all three", got)
	}
}

func TestRunUntilAdvancesClockWithoutEvents(t *testing.T) {
	k := NewKernel()
	if _, err := k.RunUntil(5 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if k.Now() != 5*time.Second {
		t.Fatalf("Now = %v, want 5s", k.Now())
	}
}

// TestRunUntilStoppedKeepsClockMonotonic: a RunUntil cut short by Stop
// (or the event limit) must leave the clock at the last executed event,
// not at the deadline — otherwise the events it left queued before the
// deadline would later fire with the clock moving backwards.
func TestRunUntilStoppedKeepsClockMonotonic(t *testing.T) {
	for _, limited := range []bool{false, true} {
		var k *Kernel
		if limited {
			k = NewKernel(WithEventLimit(1))
		} else {
			k = NewKernel()
		}
		var firedAt []time.Duration
		k.Schedule(5*time.Microsecond, func() {
			firedAt = append(firedAt, k.Now())
			if !limited {
				k.Stop()
			}
		})
		k.Schedule(7*time.Microsecond, func() { firedAt = append(firedAt, k.Now()) })
		n, err := k.RunUntil(10 * time.Microsecond)
		if err == nil || n != 1 {
			t.Fatalf("limited=%v: RunUntil = (%d, %v), want 1 event and an error", limited, n, err)
		}
		if k.Now() != 5*time.Microsecond {
			t.Fatalf("limited=%v: Now = %v after the cut-short RunUntil, want 5µs", limited, k.Now())
		}
		if _, err := k.Run(); err != nil {
			t.Fatalf("limited=%v: Run: %v", limited, err)
		}
		if len(firedAt) != 2 || firedAt[1] != 7*time.Microsecond {
			t.Fatalf("limited=%v: events fired at %v, want [5µs 7µs]", limited, firedAt)
		}
	}
}

func TestStop(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 0; i < 10; i++ {
		k.Schedule(time.Duration(i)*time.Millisecond, func() {
			count++
			if count == 3 {
				k.Stop()
			}
		})
	}
	n, err := k.Run()
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if n != 3 {
		t.Fatalf("executed %d, want 3", n)
	}
	// A subsequent Run drains the rest.
	n, err = k.Run()
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if n != 7 {
		t.Fatalf("second Run executed %d, want 7", n)
	}
}

func TestEventLimit(t *testing.T) {
	k := NewKernel(WithEventLimit(100))
	var loop func()
	loop = func() { k.Schedule(0, loop) }
	k.Schedule(0, loop)
	_, err := k.Run()
	if err == nil {
		t.Fatal("expected event-limit error")
	}
}

func TestStep(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.Schedule(time.Millisecond, func() { fired++ })
	k.Schedule(2*time.Millisecond, func() { fired++ })
	if !k.Step() {
		t.Fatal("Step should execute first event")
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if !k.Step() {
		t.Fatal("Step should execute second event")
	}
	if k.Step() {
		t.Fatal("Step on empty queue should report false")
	}
}

// TestEventLimitKeepsClockAtLastExecuted pins the abort semantics: when
// the event limit trips, Now() and the error report the last *executed*
// instant, not the instant of the event that would have run next.
func TestEventLimitKeepsClockAtLastExecuted(t *testing.T) {
	k := NewKernel(WithEventLimit(1))
	k.Schedule(time.Millisecond, func() {})
	k.Schedule(2*time.Millisecond, func() {})
	n, err := k.Run()
	if err == nil {
		t.Fatal("expected event-limit error")
	}
	if n != 1 {
		t.Fatalf("executed %d, want 1", n)
	}
	if k.Now() != time.Millisecond {
		t.Fatalf("Now = %v, want 1ms (last executed instant)", k.Now())
	}
	if !strings.Contains(err.Error(), "t=1ms") {
		t.Fatalf("error %q should report t=1ms", err)
	}
	if k.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", k.Pending())
	}
}

// TestEventLimitAbortsMidBatch: all four events share one instant, so
// the limit trips between events of that instant and the unexecuted ones
// must stay queued under their original keys. The limit is per Run, so a
// second Run drains them in FIFO order.
func TestEventLimitAbortsMidBatch(t *testing.T) {
	k := NewKernel(WithEventLimit(2))
	var got []int
	for i := 0; i < 4; i++ {
		k.ScheduleFunc(time.Millisecond, func() { got = append(got, i) })
	}
	n, err := k.Run()
	if err == nil || n != 2 {
		t.Fatalf("limited Run = (%d, %v), want 2 events and a limit error", n, err)
	}
	if k.Pending() != 2 {
		t.Fatalf("Pending = %d after a mid-instant abort, want 2", k.Pending())
	}
	if n, err := k.Run(); err != nil || n != 2 {
		t.Fatalf("second Run = (%d, %v), want (2, nil)", n, err)
	}
	want := []int{0, 1, 2, 3} // replay preserves the original FIFO order
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestStepHonorsStop(t *testing.T) {
	k := NewKernel()
	fired := false
	k.Schedule(time.Millisecond, func() { fired = true })
	k.Stop()
	if k.Step() {
		t.Fatal("Step after Stop should not execute an event")
	}
	if fired {
		t.Fatal("event fired despite Stop")
	}
	// The stop flag is consumed, exactly as in Run: the next Step proceeds.
	if !k.Step() {
		t.Fatal("Step after a consumed stop should execute")
	}
	if !fired {
		t.Fatal("event did not fire after consumed stop")
	}
}

// TestScheduleFuncFIFOWithSchedule mixes the handle and handle-less
// calls: one (time, sequence) order covers both, and a negative delay
// clamps to the current instant.
func TestScheduleFuncFIFOWithSchedule(t *testing.T) {
	k := NewKernel()
	var got []int
	k.Schedule(2*time.Millisecond, func() { got = append(got, 10) })
	k.ScheduleFunc(2*time.Millisecond, func() { got = append(got, 11) })
	k.ScheduleFunc(time.Millisecond, func() { got = append(got, 12) })
	k.Schedule(2*time.Millisecond, func() { got = append(got, 13) })
	k.ScheduleFunc(-time.Second, func() { got = append(got, 14) })
	n, err := k.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 5 {
		t.Fatalf("executed %d, want 5", n)
	}
	want := []int{14, 12, 10, 11, 13}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mixed-path order %v, want %v", got, want)
		}
	}
}

// TestFreeListReuse pins the allocation-free steady state: after
// warm-up, every timer recycles through the free list, whether it was
// scheduled with or without a handle and whether it fired or was
// cancelled.
func TestFreeListReuse(t *testing.T) {
	fn := func() {}
	cycles := []struct {
		name  string
		cycle func(t *testing.T, k *Kernel)
	}{
		{"ScheduleFunc_Run", func(t *testing.T, k *Kernel) {
			for i := 0; i < 100; i++ {
				k.ScheduleFunc(time.Duration(i)*time.Microsecond, fn)
			}
			if _, err := k.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
		}},
		{"Schedule_Run", func(t *testing.T, k *Kernel) {
			for i := 0; i < 100; i++ {
				k.Schedule(time.Duration(i)*time.Microsecond, fn)
			}
			if _, err := k.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
		}},
		{"Schedule_Cancel", func(t *testing.T, k *Kernel) {
			if !k.Schedule(time.Hour, fn).Cancel() {
				t.Fatal("Cancel of a pending timer reported false")
			}
		}},
	}
	for _, c := range cycles {
		t.Run(c.name, func(t *testing.T) {
			k := NewKernel()
			c.cycle(t, k) // warm-up: fills the free list
			if allocs := testing.AllocsPerRun(50, func() { c.cycle(t, k) }); allocs != 0 {
				t.Fatalf("steady-state %s allocates %.1f per cycle, want 0", c.name, allocs)
			}
		})
	}
}

// TestSeedStream pins the kernel's random source: NewKernel(WithSeed(s))
// draws the stream of rand.New(rand.NewSource(s)), and a kernel without
// WithSeed draws seed 1's. The source is built once, after the options,
// so a seeded kernel costs no more allocation than an unseeded one.
func TestSeedStream(t *testing.T) {
	for _, c := range []struct {
		name string
		k    *Kernel
		seed int64
	}{
		{"default", NewKernel(), 1},
		{"seed 42", NewKernel(WithSeed(42)), 42},
		{"seed -7", NewKernel(WithSeed(-7), WithEventLimit(5)), -7},
		{"last seed wins", NewKernel(WithSeed(3), WithSeed(9)), 9},
	} {
		want := rand.New(rand.NewSource(c.seed))
		for i := 0; i < 100; i++ {
			if got, w := c.k.Rand().Int63(), want.Int63(); got != w {
				t.Fatalf("%s: draw %d = %d, want %d", c.name, i, got, w)
			}
		}
	}
	unseeded := testing.AllocsPerRun(20, func() { NewKernel() })
	seeded := testing.AllocsPerRun(20, func() { NewKernel(WithSeed(42)) })
	if seeded > unseeded+1 { // +1: the option's closure
		t.Errorf("NewKernel(WithSeed) allocates %.0f, NewKernel %.0f: the source is built twice", seeded, unseeded)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func(seed int64) []time.Duration {
		k := NewKernel(WithSeed(seed))
		var out []time.Duration
		var step func()
		step = func() {
			out = append(out, k.Now())
			if len(out) < 50 {
				k.Schedule(time.Duration(k.Rand().Intn(1000))*time.Microsecond, step)
			}
		}
		k.Schedule(0, step)
		if _, err := k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return out
	}
	a, b := trace(42), trace(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := trace(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces (suspicious)")
	}
}

func TestExecutedCounter(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 7; i++ {
		k.Schedule(0, func() {})
	}
	if _, err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if k.Executed() != 7 {
		t.Fatalf("Executed = %d, want 7", k.Executed())
	}
}

func TestNilFuncPanics(t *testing.T) {
	calls := map[string]func(k *Kernel){
		"Schedule":     func(k *Kernel) { k.Schedule(0, nil) },
		"ScheduleFunc": func(k *Kernel) { k.ScheduleFunc(0, nil) },
	}
	for name, call := range calls {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on nil function", name)
				}
			}()
			call(NewKernel())
		}()
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and the clock ends at the maximum delay.
func TestPropertyMonotonicClock(t *testing.T) {
	prop := func(delays []uint16) bool {
		k := NewKernel()
		var times []time.Duration
		var max time.Duration
		for _, d := range delays {
			dur := time.Duration(d) * time.Microsecond
			if dur > max {
				max = dur
			}
			k.Schedule(dur, func() { times = append(times, k.Now()) })
		}
		if _, err := k.Run(); err != nil {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(delays) == 0 || k.Now() == max
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling an arbitrary subset leaves exactly the complement to
// fire.
func TestPropertyCancelSubset(t *testing.T) {
	prop := func(delays []uint8, mask []bool) bool {
		k := NewKernel()
		fired := 0
		var timers []TimerRef
		for _, d := range delays {
			timers = append(timers, k.Schedule(time.Duration(d)*time.Millisecond, func() { fired++ }))
		}
		cancelled := 0
		for i, timer := range timers {
			if i < len(mask) && mask[i] {
				if timer.Cancel() {
					cancelled++
				}
			}
		}
		if _, err := k.Run(); err != nil {
			return false
		}
		return fired == len(delays)-cancelled
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		for j := 0; j < 100; j++ {
			k.Schedule(time.Duration(j)*time.Microsecond, func() {})
		}
		if _, err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTimerRefZeroValueInert(t *testing.T) {
	var ref TimerRef
	if ref.Cancel() {
		t.Fatal("zero ref Cancel should be false")
	}
	if ref.Pending() {
		t.Fatal("zero ref Pending should be false")
	}
}

// TestTimerRefStaleAfterRecycle pins the aliasing guarantee: once a
// timer fires or is cancelled and is recycled into a later event, a
// retained ref to the earlier event must be inert — it must not cancel
// (or report pending for) the recycled timer.
func TestTimerRefStaleAfterRecycle(t *testing.T) {
	k := NewKernel()
	firedRef := k.Schedule(0, func() {})
	if _, err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if firedRef.Cancel() {
		t.Fatal("Cancel after fire should report false")
	}
	cancelledRef := k.Schedule(time.Hour, func() { t.Error("cancelled event fired") })
	if !cancelledRef.Cancel() {
		t.Fatal("Cancel of a pending timer reported false")
	}
	// Burn through the free list until both original timers are reused.
	fired := 0
	for i := 0; i < 16; i++ {
		k.Schedule(0, func() { fired++ })
	}
	for _, ref := range []TimerRef{firedRef, cancelledRef} {
		if ref.Cancel() || ref.Pending() {
			t.Fatal("stale ref must stay inert after its timer is recycled")
		}
	}
	if _, err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 16 {
		t.Fatalf("stale ref cancelled a recycled timer: fired %d of 16", fired)
	}
}

// TestScheduleFuncRefCancelInBatch cancels a same-instant ref from an
// earlier event of the same instant.
func TestScheduleFuncRefCancelInBatch(t *testing.T) {
	k := NewKernel()
	fired := false
	var ref TimerRef
	k.ScheduleFunc(time.Millisecond, func() {
		if !ref.Cancel() {
			t.Error("same-instant Cancel should report true")
		}
	})
	ref = k.Schedule(time.Millisecond, func() { fired = true })
	if _, err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Fatal("ref cancelled within its own instant still fired")
	}
}
