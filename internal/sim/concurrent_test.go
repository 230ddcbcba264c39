package sim

import (
	"errors"
	"testing"
	"time"
)

// TestConcurrentCancelDuringRun cancels events from inside handlers of the
// same instant. The schedule packs many events into few instants, and every
// third handler cancels a later sibling (still queued), an earlier one
// (already fired or cancelled) and a later one twice. Every timer must
// either fire or be cancelled — never both, never neither.
func TestConcurrentCancelDuringRun(t *testing.T) {
	const n, instants = 20000, 40
	k := NewKernel()
	fired := make([]bool, n)
	cancelled := make([]bool, n)
	timers := make([]TimerRef, n)
	cancel := func(j int) {
		if j < 0 || j >= n || !timers[j].Cancel() {
			return
		}
		if fired[j] || cancelled[j] {
			t.Errorf("Cancel(%d) reported true for a timer that already fired or was cancelled", j)
		}
		cancelled[j] = true
	}
	for i := range timers {
		timers[i] = k.Schedule(time.Duration(i%instants)*time.Microsecond, func() {
			if cancelled[i] {
				t.Errorf("cancelled timer %d fired", i)
			}
			fired[i] = true
			if i%3 == 0 {
				cancel(i + instants)
				cancel(i - instants)
				cancel(i + 2*instants)
				cancel(i + 2*instants)
			}
		})
	}

	executed, err := k.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	nFired, nCancelled := 0, 0
	for i := range fired {
		if fired[i] == cancelled[i] {
			t.Fatalf("timer %d: fired %v, cancelled %v", i, fired[i], cancelled[i])
		}
		if fired[i] {
			nFired++
		} else {
			nCancelled++
		}
	}
	if executed != nFired {
		t.Fatalf("Run reported %d events, handlers saw %d", executed, nFired)
	}
	if nCancelled == 0 {
		t.Fatal("no handler cancelled a sibling")
	}
	if k.Executed() != uint64(nFired) {
		t.Fatalf("Executed = %d, want %d", k.Executed(), nFired)
	}
}

// TestConcurrentScheduleDuringRun schedules from a handler-driven producer
// while the kernel drains, and splits the drain over several Run calls by
// stopping the kernel from the producer: every scheduled event must be
// counted by the end of the last Run.
func TestConcurrentScheduleDuringRun(t *testing.T) {
	const n, perTick = 5000, 50
	k := NewKernel()
	fired := 0
	count := func() { fired++ }

	scheduled, ticks := 0, 0
	var produce func()
	produce = func() {
		for i := 0; i < perTick && scheduled < n; i++ {
			k.ScheduleFunc(time.Duration(scheduled%7)*time.Microsecond, count)
			scheduled++
		}
		ticks++
		if ticks%10 == 0 {
			k.Stop()
		}
		if scheduled < n {
			k.ScheduleFunc(3*time.Microsecond, produce)
		}
	}
	k.ScheduleFunc(0, produce)

	runs := 0
	for {
		runs++
		_, err := k.Run()
		if err == nil {
			break
		}
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("Run: %v", err)
		}
	}
	if runs < 2 {
		t.Fatalf("drained in %d Run calls, want the producer to split it", runs)
	}
	if fired != n {
		t.Fatalf("fired %d, want %d", fired, n)
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending = %d after the final Run, want 0", k.Pending())
	}
}
