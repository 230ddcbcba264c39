package network

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

// The tests in this file pin the dense routing plane's edge cases:
// dynamic registration growing the link grid mid-run, partition toggling
// between slot-addressed sends, and the slot plane consuming randomness
// exactly as the name-addressed plane does (the property the sweep's
// byte-identical CSV rests on).

// TestRegisterAfterTrafficGridGrowth registers nodes after traffic has
// started — enough of them to force a grid rebuild — and checks that
// pre-registration link configuration, existing slots, and in-flight
// style traffic all survive the growth.
func TestRegisterAfterTrafficGridGrowth(t *testing.T) {
	kernel := sim.NewKernel()
	n := New(kernel, WithDefaultLink(LinkConfig{Latency: time.Millisecond}))

	got := make(map[NodeID]int)
	handler := func(dst NodeID) SlotHandler {
		return func(src Slot, payload []byte) { got[dst]++ }
	}
	a, err := n.Register("a", handler("a"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Register("b", handler("b"))
	if err != nil {
		t.Fatal(err)
	}
	// Configure a link for a node that does not exist yet: it must take
	// effect when the node registers (here: a partitioned link, the most
	// observable configuration).
	if err := n.SetLink("a", "late", LinkConfig{Latency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	n.Partition("a", "late")

	// Traffic before growth.
	if err := n.SendSlot(a, b, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, err := kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if got["b"] != 1 {
		t.Fatalf("b got %d datagrams before growth, want 1", got["b"])
	}

	// Register past the initial grid width (4) to force a rebuild.
	var late Slot
	for _, id := range []NodeID{"c", "d", "late", "f"} {
		s, err := n.Register(id, handler(id))
		if err != nil {
			t.Fatal(err)
		}
		if id == "late" {
			late = s
		}
	}
	if s, ok := n.SlotOf("a"); !ok || s != a {
		t.Fatalf("slot of a changed across growth: %d → %d", a, s)
	}
	if n.NumSlots() != 6 {
		t.Fatalf("NumSlots = %d, want 6", n.NumSlots())
	}

	// The pre-registration partition must be live in the rebuilt grid.
	if err := n.SendSlot(a, late, []byte("cut")); err != nil {
		t.Fatal(err)
	}
	// And existing links still work.
	if err := n.SendSlot(a, b, []byte("two")); err != nil {
		t.Fatal(err)
	}
	if _, err := kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if got["late"] != 0 {
		t.Fatalf("late got %d datagrams through a partitioned link, want 0", got["late"])
	}
	if got["b"] != 2 {
		t.Fatalf("b got %d datagrams after growth, want 2", got["b"])
	}
	st := n.Stats()
	if st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", st.Dropped)
	}
}

// TestPartitionToggleMidRun toggles a partition on and off between
// slot-addressed sends inside one kernel run and checks exactly the
// right datagrams are lost.
func TestPartitionToggleMidRun(t *testing.T) {
	kernel := sim.NewKernel()
	n := New(kernel)
	var got []string
	a, err := n.Register("a", func(src Slot, payload []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Register("b", func(src Slot, payload []byte) {
		got = append(got, string(payload))
	})
	if err != nil {
		t.Fatal(err)
	}
	send := func(msg string) {
		if err := n.SendSlot(a, b, []byte(msg)); err != nil {
			t.Errorf("send %q: %v", msg, err)
		}
	}
	send("before")
	kernel.ScheduleFunc(2*time.Millisecond, func() {
		n.Partition("a", "b")
		send("during")
	})
	kernel.ScheduleFunc(4*time.Millisecond, func() {
		n.Heal("a", "b")
		send("after")
	})
	if _, err := kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "before" || got[1] != "after" {
		t.Fatalf("delivered %q, want [before after]", got)
	}
	if st := n.Stats(); st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", st.Dropped)
	}
}

// TestSlotPlaneMatchesNamePlane drives two identical lossy/jittery
// networks from the same seed, one through the name-addressed Send and
// one through SendSlot, and requires identical delivery traces: the slot
// plane must consume kernel randomness exactly like the compatibility
// plane (the invariant behind the sweep's byte-identical CSV).
func TestSlotPlaneMatchesNamePlane(t *testing.T) {
	run := func(useSlots bool) ([]string, Stats) {
		kernel := sim.NewKernel(sim.WithSeed(77))
		n := New(kernel, WithDefaultLink(LinkConfig{
			Latency:       time.Millisecond,
			Jitter:        3 * time.Millisecond,
			LossRate:      0.3,
			DuplicateRate: 0.2,
		}))
		var got []string
		if err := n.AddNode("a", func(src NodeID, p []byte) {}); err != nil {
			t.Fatal(err)
		}
		if err := n.AddNode("b", func(src NodeID, p []byte) {
			got = append(got, string(p))
		}); err != nil {
			t.Fatal(err)
		}
		a, _ := n.SlotOf("a")
		b, _ := n.SlotOf("b")
		for i := 0; i < 40; i++ {
			payload := []byte{byte(i)}
			var err error
			if useSlots {
				err = n.SendSlot(a, b, payload)
			} else {
				err = n.Send("a", "b", payload)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if _, err := kernel.Run(); err != nil {
			t.Fatal(err)
		}
		return got, n.Stats()
	}
	gotName, statsName := run(false)
	gotSlot, statsSlot := run(true)
	if statsName != statsSlot {
		t.Fatalf("stats diverge: name=%+v slot=%+v", statsName, statsSlot)
	}
	if len(gotName) != len(gotSlot) {
		t.Fatalf("delivery counts diverge: %d vs %d", len(gotName), len(gotSlot))
	}
	for i := range gotName {
		if gotName[i] != gotSlot[i] {
			t.Fatalf("delivery %d diverges: %q vs %q", i, gotName[i], gotSlot[i])
		}
	}
}

// TestSendMultiSlotMatchesSendLoop drives two identical lossy/jittery
// networks from the same seed, one fanning each payload out with
// SendMultiSlot and one with a name-addressed Send loop in destination
// order, and requires identical delivery traces and counters. A bad
// slot in the fan-out is skipped and reported after the rest are sent.
func TestSendMultiSlotMatchesSendLoop(t *testing.T) {
	names := []NodeID{"b", "c", "d", "b"}
	run := func(batch bool) ([]string, Stats) {
		kernel := sim.NewKernel(sim.WithSeed(78))
		n := New(kernel, WithDefaultLink(LinkConfig{
			Latency:       time.Millisecond,
			Jitter:        3 * time.Millisecond,
			LossRate:      0.3,
			DuplicateRate: 0.2,
		}))
		var got []string
		for _, id := range []NodeID{"a", "b", "c", "d"} {
			id := id
			if err := n.AddNode(id, func(src NodeID, p []byte) {
				got = append(got, fmt.Sprintf("%v %s→%s %d", kernel.Now(), src, id, p[0]))
			}); err != nil {
				t.Fatal(err)
			}
		}
		a, _ := n.SlotOf("a")
		slots := make([]Slot, 0, len(names)+1)
		for _, id := range names {
			s, _ := n.SlotOf(id)
			slots = append(slots, s)
		}
		for i := 0; i < 30; i++ {
			payload := []byte{byte(i)}
			if batch {
				if err := n.SendMultiSlot(a, append(slots, 99), payload); !errors.Is(err, ErrBadSlot) {
					t.Fatalf("fan-out with a bad slot: err = %v, want ErrBadSlot", err)
				}
				continue
			}
			for _, id := range names {
				if err := n.Send("a", id, payload); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := kernel.Run(); err != nil {
			t.Fatal(err)
		}
		return got, n.Stats()
	}
	gotLoop, statsLoop := run(false)
	gotBatch, statsBatch := run(true)
	if statsLoop != statsBatch {
		t.Fatalf("stats diverge: loop=%+v batch=%+v", statsLoop, statsBatch)
	}
	if !reflect.DeepEqual(gotLoop, gotBatch) {
		t.Fatalf("delivery traces diverge:\n loop  %q\n batch %q", gotLoop, gotBatch)
	}
	if statsLoop.Dropped == 0 || len(gotLoop) == 0 {
		t.Fatalf("workload not exercising loss: %+v", statsLoop)
	}
}

// TestLazyRowsStayNil pins the O(N) memory claim of the link plane: a
// fabric using only the default link materializes no rows at all, and
// explicit configuration materializes exactly the configured sources.
func TestLazyRowsStayNil(t *testing.T) {
	kernel := sim.NewKernel()
	n := New(kernel)
	const nodes = 512
	sink := func(src Slot, payload []byte) {}
	for i := 0; i < nodes; i++ {
		if _, err := n.Register(NodeID(fmt.Sprintf("n%d", i)), sink); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.SendSlot(0, Slot(nodes-1), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := kernel.Run(); err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	materialized := 0
	for _, row := range n.rows {
		if row != nil {
			materialized++
		}
	}
	n.mu.Unlock()
	if materialized != 0 {
		t.Fatalf("default-link fabric materialized %d rows, want 0", materialized)
	}
	// One SetLink and one Partition materialize exactly those source rows.
	if err := n.SetLink("n3", "n4", LinkConfig{Latency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	n.Partition("n7", "n8")
	n.mu.Lock()
	materialized = 0
	for _, row := range n.rows {
		if row != nil {
			materialized++
		}
	}
	n.mu.Unlock()
	if materialized != 2 {
		t.Fatalf("materialized %d rows, want 2 (n3 and n7)", materialized)
	}
	// Partitioned traffic drops; healed traffic flows again.
	s7, _ := n.SlotOf("n7")
	s8, _ := n.SlotOf("n8")
	if err := n.SendSlot(s7, s8, []byte("drop")); err != nil {
		t.Fatal(err)
	}
	n.Heal("n7", "n8")
	if err := n.SendSlot(s7, s8, []byte("flow")); err != nil {
		t.Fatal(err)
	}
	if _, err := kernel.Run(); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", st.Dropped)
	}
}
