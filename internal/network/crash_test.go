package network

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/sim"
)

// TestCrashDropsTraffic: a crashed node neither sends nor receives, and
// both directions count as drops, not deliveries.
func TestCrashDropsTraffic(t *testing.T) {
	k, n, cap := newPair(t, LinkConfig{Latency: time.Millisecond})
	if err := n.Crash("b"); err != nil {
		t.Fatal(err)
	}
	if !n.Crashed("b") || n.Crashed("a") {
		t.Fatalf("Crashed: a=%v b=%v, want false/true", n.Crashed("a"), n.Crashed("b"))
	}
	if err := n.SendSlot(slotA, slotB, []byte("to-dead")); err != nil {
		t.Fatal(err)
	}
	if err := n.SendSlot(slotB, slotA, []byte("from-dead")); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(cap.payloads) != 0 {
		t.Fatalf("delivered %q to a crashed node", cap.payloads)
	}
	st := n.Stats()
	if st.Sent != 2 || st.Dropped != 2 || st.Delivered != 0 {
		t.Fatalf("stats = %+v, want Sent=2 Dropped=2 Delivered=0", st)
	}
}

// TestCrashDropsInFlight: a datagram already on the wire when the
// destination crashes is dropped at arrival — even if the node has
// restarted by then, because the restart is a fresh incarnation.
func TestCrashDropsInFlight(t *testing.T) {
	k, n, cap := newPair(t, LinkConfig{Latency: 10 * time.Millisecond})
	if err := n.SendSlot(slotA, slotB, []byte("in-flight")); err != nil {
		t.Fatal(err)
	}
	k.ScheduleFunc(2*time.Millisecond, func() {
		if err := n.Crash("b"); err != nil {
			t.Error(err)
		}
	})
	k.ScheduleFunc(4*time.Millisecond, func() {
		if err := n.Restart("b"); err != nil {
			t.Error(err)
		}
		// A fresh send to the restarted incarnation must deliver.
		if err := n.SendSlot(slotA, slotB, []byte("post-restart")); err != nil {
			t.Error(err)
		}
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(cap.payloads) != 1 || string(cap.payloads[0]) != "post-restart" {
		t.Fatalf("payloads = %q, want only post-restart", cap.payloads)
	}
	st := n.Stats()
	if st.Dropped != 1 || st.Delivered != 1 {
		t.Fatalf("stats = %+v, want Dropped=1 Delivered=1", st)
	}
}

// TestRestartIncarnation: incarnations are 1-based and bump per restart;
// lifecycle misuse errors are typed.
func TestRestartIncarnation(t *testing.T) {
	_, n, _ := newPair(t, LinkConfig{})
	if inc := n.IncarnationOfSlot(slotB); inc != 1 {
		t.Fatalf("initial incarnation = %d, want 1", inc)
	}
	if err := n.Restart("b"); !errors.Is(err, ErrNotCrashed) {
		t.Fatalf("Restart on live node: %v, want ErrNotCrashed", err)
	}
	if err := n.Crash("b"); err != nil {
		t.Fatal(err)
	}
	if err := n.Crash("b"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("double Crash: %v, want ErrCrashed", err)
	}
	if err := n.Restart("b"); err != nil {
		t.Fatal(err)
	}
	if inc := n.IncarnationOfSlot(slotB); inc != 2 {
		t.Fatalf("incarnation after restart = %d, want 2", inc)
	}
	if n.Crashed("b") || n.Crashed("nope") {
		t.Fatalf("Crashed misreports a restarted or unknown node")
	}
	if err := n.Crash("nope"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("Crash unknown: %v, want ErrUnknownNode", err)
	}
	if err := n.Restart("nope"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("Restart unknown: %v, want ErrUnknownNode", err)
	}
	if inc := n.IncarnationOfSlot(99); inc != 0 {
		t.Fatalf("out-of-range slot incarnation = %d, want 0", inc)
	}
}

// TestScheduleFaultPlan: plan events fire at their virtual times, mutate
// network state, and invoke the lifecycle hooks in order.
func TestScheduleFaultPlan(t *testing.T) {
	k, n, cap := newPair(t, LinkConfig{Latency: time.Millisecond})
	var log []string
	plan := &FaultPlan{
		Events: []fault.Event{
			{At: 5 * time.Millisecond, Kind: fault.Crash, Node: "b"},
			{At: 8 * time.Millisecond, Kind: fault.Partition, Node: "a", Peer: "b"},
			{At: 15 * time.Millisecond, Kind: fault.Restart, Node: "b"},
			{At: 20 * time.Millisecond, Kind: fault.Heal, Node: "a", Peer: "b"},
		},
		OnCrash:   func(id NodeID) { log = append(log, "crash:"+string(id)+"@"+k.Now().String()) },
		OnRestart: func(id NodeID) { log = append(log, "restart:"+string(id)+"@"+k.Now().String()) },
	}
	if err := n.ScheduleFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	// t=0: delivered normally. t=6ms: dropped (b crashed). t=16ms:
	// dropped (a→b partitioned). t=21ms: delivered (healed, restarted).
	send := func(at time.Duration, msg string) {
		k.ScheduleFunc(at, func() {
			if err := n.SendSlot(slotA, slotB, []byte(msg)); err != nil {
				t.Error(err)
			}
		})
	}
	send(0, "up")
	send(6*time.Millisecond, "crashed")
	send(16*time.Millisecond, "partitioned")
	send(21*time.Millisecond, "healed")
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"crash:b@5ms", "restart:b@15ms"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("hook log = %v, want %v", log, want)
	}
	var got []string
	for _, p := range cap.payloads {
		got = append(got, string(p))
	}
	if !reflect.DeepEqual(got, []string{"up", "healed"}) {
		t.Fatalf("delivered %v, want [up healed]", got)
	}
	if n.IncarnationOfSlot(slotB) != 2 {
		t.Fatalf("incarnation = %d, want 2", n.IncarnationOfSlot(slotB))
	}
}

// TestScheduleFaultPlanUnknownNode: a plan that names an unregistered
// node — as an event's node or as a partition's or heal's peer — is
// rejected whole, before anything (here, an earlier valid crash) is
// scheduled.
func TestScheduleFaultPlanUnknownNode(t *testing.T) {
	bad := []fault.Event{
		{At: 2 * time.Millisecond, Kind: fault.Crash, Node: "ghost"},
		{At: 2 * time.Millisecond, Kind: fault.Partition, Node: "a", Peer: "ghost"},
		{At: 2 * time.Millisecond, Kind: fault.Heal, Node: "a", Peer: "ghost"},
	}
	for _, ev := range bad {
		t.Run(ev.Kind.String(), func(t *testing.T) {
			k, n, _ := newPair(t, LinkConfig{})
			err := n.ScheduleFaultPlan(&FaultPlan{Events: []fault.Event{
				{At: time.Millisecond, Kind: fault.Crash, Node: "b"},
				ev,
			}})
			if !errors.Is(err, ErrUnknownNode) {
				t.Fatalf("err = %v, want ErrUnknownNode", err)
			}
			if k.Pending() != 0 {
				t.Fatalf("rejected plan left %d events scheduled", k.Pending())
			}
			if _, err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if n.Crashed("b") || len(n.partition) != 0 {
				t.Fatalf("rejected plan changed the network: crashed=%v cuts=%v", n.Crashed("b"), n.partition)
			}
		})
	}
	_, n, _ := newPair(t, LinkConfig{})
	if err := n.ScheduleFaultPlan(nil); err != nil {
		t.Fatalf("nil plan: %v", err)
	}
}

// TestFaultPlanRingTrafficDrops: a fault plan under a ring of periodic
// sends drops traffic — the crashes are applied while deliveries are in
// flight. (Unregistered plan nodes are covered by
// TestScheduleFaultPlanUnknownNode.)
func TestFaultPlanRingTrafficDrops(t *testing.T) {
	k := sim.NewKernel(sim.WithSeed(42))
	n := New(k, WithDefaultLink(LinkConfig{Latency: time.Millisecond}))
	const nodes = 8
	for i := 0; i < nodes; i++ {
		id := NodeID(string(rune('a' + i)))
		if _, err := n.Register(id, func(Slot, []byte) {}); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(9))
	names := make([]string, nodes)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	events, err := fault.Schedule(fault.Spec{
		CrashRate: 20,
		MTTR:      20 * time.Millisecond,
		Horizon:   500 * time.Millisecond,
	}, names, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.ScheduleFaultPlan(&FaultPlan{Events: events}); err != nil {
		t.Fatal(err)
	}
	// A ring of periodic sends while nodes churn underneath it.
	for i := 0; i < nodes; i++ {
		src, dst := Slot(i), Slot((i+1)%nodes)
		for tick := time.Duration(0); tick < 500*time.Millisecond; tick += 7 * time.Millisecond {
			k.ScheduleFunc(tick, func() {
				_ = n.SendSlot(src, dst, []byte("tick"))
			})
		}
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Stats().Dropped == 0 {
		t.Fatal("churn scenario produced no drops — faults not applied?")
	}
}
