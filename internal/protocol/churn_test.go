package protocol

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/sim"
)

// churnHarness wires a kernel, network, and reliable layer with two
// attached endpoints and a delivery log at "b".
type churnHarness struct {
	k   *sim.Kernel
	net *network.Network
	r   *ReliableDatagram
	got []string
}

func newChurnHarness(t *testing.T, seed int64, latency time.Duration) *churnHarness {
	t.Helper()
	k, n := newNet(seed, network.LinkConfig{Latency: latency})
	h := &churnHarness{k: k, net: n}
	h.r = NewReliableDatagram(k, NewUnreliableDatagram(n), ReliableDatagramConfig{})
	if err := h.r.Attach("b", func(src Addr, pdu []byte) { h.got = append(h.got, string(pdu)) }); err != nil {
		t.Fatal(err)
	}
	if err := h.r.Attach("a", func(Addr, []byte) {}); err != nil {
		t.Fatal(err)
	}
	return h
}

func (h *churnHarness) at(t *testing.T, when time.Duration, fn func() error) {
	t.Helper()
	h.k.ScheduleFunc(when, func() {
		if err := fn(); err != nil {
			t.Error(err)
		}
	})
}

// TestReliableReceiverRestart: the receiver crashes with a window in
// flight and restarts under a fresh incarnation. The sender's
// retransmissions are refused (stale world), the bare ack teaches it the
// new incarnation, the flow tears down, and a fresh send restarts at
// sequence zero — delivered exactly once, with no ghost state.
func TestReliableReceiverRestart(t *testing.T) {
	h := newChurnHarness(t, 11, time.Millisecond)
	for i := 0; i < 5; i++ {
		if err := h.r.Send("a", "b", []byte(fmt.Sprintf("old-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Crash before the 1ms deliveries land: the whole window is dropped
	// in flight.
	h.at(t, 500*time.Microsecond, func() error { return h.net.Crash("b") })
	h.at(t, 5*time.Millisecond, func() error {
		if err := h.net.Restart("b"); err != nil {
			return err
		}
		h.r.NoteRestart("b")
		return nil
	})
	// Well past the 50ms retransmit timeout: the retransmit round has
	// been refused and the flow torn down by the bare ack.
	h.at(t, 120*time.Millisecond, func() error { return h.r.Send("a", "b", []byte("fresh")) })
	if _, err := h.k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(h.got) != 1 || h.got[0] != "fresh" {
		t.Fatalf("delivered %v, want [fresh]: old-incarnation data must not surface", h.got)
	}
	st := h.r.Stats()
	if st.StaleDrops == 0 {
		t.Fatalf("expected stale drops from refused retransmissions: %+v", st)
	}
	if st.FlowResets == 0 {
		t.Fatalf("expected a flow reset after the incarnation change: %+v", st)
	}
}

// TestReliableSenderRestart: the sender restarts and its numbering
// resets to zero. The receiver detects the incarnation bump on the first
// fresh data PDU, resets its receive flow (old-numbering holds dropped),
// and delivers the new stream from sequence zero.
func TestReliableSenderRestart(t *testing.T) {
	h := newChurnHarness(t, 12, time.Millisecond)
	for i := 0; i < 3; i++ {
		if err := h.r.Send("a", "b", []byte(fmt.Sprintf("pre-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	h.at(t, 3*time.Millisecond, func() error { return h.net.Crash("a") })
	h.at(t, 6*time.Millisecond, func() error {
		if err := h.net.Restart("a"); err != nil {
			return err
		}
		h.r.NoteRestart("a")
		return nil
	})
	h.at(t, 10*time.Millisecond, func() error { return h.r.Send("a", "b", []byte("fresh-0")) })
	h.at(t, 11*time.Millisecond, func() error { return h.r.Send("a", "b", []byte("fresh-1")) })
	if _, err := h.k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"pre-0", "pre-1", "pre-2", "fresh-0", "fresh-1"}
	if fmt.Sprint(h.got) != fmt.Sprint(want) {
		t.Fatalf("delivered %v, want %v", h.got, want)
	}
	st := h.r.Stats()
	if st.FlowResets == 0 {
		t.Fatalf("receiver never reset the flow for the new incarnation: %+v", st)
	}
	if st.Duplicates != 0 {
		t.Fatalf("restart caused duplicate deliveries: %+v", st)
	}
}

// TestReliableGhostDataDropped: data from the sender's dead incarnation,
// still in flight when the new incarnation's stream is already
// established, must be discarded — not delivered and not held in the
// reorder ring (where it would later surface as a spurious delivery).
func TestReliableGhostDataDropped(t *testing.T) {
	h := newChurnHarness(t, 13, time.Millisecond)
	if err := h.r.Send("a", "b", []byte("m0")); err != nil {
		t.Fatal(err)
	}
	// Slow the a→b link so m1 (old incarnation, seq 1) is still in
	// flight when the fresh stream arrives.
	h.at(t, 2*time.Millisecond, func() error {
		return h.net.SetLink("a", "b", network.LinkConfig{Latency: 20 * time.Millisecond})
	})
	h.at(t, 3*time.Millisecond, func() error { return h.r.Send("a", "b", []byte("m1")) })
	h.at(t, 4*time.Millisecond, func() error { return h.net.Crash("a") })
	h.at(t, 5*time.Millisecond, func() error {
		if err := h.net.Restart("a"); err != nil {
			return err
		}
		h.r.NoteRestart("a")
		return h.net.SetLink("a", "b", network.LinkConfig{Latency: time.Millisecond})
	})
	// Fresh stream (incarnation 2) lands at ~7ms; ghost m1 (incarnation
	// 1, seq 1) lands at ~23ms against a flow already at incarnation 2.
	h.at(t, 6*time.Millisecond, func() error { return h.r.Send("a", "b", []byte("fresh-0")) })
	h.at(t, 30*time.Millisecond, func() error { return h.r.Send("a", "b", []byte("fresh-1")) })
	if _, err := h.k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"m0", "fresh-0", "fresh-1"}
	if fmt.Sprint(h.got) != fmt.Sprint(want) {
		t.Fatalf("delivered %v, want %v (ghost m1 must not surface)", h.got, want)
	}
	if st := h.r.Stats(); st.StaleDrops == 0 {
		t.Fatalf("ghost data was not counted as a stale drop: %+v", st)
	}
}

// TestReliableGhostAckDropped: an ack generated for the dead
// incarnation's flow (the receiver had not yet learned of the restart)
// must not slide the fresh flow's window — that would mark never-
// delivered fresh data as acknowledged.
func TestReliableGhostAckDropped(t *testing.T) {
	h := newChurnHarness(t, 14, time.Millisecond)
	if err := h.r.Send("a", "b", []byte("m0")); err != nil {
		t.Fatal(err)
	}
	h.at(t, 2*time.Millisecond, func() error {
		return h.net.SetLink("a", "b", network.LinkConfig{Latency: 10 * time.Millisecond})
	})
	// m1 (seq 1, incarnation 1) arrives at b at ~13ms — after a has
	// restarted — and is acked with cum=2 against incarnation 1.
	h.at(t, 3*time.Millisecond, func() error { return h.r.Send("a", "b", []byte("m1")) })
	h.at(t, 4*time.Millisecond, func() error { return h.net.Crash("a") })
	h.at(t, 5*time.Millisecond, func() error {
		if err := h.net.Restart("a"); err != nil {
			return err
		}
		h.r.NoteRestart("a")
		return nil
	})
	// The fresh flow opens at seq 0 (in flight until ~16ms) while the
	// cum=2 ghost ack lands at ~14ms; if it were honoured the fresh
	// flow's window math would be corrupted.
	h.at(t, 6*time.Millisecond, func() error { return h.r.Send("a", "b", []byte("fresh-0")) })
	h.at(t, 20*time.Millisecond, func() error { return h.r.Send("a", "b", []byte("fresh-1")) })
	if _, err := h.k.Run(); err != nil {
		t.Fatal(err)
	}
	// m1 is legitimately delivered (sent before the crash, fail-stop
	// keeps in-flight data); then the fresh incarnation's stream resets
	// the flow and delivers from zero.
	want := []string{"m0", "m1", "fresh-0", "fresh-1"}
	if fmt.Sprint(h.got) != fmt.Sprint(want) {
		t.Fatalf("delivered %v, want %v", h.got, want)
	}
	if st := h.r.Stats(); st.StaleDrops == 0 {
		t.Fatalf("ghost ack was not dropped: %+v", st)
	}
}

// TestReliableNoteRestartCancelsTimers: NoteRestart must cancel the
// restarted endpoint's retransmit timers along with its flows — a stale
// timer would retransmit dead-incarnation data forever.
func TestReliableNoteRestartCancelsTimers(t *testing.T) {
	h := newChurnHarness(t, 15, time.Millisecond)
	h.net.Partition("a", "b")
	if err := h.r.Send("a", "b", []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	// Before the 50ms retransmit timeout: tear everything down.
	h.at(t, 10*time.Millisecond, func() error {
		if err := h.net.Crash("a"); err != nil {
			return err
		}
		if err := h.net.Restart("a"); err != nil {
			return err
		}
		h.r.NoteRestart("a")
		return nil
	})
	if _, err := h.k.Run(); err != nil {
		t.Fatal(err)
	}
	st := h.r.Stats()
	if st.Retransmits != 0 {
		t.Fatalf("stale retransmit timer survived NoteRestart: %+v", st)
	}
	if len(h.got) != 0 {
		t.Fatalf("delivered %v across a partition", h.got)
	}
}

// TestReliableChurnTeardownRace: flow teardown (CloseFlow, NoteRestart)
// interleaved with sends and crash/restart cycles, driven by kernel
// events of eight peers on staggered clocks so teardowns land while
// retransmit timers and deliveries of every flow are in flight. The
// kernel must drain cleanly afterwards.
func TestReliableChurnTeardownRace(t *testing.T) {
	k, n := newNet(16, network.LinkConfig{Latency: time.Millisecond})
	r := NewReliableDatagram(k, NewUnreliableDatagram(n), ReliableDatagramConfig{
		RetransmitTimeout: 2 * time.Millisecond,
	})
	const peers, rounds = 8, 300
	names := make([]Addr, peers)
	for i := range names {
		names[i] = Addr(fmt.Sprintf("n%d", i))
	}
	delivered := 0
	for _, id := range names {
		if err := r.Attach(id, func(Addr, []byte) { delivered++ }); err != nil {
			t.Fatal(err)
		}
	}
	for g := 0; g < peers; g++ {
		src := names[g]
		dst := names[(g+1)%peers]
		payload := []byte("x")
		i := 0
		var round func()
		round = func() {
			_ = r.Send(src, dst, payload)
			if i%17 == 0 {
				r.CloseFlow(src, dst)
			}
			if i%29 == 0 {
				// Each peer owns its node, so the crash/restart
				// alternation cannot collide.
				if err := n.Crash(src); err != nil {
					t.Error(err)
					return
				}
				if err := n.Restart(src); err != nil {
					t.Error(err)
					return
				}
				r.NoteRestart(src)
			}
			if i++; i < rounds {
				k.ScheduleFunc(time.Duration(100+13*g)*time.Microsecond, round)
			}
		}
		k.ScheduleFunc(time.Duration(g)*time.Microsecond, round)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered == 0 {
		t.Fatal("no datagram was delivered")
	}
}
