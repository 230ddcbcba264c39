package protocol

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/codec"
	"repro/internal/network"
	"repro/internal/sim"
)

// The tests in this file pin the dense demux plane's edge cases: the
// out-of-order hold ring (wraparound, duplicate holds) against a
// reference model of the pre-ring map semantics on window-respecting
// arrivals, the drop of a PDU beyond the ring's horizon, flow teardown
// reclaiming pooled flow structs, and the lazy layer-stats snapshot.

// testEndpoints is the id plane of the test lower services: ids are
// assigned in attach order.
type testEndpoints struct {
	ids   map[Addr]int32
	addrs []Addr            // id → address
	recvs []IndexedReceiver // id → receiver
}

func (e *testEndpoints) AttachIndexed(addr Addr, r IndexedReceiver) (int32, error) {
	if r == nil {
		return -1, fmt.Errorf("protocol: nil receiver for %q", addr)
	}
	id, ok := e.ids[addr]
	if !ok {
		if e.ids == nil {
			e.ids = make(map[Addr]int32)
		}
		id = int32(len(e.addrs))
		e.ids[addr] = id
		e.addrs = append(e.addrs, addr)
		e.recvs = append(e.recvs, nil)
	}
	e.recvs[id] = r
	return id, nil
}

func (e *testEndpoints) EndpointID(addr Addr) (int32, bool) {
	id, ok := e.ids[addr]
	return id, ok
}

func (e *testEndpoints) EndpointAddr(id int32) Addr {
	if id < 0 || int(id) >= len(e.addrs) {
		return ""
	}
	return e.addrs[id]
}

// captureLower is a lower service that records sends so tests can
// replay them to receivers in arbitrary order — the harness for driving
// the reliable receiver with precise arrival sequences.
type captureLower struct {
	testEndpoints
	sent []capturedPDU
}

type capturedPDU struct {
	src, dst int32
	pdu      []byte
}

func newCaptureLower() *captureLower { return &captureLower{} }

func (c *captureLower) Name() string { return "capture" }

func (c *captureLower) Attach(addr Addr, r Receiver) error { return attachByName(c, addr, r) }

func (c *captureLower) Send(src, dst Addr, pdu []byte) error { return sendByName(c, src, dst, pdu) }

func (c *captureLower) SendIndexed(src, dst int32, pdu []byte) error {
	c.sent = append(c.sent, capturedPDU{src: src, dst: dst, pdu: append([]byte(nil), pdu...)})
	return nil
}

func (c *captureLower) SendMultiIndexed(src int32, dsts []int32, pdu []byte) error {
	for _, dst := range dsts {
		_ = c.SendIndexed(src, dst, pdu) //nolint:errcheck // never fails
	}
	return nil
}

// deliver replays one captured PDU to its destination's receiver.
func (c *captureLower) deliver(p capturedPDU) {
	if int(p.dst) < len(c.recvs) {
		c.recvs[p.dst](p.src, p.pdu)
	}
}

// attachPeer attaches a receiver-less peer at the lower service itself,
// as the source of hand-made PDUs, and returns its id.
func (c *captureLower) attachPeer(t testing.TB, addr Addr) int32 {
	t.Helper()
	id, err := c.AttachIndexed(addr, func(int32, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// encodeData builds one rdp.data PDU through the public codec (the bytes
// are canonical, identical to the schema encoder's).
func encodeData(t *testing.T, seq uint64, payload string) []byte {
	t.Helper()
	data, err := codec.AppendMessage(nil, codec.NewMessage("rdp.data", codec.Record{
		"seq": seq, "payload": []byte(payload),
	}))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// refReceiver is the pre-refactor receive model verbatim: an expected
// counter with a map-backed hold buffer capped at limit entries. The
// ring-based receiver must match it on every arrival sequence.
type refReceiver struct {
	expected  uint64
	held      map[uint64]string
	limit     int
	delivered []string
	dups, ooo int
}

func newRefReceiver(limit int) *refReceiver {
	return &refReceiver{held: make(map[uint64]string), limit: limit}
}

func (r *refReceiver) onData(seq uint64, payload string) {
	switch {
	case seq == r.expected:
		r.expected++
		r.delivered = append(r.delivered, payload)
		for {
			next, ok := r.held[r.expected]
			if !ok {
				break
			}
			delete(r.held, r.expected)
			r.expected++
			r.delivered = append(r.delivered, next)
		}
	case seq < r.expected:
		r.dups++
	default:
		r.ooo++
		if _, dup := r.held[seq]; !dup && len(r.held) < r.limit {
			r.held[seq] = payload
		}
	}
}

// runHoldSequence feeds one arrival sequence to a fresh ReliableDatagram
// receiver (via a capture lower, so arrivals are exact) and returns the
// delivered payload order plus stats.
func runHoldSequence(t *testing.T, cfg ReliableDatagramConfig, arrivals []uint64) ([]string, ReliableStats) {
	t.Helper()
	kernel := sim.NewKernel()
	lower := newCaptureLower()
	rd := NewReliableDatagram(kernel, lower, cfg)
	var delivered []string
	b, err := rd.AttachIndexed("b", func(src int32, pdu []byte) {
		delivered = append(delivered, string(pdu))
	})
	if err != nil {
		t.Fatal(err)
	}
	a := lower.attachPeer(t, "a")
	for _, seq := range arrivals {
		pdu := encodeData(t, seq, fmt.Sprintf("p%d", seq))
		lower.deliver(capturedPDU{src: a, dst: b, pdu: pdu})
	}
	return delivered, rd.Stats()
}

// TestHoldRingWraparound drives the receiver across several window
// generations with out-of-order arrivals whose ring indices wrap, and
// checks delivery order, duplicate counting and hold-drain behaviour
// against the reference model.
func TestHoldRingWraparound(t *testing.T) {
	cfg := ReliableDatagramConfig{Window: 4}
	// Window 4 → ring size 4. The sequence below repeatedly opens a gap,
	// fills the ring across its wrap point, duplicates a held PDU, and
	// closes the gap.
	arrivals := []uint64{
		0,       // in order
		2, 3, 4, // held at ring idx 2,3,0 (wraps)
		2,          // duplicate hold (must not double-deliver)
		1,          // closes gap → drain 1..4
		0,          // stale duplicate
		6, 9, 7, 8, // expected=5: held at idx 2,1,3,0 (wrapped again)
		5,  // drain 5..9
		10, // in order
	}
	got, stats := runHoldSequence(t, cfg, arrivals)

	ref := newRefReceiver(16) // default ReorderBuffer = 4×Window
	for _, seq := range arrivals {
		ref.onData(seq, fmt.Sprintf("p%d", seq))
	}
	if !reflect.DeepEqual(got, ref.delivered) {
		t.Fatalf("delivery order diverges from reference:\n got  %v\n want %v", got, ref.delivered)
	}
	if int(stats.Duplicates) != ref.dups || int(stats.OutOfOrder) != ref.ooo {
		t.Fatalf("stats diverge: got dups=%d ooo=%d, reference dups=%d ooo=%d",
			stats.Duplicates, stats.OutOfOrder, ref.dups, ref.ooo)
	}
	if stats.DataDelivered != uint64(len(ref.delivered)) {
		t.Fatalf("DataDelivered = %d, want %d", stats.DataDelivered, len(ref.delivered))
	}
}

// TestHoldRingMatchesReferenceRandomized fuzz-pins the ring against the
// reference model over seeded random arrival permutations with
// duplicates, at several window/reorder-buffer shapes (including a
// ReorderBuffer smaller than the window, where the occupancy cap binds
// before the ring's horizon does).
func TestHoldRingMatchesReferenceRandomized(t *testing.T) {
	shapes := []ReliableDatagramConfig{
		{Window: 4},
		{Window: 4, ReorderBuffer: 2},
		{Window: 8, ReorderBuffer: 3},
		{Window: 16},
	}
	for si, cfg := range shapes {
		rng := rand.New(rand.NewSource(int64(1000 + si)))
		for trial := 0; trial < 50; trial++ {
			// Arrivals: a window-respecting interleaving with duplicates.
			// The sender's window starts at what the receiver expects
			// (its cumulative ack), sends and retransmits go in flight,
			// and the in-flight PDUs arrive in random order. A PDU is
			// sent within Window of an expectation that only grows, so
			// every arrival respects the go-back-N window invariant
			// however late it lands.
			c := cfg
			c.applyDefaults()
			live := newRefReceiver(c.ReorderBuffer)
			var arrivals, inFlight []uint64
			next := uint64(0)
			for len(arrivals) < 60 {
				if next < live.expected+uint64(c.Window) && rng.Intn(3) > 0 {
					inFlight = append(inFlight, next)
					next++
				} else if next > live.expected {
					// Re-send something from the current window.
					inFlight = append(inFlight, live.expected+uint64(rng.Int63n(int64(next-live.expected))))
				}
				if len(inFlight) > 2 || (len(inFlight) > 0 && rng.Intn(2) == 0) {
					i := rng.Intn(len(inFlight))
					seq := inFlight[i]
					inFlight = append(inFlight[:i], inFlight[i+1:]...)
					arrivals = append(arrivals, seq)
					live.onData(seq, "")
				}
			}
			got, stats := runHoldSequence(t, cfg, arrivals)
			ref := newRefReceiver(c.ReorderBuffer)
			for _, seq := range arrivals {
				ref.onData(seq, fmt.Sprintf("p%d", seq))
			}
			if !reflect.DeepEqual(got, ref.delivered) {
				t.Fatalf("shape %d trial %d: delivery diverges\n arrivals %v\n got  %v\n want %v",
					si, trial, arrivals, got, ref.delivered)
			}
			if int(stats.Duplicates) != ref.dups || int(stats.OutOfOrder) != ref.ooo {
				t.Fatalf("shape %d trial %d: stats diverge (dups %d/%d, ooo %d/%d)",
					si, trial, stats.Duplicates, ref.dups, stats.OutOfOrder, ref.ooo)
			}
		}
	}
}

// TestHoldDropsBeyondRingHorizon feeds PDUs a conforming sender cannot
// produce (a gap larger than the window): the far-ahead PDU is dropped,
// as a lost one is, and its retransmission is held or delivered once
// the window reaches it.
func TestHoldDropsBeyondRingHorizon(t *testing.T) {
	cfg := ReliableDatagramConfig{Window: 4, ReorderBuffer: 16}
	seqs := func(lo, hi uint64) []string {
		var out []string
		for seq := lo; seq <= hi; seq++ {
			out = append(out, fmt.Sprintf("p%d", seq))
		}
		return out
	}
	for _, c := range []struct {
		arrivals []uint64
		want     []string
	}{
		// 10 is beyond the 4-slot ring: dropped, so the gap's close
		// delivers 0..9 only, and the retransmission delivers 10.
		{[]uint64{10, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, seqs(0, 9)},
		{[]uint64{10, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, seqs(0, 10)},
		// 6 is dropped at distance 6; re-sent at distance 3 it is held,
		// and drained exactly once when the gap closes.
		{[]uint64{6, 0, 1, 2, 6, 3, 4, 5, 7}, seqs(0, 7)},
	} {
		got, stats := runHoldSequence(t, cfg, c.arrivals)
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("arrivals %v delivered %v, want %v", c.arrivals, got, c.want)
		}
		if stats.DataDelivered != uint64(len(c.want)) {
			t.Fatalf("arrivals %v: DataDelivered = %d, want %d", c.arrivals, stats.DataDelivered, len(c.want))
		}
	}
}

// TestCloseFlowReclaimsAndRestarts tears a flow pair down mid-life and
// checks (a) the pooled flow structs land on the free lists, (b) a
// subsequent send starts a fresh flow at sequence zero that the peer,
// having torn down its half too, accepts — exactly the semantics a fresh
// map entry used to give, and (c) the recycled structs are reused.
func TestCloseFlowReclaimsAndRestarts(t *testing.T) {
	kernel := sim.NewKernel(sim.WithSeed(3))
	net := network.New(kernel)
	rd := NewReliableDatagram(kernel, NewUnreliableDatagram(net), ReliableDatagramConfig{})
	var got []string
	if err := rd.Attach("a", func(src Addr, pdu []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := rd.Attach("b", func(src Addr, pdu []byte) {
		got = append(got, string(pdu))
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := rd.Send("a", "b", []byte(fmt.Sprintf("first-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("delivered %d PDUs before teardown, want 3", len(got))
	}

	// Tear down both halves of the pair.
	rd.CloseFlow("a", "b")
	rd.CloseFlow("b", "a")
	if rd.freeSend == nil || rd.freeRecv == nil {
		t.Fatal("CloseFlow did not reclaim flow structs to the free lists")
	}
	aID, _ := rd.EndpointID("a")
	bID, _ := rd.EndpointID("b")
	if rd.sendRows[aID][bID] != nil || rd.recvRows[aID][bID] != nil {
		t.Fatal("CloseFlow left flow table entries behind")
	}

	// A fresh conversation restarts at sequence zero on recycled structs.
	if err := rd.Send("a", "b", []byte("second")); err != nil {
		t.Fatal(err)
	}
	if _, err := kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[3] != "second" {
		t.Fatalf("post-teardown delivery = %q, want trailing \"second\"", got)
	}
	if f := rd.sendRows[aID][bID]; f == nil || f.next != 1 {
		t.Fatalf("post-teardown send flow did not restart at seq 0")
	}
	if rd.freeSend != nil {
		t.Fatal("fresh flow did not come from the free list")
	}
}

// TestCloseFlowClearsBroken pins that teardown resets broken-flow state:
// a flow declared dead by the retransmit limit becomes usable again
// after CloseFlow.
func TestCloseFlowClearsBroken(t *testing.T) {
	kernel := sim.NewKernel(sim.WithSeed(5))
	net := network.New(kernel)
	for _, link := range [][2]network.NodeID{{"a", "b"}, {"b", "a"}} {
		if err := net.SetLink(link[0], link[1], network.LinkConfig{LossRate: 1}); err != nil {
			t.Fatal(err)
		}
	}
	rd := NewReliableDatagram(kernel, NewUnreliableDatagram(net), ReliableDatagramConfig{
		Window: 2, MaxRetransmits: 2,
	})
	if err := rd.Attach("a", func(src Addr, pdu []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := rd.Attach("b", func(src Addr, pdu []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := rd.Send("a", "b", []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if _, err := kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if err := rd.Send("a", "b", []byte("still-doomed")); err == nil {
		t.Fatal("send on a broken flow succeeded, want error")
	}
	rd.CloseFlow("a", "b")
	if err := rd.Send("a", "b", []byte("fresh")); err != nil {
		t.Fatalf("send after CloseFlow on a previously broken flow: %v", err)
	}
}

// TestReliableIndexedPlane smoke-tests the id-addressed surface of the
// reliability layer itself: indexed attach, id-addressed send, and id
// round-trips through EndpointID/EndpointAddr. Its ids are the lower
// service's.
func TestReliableIndexedPlane(t *testing.T) {
	kernel := sim.NewKernel(sim.WithSeed(9))
	net := network.New(kernel)
	rd := NewReliableDatagram(kernel, NewUnreliableDatagram(net), ReliableDatagramConfig{})
	var gotSrc int32 = -1
	var got []string
	aID, err := rd.AttachIndexed("a", func(src int32, pdu []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	bID, err := rd.AttachIndexed("b", func(src int32, pdu []byte) {
		gotSrc = src
		got = append(got, string(pdu))
	})
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := rd.EndpointID("a"); !ok || id != aID {
		t.Fatalf("EndpointID(a) = %d,%v want %d,true", id, ok, aID)
	}
	if addr := rd.EndpointAddr(bID); addr != "b" {
		t.Fatalf("EndpointAddr(%d) = %q, want b", bID, addr)
	}
	if _, ok := rd.EndpointID("nope"); ok {
		t.Fatal("EndpointID resolved an unattached address")
	}
	if slot, _ := net.SlotOf("b"); bID != slot {
		t.Fatalf("id of b = %d, want its network slot %d", bID, slot)
	}
	if err := rd.SendIndexed(aID, bID, []byte("dense")); err != nil {
		t.Fatal(err)
	}
	if _, err := kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "dense" || gotSrc != aID {
		t.Fatalf("indexed delivery = %q from %d, want [dense] from %d", got, gotSrc, aID)
	}
}
