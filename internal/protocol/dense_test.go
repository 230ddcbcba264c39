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
// out-of-order hold ring (wraparound, overflow, duplicate holds) against
// a reference model of the pre-ring map semantics, flow teardown
// reclaiming pooled flow structs, and the lazy layer-stats snapshot.

// captureLower is a name-only LowerService that records sends so tests
// can replay them to receivers in arbitrary order — the harness for
// driving the reliable receiver with precise arrival sequences. Layers
// reach it through the AsIndexed adapter.
type captureLower struct {
	receivers map[Addr]Receiver
	sent      []capturedPDU
}

type capturedPDU struct {
	src, dst Addr
	pdu      []byte
}

func newCaptureLower() *captureLower {
	return &captureLower{receivers: make(map[Addr]Receiver)}
}

func (c *captureLower) Name() string { return "capture" }

func (c *captureLower) Attach(addr Addr, r Receiver) error {
	c.receivers[addr] = r
	return nil
}

func (c *captureLower) Send(src, dst Addr, pdu []byte) error {
	buf := make([]byte, len(pdu))
	copy(buf, pdu)
	c.sent = append(c.sent, capturedPDU{src: src, dst: dst, pdu: buf})
	return nil
}

// deliver replays one captured PDU to its destination's receiver.
func (c *captureLower) deliver(p capturedPDU) {
	if r := c.receivers[p.dst]; r != nil {
		r(p.src, p.pdu)
	}
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
	if err := rd.Attach("b", func(src Addr, pdu []byte) {
		delivered = append(delivered, string(pdu))
	}); err != nil {
		t.Fatal(err)
	}
	for _, seq := range arrivals {
		pdu := encodeData(t, seq, fmt.Sprintf("p%d", seq))
		lower.deliver(capturedPDU{src: "a", dst: "b", pdu: pdu})
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
			var arrivals []uint64
			next := uint64(0)
			lowWater := uint64(0) // everything below is delivered in the reference
			for len(arrivals) < 60 {
				c := cfg
				c.applyDefaults()
				if next < lowWater+uint64(c.Window) && rng.Intn(3) > 0 {
					arrivals = append(arrivals, next)
					next++
				} else if next > lowWater {
					// Re-deliver something from the current window.
					arrivals = append(arrivals, lowWater+uint64(rng.Int63n(int64(next-lowWater))))
				}
				if next > lowWater && rng.Intn(4) == 0 {
					lowWater = next
				}
			}
			// Shuffle within a bounded horizon to create reordering that
			// still respects the go-back-N window invariant.
			for i := 1; i < len(arrivals); i++ {
				if j := i - 1 - rng.Intn(2); j >= 0 && arrivals[i] > arrivals[j] {
					arrivals[i], arrivals[j] = arrivals[j], arrivals[i]
				}
			}
			got, stats := runHoldSequence(t, cfg, arrivals)
			c := cfg
			c.applyDefaults()
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

// TestHoldOverflowBeyondRingHorizon feeds a sequence a conforming sender
// cannot produce (a gap larger than the window) and checks the overflow
// spill path preserves the map semantics: the far-ahead PDU is held and
// delivered when the gap finally closes.
func TestHoldOverflowBeyondRingHorizon(t *testing.T) {
	cfg := ReliableDatagramConfig{Window: 4, ReorderBuffer: 16}
	arrivals := []uint64{10} // far beyond the 4-slot ring
	for seq := uint64(0); seq <= 9; seq++ {
		arrivals = append(arrivals, seq)
	}
	got, _ := runHoldSequence(t, cfg, arrivals)
	want := make([]string, 0, 11)
	for seq := uint64(0); seq <= 10; seq++ {
		want = append(want, fmt.Sprintf("p%d", seq))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("overflow delivery diverges:\n got  %v\n want %v", got, want)
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
	rd.mu.Lock()
	if rd.freeSend == nil || rd.freeRecv == nil {
		rd.mu.Unlock()
		t.Fatal("CloseFlow did not reclaim flow structs to the free lists")
	}
	aID, bID := rd.ids["a"], rd.ids["b"]
	if rd.sendRows[aID][bID] != nil || rd.recvRows[aID][bID] != nil {
		rd.mu.Unlock()
		t.Fatal("CloseFlow left flow table entries behind")
	}
	rd.mu.Unlock()

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
	rd.mu.Lock()
	if f := rd.sendRows[aID][bID]; f == nil || f.next != 1 {
		rd.mu.Unlock()
		t.Fatalf("post-teardown send flow did not restart at seq 0")
	}
	if rd.freeSend != nil {
		rd.mu.Unlock()
		t.Fatal("fresh flow did not come from the free list")
	}
	rd.mu.Unlock()
}

// TestCloseFlowClearsBroken pins that teardown resets broken-flow state:
// a flow declared dead by the retransmit limit becomes usable again
// after CloseFlow.
func TestCloseFlowClearsBroken(t *testing.T) {
	kernel := sim.NewKernel(sim.WithSeed(5))
	net := network.New(kernel)
	if err := net.SetLinkBoth("a", "b", network.LinkConfig{LossRate: 1}); err != nil {
		t.Fatal(err)
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

// TestLayerStatsLazySnapshot pins the satellite fix: Stats() must not
// materialize a fresh ByType map when counters are unchanged, must
// rebuild once they change, and previously returned snapshots must stay
// immutable.
func TestLayerStatsLazySnapshot(t *testing.T) {
	l := NewLayer("test", sim.NewKernel(), newCaptureLower())
	l.mu.Lock()
	l.countLocked("pdu.x", 10, 1)
	l.countLocked("pdu.y", 20, 2)
	l.mu.Unlock()

	s1 := l.Stats()
	s2 := l.Stats()
	if reflect.ValueOf(s1.ByType).Pointer() != reflect.ValueOf(s2.ByType).Pointer() {
		t.Fatal("Stats with unchanged counters allocated a fresh ByType map")
	}
	if s1.ByType["pdu.x"] != 1 || s1.ByType["pdu.y"] != 2 {
		t.Fatalf("snapshot content wrong: %v", s1.ByType)
	}

	l.mu.Lock()
	l.countLocked("pdu.x", 10, 3)
	l.mu.Unlock()
	s3 := l.Stats()
	if reflect.ValueOf(s3.ByType).Pointer() == reflect.ValueOf(s1.ByType).Pointer() {
		t.Fatal("Stats after counter change returned the stale snapshot map")
	}
	if s3.ByType["pdu.x"] != 4 {
		t.Fatalf("rebuilt snapshot wrong: %v", s3.ByType)
	}
	if s1.ByType["pdu.x"] != 1 {
		t.Fatalf("old snapshot mutated: %v", s1.ByType)
	}
	if s3.PDUsSent != 6 || s3.BytesSent != 10+40+30 {
		t.Fatalf("scalar counters wrong: %+v", s3)
	}
}

// TestReliableIndexedPlane smoke-tests the IndexedLower surface of the
// reliability layer itself: indexed attach, id-addressed send, and id
// round-trips through EndpointID/EndpointAddr.
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

// TestHoldOverflowDuplicateNotReheld pins the fix for a duplicate of an
// overflow-held PDU arriving once the window has moved its distance into
// the ring's range: it must be recognized as already held (the map
// semantics), not held a second time — which would strand the overflow
// copy and permanently inflate the occupancy count.
func TestHoldOverflowDuplicateNotReheld(t *testing.T) {
	cfg := ReliableDatagramConfig{Window: 4, ReorderBuffer: 16}
	arrivals := []uint64{
		6,       // dist 6 > ring 4 → overflow hold
		0, 1, 2, // expected → 3
		6,       // dist 3 ≤ 4: must be seen as a duplicate of the overflow hold
		3, 4, 5, // expected → 7, draining 6 exactly once
		8, 9, 7, // one more reorder round to confirm held accounting survived
		10, 11, 12, // in order
	}
	got, stats := runHoldSequence(t, cfg, arrivals)
	ref := newRefReceiver(16)
	for _, seq := range arrivals {
		ref.onData(seq, fmt.Sprintf("p%d", seq))
	}
	if !reflect.DeepEqual(got, ref.delivered) {
		t.Fatalf("delivery diverges from reference:\n got  %v\n want %v", got, ref.delivered)
	}
	if int(stats.Duplicates) != ref.dups || int(stats.OutOfOrder) != ref.ooo {
		t.Fatalf("stats diverge: got dups=%d ooo=%d, want dups=%d ooo=%d",
			stats.Duplicates, stats.OutOfOrder, ref.dups, ref.ooo)
	}
}
