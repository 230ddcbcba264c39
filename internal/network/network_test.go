package network

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

type capture struct {
	payloads [][]byte
	sources  []Slot
	times    []time.Duration
}

func (c *capture) handler(k *sim.Kernel) SlotHandler {
	return func(src Slot, payload []byte) {
		c.sources = append(c.sources, src)
		// The payload aliases a pooled delivery buffer: copy to retain.
		c.payloads = append(c.payloads, append([]byte(nil), payload...))
		c.times = append(c.times, k.Now())
	}
}

// The slots newPair gives its nodes "a" and "b": slots count up from
// zero in registration order.
const slotA, slotB Slot = 0, 1

func newPair(t *testing.T, cfg LinkConfig, opts ...sim.Option) (*sim.Kernel, *Network, *capture) {
	t.Helper()
	k := sim.NewKernel(opts...)
	n := New(k, WithDefaultLink(cfg))
	cap := &capture{}
	if _, err := n.Register("a", func(Slot, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Register("b", cap.handler(k)); err != nil {
		t.Fatal(err)
	}
	return k, n, cap
}

func TestDeliveryWithLatency(t *testing.T) {
	k, n, cap := newPair(t, LinkConfig{Latency: 5 * time.Millisecond})
	if err := n.SendSlot(slotA, slotB, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(cap.payloads) != 1 || string(cap.payloads[0]) != "hello" {
		t.Fatalf("payloads = %q", cap.payloads)
	}
	if cap.sources[0] != slotA {
		t.Fatalf("src = %d, want %d", cap.sources[0], slotA)
	}
	if cap.times[0] != 5*time.Millisecond {
		t.Fatalf("delivered at %v, want 5ms", cap.times[0])
	}
}

func TestPayloadCopiedAtBoundary(t *testing.T) {
	k, n, cap := newPair(t, LinkConfig{})
	buf := []byte("original")
	if err := n.SendSlot(slotA, slotB, buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "MUTATED!")
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if string(cap.payloads[0]) != "original" {
		t.Fatalf("payload aliased caller buffer: %q", cap.payloads[0])
	}
}

// TestUnknownNodes: a slot the network never issued is rejected on
// either end of a send.
func TestUnknownNodes(t *testing.T) {
	_, n, _ := newPair(t, LinkConfig{})
	if err := n.SendSlot(slotA, 7, nil); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("err = %v, want ErrBadSlot", err)
	}
	if err := n.SendSlot(-1, slotB, nil); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("err = %v, want ErrBadSlot", err)
	}
	if n.IDOf(7) != "" {
		t.Fatalf("IDOf(7) = %q for an unissued slot, want \"\"", n.IDOf(7))
	}
}

func TestDuplicateNode(t *testing.T) {
	_, n, _ := newPair(t, LinkConfig{})
	_, err := n.Register("a", func(Slot, []byte) {})
	if !errors.Is(err, ErrDuplicateNode) {
		t.Fatalf("err = %v, want ErrDuplicateNode", err)
	}
}

func TestNilHandlerRejected(t *testing.T) {
	k := sim.NewKernel()
	n := New(k)
	if _, err := n.Register("x", nil); err == nil {
		t.Fatal("expected error for nil handler")
	}
	if err := n.SetSlotHandler("x", nil); err == nil {
		t.Fatal("expected error for nil handler in SetSlotHandler")
	}
}

func TestSetHandlerUnknownNode(t *testing.T) {
	k := sim.NewKernel()
	n := New(k)
	if err := n.SetSlotHandler("ghost", func(Slot, []byte) {}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
}

func TestMTU(t *testing.T) {
	_, n, _ := newPair(t, LinkConfig{MTU: 4})
	if err := n.SendSlot(slotA, slotB, []byte("12345")); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	if err := n.SendSlot(slotA, slotB, []byte("1234")); err != nil {
		t.Fatalf("send at MTU: %v", err)
	}
}

func TestLossRateFullLoss(t *testing.T) {
	k, n, cap := newPair(t, LinkConfig{LossRate: 1})
	for i := 0; i < 20; i++ {
		if err := n.SendSlot(slotA, slotB, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(cap.payloads) != 0 {
		t.Fatalf("delivered %d datagrams over fully lossy link", len(cap.payloads))
	}
	st := n.Stats()
	if st.Sent != 20 || st.Dropped != 20 || st.Delivered != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLossRateStatistical(t *testing.T) {
	k, n, cap := newPair(t, LinkConfig{LossRate: 0.5}, sim.WithSeed(7))
	const total = 2000
	for i := 0; i < total; i++ {
		if err := n.SendSlot(slotA, slotB, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	got := len(cap.payloads)
	if got < total*35/100 || got > total*65/100 {
		t.Fatalf("delivered %d of %d with 50%% loss; far outside expectation", got, total)
	}
}

func TestDuplication(t *testing.T) {
	k, n, cap := newPair(t, LinkConfig{DuplicateRate: 1})
	if err := n.SendSlot(slotA, slotB, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(cap.payloads) != 2 {
		t.Fatalf("delivered %d, want duplicate delivery (2)", len(cap.payloads))
	}
	st := n.Stats()
	if st.Sent != 1 || st.Delivered != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestJitterCausesReordering(t *testing.T) {
	k, n, _ := newPair(t, LinkConfig{Latency: time.Millisecond, Jitter: 10 * time.Millisecond}, sim.WithSeed(3))
	var order []byte
	if err := n.SetSlotHandler("b", func(_ Slot, p []byte) { order = append(order, p[0]) }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := n.SendSlot(slotA, slotB, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 50 {
		t.Fatalf("delivered %d, want 50", len(order))
	}
	inOrder := true
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Fatal("large jitter should reorder simultaneous sends")
	}
}

func TestPartitionAndHeal(t *testing.T) {
	k, n, cap := newPair(t, LinkConfig{})
	n.Partition("a", "b")
	if err := n.SendSlot(slotA, slotB, []byte("lost")); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(cap.payloads) != 0 {
		t.Fatal("partitioned link delivered a datagram")
	}
	n.Heal("a", "b")
	if err := n.SendSlot(slotA, slotB, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(cap.payloads) != 1 || string(cap.payloads[0]) != "ok" {
		t.Fatalf("after heal got %q", cap.payloads)
	}
}

func TestPartitionIsDirected(t *testing.T) {
	k := sim.NewKernel()
	n := New(k)
	var toA, toB int
	a, err := n.Register("a", func(Slot, []byte) { toA++ })
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Register("b", func(Slot, []byte) { toB++ })
	if err != nil {
		t.Fatal(err)
	}
	n.Partition("a", "b")
	if err := n.SendSlot(a, b, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := n.SendSlot(b, a, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if toB != 0 || toA != 1 {
		t.Fatalf("toA=%d toB=%d, want 1/0", toA, toB)
	}
}

func TestPerLinkConfigOverridesDefault(t *testing.T) {
	k, n, cap := newPair(t, LinkConfig{Latency: time.Millisecond})
	if err := n.SetLink("a", "b", LinkConfig{Latency: 42 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := n.SendSlot(slotA, slotB, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if cap.times[0] != 42*time.Millisecond {
		t.Fatalf("delivered at %v, want 42ms", cap.times[0])
	}
}

func TestLinkConfigValidation(t *testing.T) {
	k := sim.NewKernel()
	n := New(k)
	bad := []LinkConfig{
		{Latency: -1},
		{Jitter: -1},
		{LossRate: -0.1},
		{LossRate: 1.1},
		{DuplicateRate: 2},
		{MTU: -5},
	}
	for _, cfg := range bad {
		if err := n.SetLink("a", "b", cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}

// TestStatsAndReset: Stats counts sends, deliveries and bytes, and
// returns a snapshot that later traffic does not change. Counters are
// per network, so a fresh network is the reset: it starts at zero.
func TestStatsAndReset(t *testing.T) {
	k, n, _ := newPair(t, LinkConfig{})
	for i := 0; i < 3; i++ {
		if err := n.SendSlot(slotA, slotB, []byte("xyz")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.Sent != 3 || st.Delivered != 3 || st.BytesSent != 9 {
		t.Fatalf("stats = %+v", st)
	}
	if err := n.SendSlot(slotA, slotB, []byte("w")); err != nil {
		t.Fatal(err)
	}
	if st.Sent != 3 || n.Stats().Sent != 4 {
		t.Fatalf("snapshot Sent = %d, live Sent = %d; want 3 and 4", st.Sent, n.Stats().Sent)
	}
	if st := New(k).Stats(); st != (Stats{}) {
		t.Fatalf("fresh network stats = %+v, want zero", st)
	}
}

// Property: with no loss, duplication or partition, every sent datagram is
// delivered exactly once, regardless of jitter.
func TestPropertyLosslessDeliversAll(t *testing.T) {
	prop := func(seed int64, count uint8, jitterMs uint8) bool {
		k := sim.NewKernel(sim.WithSeed(seed))
		n := New(k, WithDefaultLink(LinkConfig{
			Latency: time.Millisecond,
			Jitter:  time.Duration(jitterMs) * time.Millisecond,
		}))
		delivered := 0
		if _, err := n.Register("a", func(Slot, []byte) {}); err != nil {
			return false
		}
		if _, err := n.Register("b", func(Slot, []byte) { delivered++ }); err != nil {
			return false
		}
		for i := 0; i < int(count); i++ {
			if err := n.SendSlot(slotA, slotB, []byte{byte(i)}); err != nil {
				return false
			}
		}
		if _, err := k.Run(); err != nil {
			return false
		}
		return delivered == int(count)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSendDeliver(b *testing.B) {
	k := sim.NewKernel()
	n := New(k)
	if _, err := n.Register("a", func(Slot, []byte) {}); err != nil {
		b.Fatal(err)
	}
	if _, err := n.Register("b", func(Slot, []byte) {}); err != nil {
		b.Fatal(err)
	}
	payload := []byte("0123456789abcdef")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := n.SendSlot(slotA, slotB, payload); err != nil {
			b.Fatal(err)
		}
		if _, err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
