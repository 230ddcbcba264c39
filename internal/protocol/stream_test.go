package protocol

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/network"
	"repro/internal/sim"
)

func newStreamPair(t *testing.T, seed int64, loss float64, chunk int) (*sim.Kernel, *Stream) {
	t.Helper()
	k := sim.NewKernel(sim.WithSeed(seed))
	net := network.New(k, network.WithDefaultLink(network.LinkConfig{
		Latency:  time.Millisecond,
		LossRate: loss,
	}))
	reliable := NewReliableDatagram(k, NewUnreliableDatagram(net), ReliableDatagramConfig{})
	return k, NewStream(reliable, StreamConfig{ChunkSize: chunk})
}

// attachPair attaches recv at "b" and a silent receiver at "a",
// returning both endpoint ids.
func attachPair(t *testing.T, s *Stream, recv StreamReceiver) (a, b int32) {
	t.Helper()
	b, err := s.AttachStream("b", recv)
	if err != nil {
		t.Fatal(err)
	}
	if a, err = s.AttachStream("a", func(int32, []byte) {}); err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestStreamDeliversOctetSequence(t *testing.T) {
	k, s := newStreamPair(t, 1, 0, 8)
	var got bytes.Buffer
	a, b := attachPair(t, s, func(_ int32, seg []byte) { got.Write(seg) })
	payload := []byte("the quick brown fox jumps over the lazy dog")
	if err := s.Write(a, b, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("stream = %q, want %q", got.Bytes(), payload)
	}
}

func TestStreamChunksLargeWrites(t *testing.T) {
	k, s := newStreamPair(t, 1, 0, 10)
	segments := 0
	a, b := attachPair(t, s, func(int32, []byte) { segments++ })
	if err := s.Write(a, b, make([]byte, 95)); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if segments != 10 { // 9×10 + 1×5
		t.Fatalf("segments = %d, want 10", segments)
	}
}

func TestStreamUnderLoss(t *testing.T) {
	k, s := newStreamPair(t, 9, 0.3, 16)
	var got bytes.Buffer
	a, b := attachPair(t, s, func(_ int32, seg []byte) { got.Write(seg) })
	var want bytes.Buffer
	for i := 0; i < 20; i++ {
		chunk := []byte(fmt.Sprintf("message-%02d|", i))
		want.Write(chunk)
		if err := s.Write(a, b, chunk); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("octet sequence corrupted under loss:\ngot  %q\nwant %q", got.Bytes(), want.Bytes())
	}
}

func TestStreamNilReceiver(t *testing.T) {
	_, s := newStreamPair(t, 1, 0, 8)
	if _, err := s.AttachStream("x", nil); err == nil {
		t.Fatal("nil receiver accepted")
	}
}

func newFramingPair(t *testing.T, seed int64, loss float64, chunk int) (*sim.Kernel, *Framing) {
	t.Helper()
	k := sim.NewKernel(sim.WithSeed(seed))
	net := network.New(k, network.WithDefaultLink(network.LinkConfig{
		Latency:  time.Millisecond,
		LossRate: loss,
	}))
	f := NewStreamTransport(k, NewUnreliableDatagram(net), ReliableDatagramConfig{}, StreamConfig{ChunkSize: chunk})
	return k, f
}

func TestFramingRestoresBoundaries(t *testing.T) {
	// Chunk size 7 guarantees frames straddle chunk boundaries.
	k, f := newFramingPair(t, 3, 0, 7)
	var got []string
	if err := f.Attach("b", func(_ Addr, pdu []byte) { got = append(got, string(pdu)) }); err != nil {
		t.Fatal(err)
	}
	if err := f.Attach("a", func(Addr, []byte) {}); err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "bravo-charlie-delta", "", "x", "a-much-longer-frame-spanning-many-chunks"}
	for _, m := range want {
		if err := f.Send("a", "b", []byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("frames = %d, want %d (%q)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestFramingUnderLoss(t *testing.T) {
	k, f := newFramingPair(t, 11, 0.25, 5)
	var got []string
	if err := f.Attach("b", func(_ Addr, pdu []byte) { got = append(got, string(pdu)) }); err != nil {
		t.Fatal(err)
	}
	if err := f.Attach("a", func(Addr, []byte) {}); err != nil {
		t.Fatal(err)
	}
	const n = 30
	for i := 0; i < n; i++ {
		if err := f.Send("a", "b", []byte(fmt.Sprintf("pdu-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("delivered %d of %d frames under loss", len(got), n)
	}
	for i := range got {
		if got[i] != fmt.Sprintf("pdu-%03d", i) {
			t.Fatalf("frame %d = %q", i, got[i])
		}
	}
}

func TestFramingFrameTooLarge(t *testing.T) {
	k := sim.NewKernel()
	net := network.New(k)
	stream := NewStream(NewReliableDatagram(k, NewUnreliableDatagram(net), ReliableDatagramConfig{}), StreamConfig{})
	f := NewFraming(k, stream, 8)
	if err := f.Attach("a", func(Addr, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := f.Attach("b", func(Addr, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := f.Send("a", "b", make([]byte, 9)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestFramingNilReceiver(t *testing.T) {
	_, f := newFramingPair(t, 1, 0, 8)
	if err := f.Attach("x", nil); err == nil {
		t.Fatal("nil receiver accepted")
	}
}

// Property: any sequence of frames of any sizes survives the full stack
// (loss + chunking + framing) intact and in order.
func TestPropertyFramedStackExactlyOnce(t *testing.T) {
	prop := func(seed int64, sizes []uint8, lossTenths, chunk uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 20 {
			sizes = sizes[:20]
		}
		loss := float64(lossTenths%6) / 10
		k, f := quickFramingPair(seed, loss, int(chunk%32)+1)
		var got [][]byte
		// pdu aliases a pooled frame buffer; copy to retain across calls.
		if err := f.Attach("b", func(_ Addr, pdu []byte) {
			got = append(got, append([]byte(nil), pdu...))
		}); err != nil {
			return false
		}
		if err := f.Attach("a", func(Addr, []byte) {}); err != nil {
			return false
		}
		var want [][]byte
		for i, size := range sizes {
			frame := bytes.Repeat([]byte{byte(i)}, int(size))
			want = append(want, frame)
			if err := f.Send("a", "b", frame); err != nil {
				return false
			}
		}
		if _, err := k.Run(); err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func quickFramingPair(seed int64, loss float64, chunk int) (*sim.Kernel, *Framing) {
	k := sim.NewKernel(sim.WithSeed(seed))
	net := network.New(k, network.WithDefaultLink(network.LinkConfig{
		Latency:  time.Millisecond,
		LossRate: loss,
	}))
	return k, NewStreamTransport(k, NewUnreliableDatagram(net), ReliableDatagramConfig{}, StreamConfig{ChunkSize: chunk})
}

func BenchmarkFramedStack(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		net := network.New(k)
		f := NewStreamTransport(k, NewUnreliableDatagram(net), ReliableDatagramConfig{}, StreamConfig{ChunkSize: 64})
		delivered := 0
		if err := f.Attach("b", func(Addr, []byte) { delivered++ }); err != nil {
			b.Fatal(err)
		}
		if err := f.Attach("a", func(Addr, []byte) {}); err != nil {
			b.Fatal(err)
		}
		payload := bytes.Repeat([]byte("x"), 200)
		for j := 0; j < 50; j++ {
			if err := f.Send("a", "b", payload); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := k.Run(); err != nil {
			b.Fatal(err)
		}
		if delivered != 50 {
			b.Fatalf("delivered %d", delivered)
		}
	}
}

// TestReorderBufferSuppressesRetransmits pins the receiver-buffering
// design choice: under jitter-induced reordering (no loss), the buffered
// receiver needs far fewer retransmissions than a pure go-back-N receiver
// that discards out-of-order arrivals.
func TestReorderBufferSuppressesRetransmits(t *testing.T) {
	run := func(reorderBuffer int) ReliableStats {
		k := sim.NewKernel(sim.WithSeed(21))
		net := network.New(k, network.WithDefaultLink(network.LinkConfig{
			Latency: 2 * time.Millisecond,
			Jitter:  2 * time.Millisecond,
		}))
		r := NewReliableDatagram(k, NewUnreliableDatagram(net), ReliableDatagramConfig{
			RetransmitTimeout: 16 * time.Millisecond,
			ReorderBuffer:     reorderBuffer,
		})
		got := 0
		if err := r.Attach("b", func(Addr, []byte) { got++ }); err != nil {
			t.Fatal(err)
		}
		if err := r.Attach("a", func(Addr, []byte) {}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 60; i++ {
			if err := r.Send("a", "b", []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if got != 60 {
			t.Fatalf("delivered %d of 60", got)
		}
		return r.Stats()
	}
	buffered := run(0) // default: 4×window
	pure := run(-1)    // disabled: classic go-back-N receiver
	if buffered.Retransmits >= pure.Retransmits {
		t.Fatalf("buffering should cut retransmits: buffered=%d pure=%d",
			buffered.Retransmits, pure.Retransmits)
	}
	if pure.Retransmits == 0 {
		t.Fatal("jittered link produced no reordering; test ineffective")
	}
}
