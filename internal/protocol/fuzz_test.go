package protocol

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/codec"
	"repro/internal/sim"
)

// rdpSeed encodes one reliable-datagram PDU through the generic codec.
func rdpSeed(f *testing.F, name string, fields codec.Record) []byte {
	f.Helper()
	data, err := codec.AppendMessage(nil, codec.NewMessage(name, fields))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// pump replays captured PDUs to their receivers until none are left.
func (c *captureLower) pump() {
	for len(c.sent) > 0 {
		p := c.sent[0]
		c.sent = c.sent[1:]
		c.deliver(p)
	}
}

// FuzzReliableReceive feeds arbitrary bytes, as a PDU from peer "a", to
// the ReliableDatagram endpoint attached at "b" through a capture lower.
// It must never panic; only the payload of a well-formed rdp.data PDU
// carrying the fresh flow's expected seq 0, addressed to the current
// incarnation of "b", may reach the receiver (and in the legacy shape,
// without incarnation fields, it must); and afterwards a valid exchange
// from a third endpoint "c" to "b" must still deliver. Run bounded in CI
// (see .github/workflows/ci.yml, fuzz job) and by `make fuzz`.
func FuzzReliableReceive(f *testing.F) {
	for _, fields := range []codec.Record{
		{"seq": uint64(0), "payload": []byte("hello")},
		{"seq": uint64(3), "payload": []byte("ahead")},
		{"seq": uint64(0), "payload": []byte("inc"), "inc": uint64(2), "rinc": uint64(1)},
		{"seq": uint64(0), "payload": []byte("rinc"), "inc": uint64(1), "rinc": uint64(3)},
		{"seq": uint64(0), "payload": []byte("stale"), "inc": uint64(1), "rinc": uint64(0)},
	} {
		data := rdpSeed(f, "rdp.data", fields)
		f.Add(data)
		f.Add(data[:len(data)/2]) // truncated
	}
	f.Add(rdpSeed(f, "rdp.ack", codec.Record{"cum": uint64(1)}))
	f.Add(rdpSeed(f, "rdp.ack", codec.Record{"cum": uint64(1), "inc": uint64(2), "rinc": uint64(2)}))
	f.Add(rdpSeed(f, "rdp.data", codec.Record{"payload": []byte("no seq")}))
	f.Add(rdpSeed(f, "rdp.data", codec.Record{"seq": "zero", "payload": []byte("bad seq")}))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		lower := newCaptureLower()
		rd := NewReliableDatagram(sim.NewKernel(), lower, ReliableDatagramConfig{Window: 4})
		var got []string
		if err := rd.Attach("b", func(src Addr, pdu []byte) {
			got = append(got, string(src)+":"+string(pdu))
		}); err != nil {
			t.Fatal(err)
		}
		if err := rd.Attach("c", func(Addr, []byte) {}); err != nil {
			t.Fatal(err)
		}
		a := lower.attachPeer(t, "a")
		b, _ := rd.EndpointID("b")
		pdu := append([]byte(nil), data...)
		lower.deliver(capturedPDU{src: a, dst: b, pdu: pdu})
		lower.pump()

		// The fresh flow expects seq 0: only an rdp.data carrying it, for
		// an incarnation of "b" no older than its first (an absent rinc
		// reads as 1), may deliver, and in the legacy shape (no
		// incarnation fields) it must.
		var want []string
		mustDeliver := false
		if v, err := codec.ParseMessage(data); err == nil && v.NameIs("rdp.data") {
			f := recordOf(v)
			rinc, hasRinc := f["rinc"].(uint64)
			if seq, ok := f["seq"].(uint64); ok && seq == 0 && (!hasRinc || uint32(rinc) >= 1) {
				payload, _ := f["payload"].([]byte)
				want = []string{"a:" + string(payload)}
				_, hasInc := f["inc"].(uint64)
				mustDeliver = !hasInc && !hasRinc
			}
		}
		if len(got) > len(want) || (len(got) == 1 && got[0] != want[0]) || (mustDeliver && len(got) == 0) {
			t.Fatalf("delivered %q, want %q (required: %v)", got, want, mustDeliver)
		}

		got = got[:0]
		if err := rd.Send("c", "b", []byte("follow-up")); err != nil {
			t.Fatal(err)
		}
		lower.pump()
		if len(got) != 1 || got[0] != "c:follow-up" {
			t.Fatalf("follow-up exchange delivered %q, want [c:follow-up]", got)
		}
		if !bytes.Equal(pdu, data) {
			t.Fatal("the receive path modified the PDU bytes")
		}
	})
}

// FuzzFramingReassembly drives Framing.onSegment, the receive path that
// reads a length prefix out of octets from the lower service. data is
// split into frames of at most maxFrame bytes (lengths drawn from cuts),
// length-prefixed, and the stream is cut into segments at points drawn
// from cuts: the receiver must see exactly those frames, in order, with
// the same bytes. Then data itself is fed, as arbitrary stream octets, on
// a second flow cut the same way: that must never panic and never
// deliver a frame over maxFrame. Segments are fed from one scratch
// buffer that is overwritten after every call, so a layer that retained
// a segment would deliver corrupt frames. Run bounded in CI (see
// .github/workflows/ci.yml, fuzz job) and by `make fuzz`.
func FuzzFramingReassembly(f *testing.F) {
	f.Add([]byte("hello, framing"), []byte{3, 1, 4, 1, 5, 9, 2, 6})
	f.Add([]byte{}, []byte{})
	f.Add([]byte("one frame, one segment"), []byte{})
	f.Add([]byte{0, 0, 0, 2, 'h', 'i', 0, 0, 0, 0}, []byte{0, 2, 7})
	f.Add([]byte{0, 0, 0, 200, 1, 2, 3}, []byte{1})                   // prefix over maxFrame
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 1, 'x'}, []byte{4}) // max uint32 prefix

	const maxFrame = 64
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		if len(data) > 4096 {
			t.Skip("input too long")
		}
		// pick draws the i-th value from cuts modulo m (m when cuts is
		// empty, so an empty cut list means "as large as allowed").
		pick := func(i, m int) int {
			if len(cuts) == 0 {
				return m
			}
			return int(cuts[i%len(cuts)]) % (m + 1)
		}
		lower := newCaptureLower()
		fr := NewFraming(sim.NewKernel(), NewStream(lower, StreamConfig{}), maxFrame)
		var got [][]byte
		b, err := fr.AttachIndexed("b", func(_ int32, frame []byte) {
			if len(frame) > maxFrame {
				t.Fatalf("delivered a %d-byte frame, limit %d", len(frame), maxFrame)
			}
			got = append(got, append([]byte(nil), frame...))
		})
		if err != nil {
			t.Fatal(err)
		}
		feed := func(src int32, stream []byte) {
			scratch := make([]byte, 0, len(stream))
			for j := 0; len(stream) > 0; j++ {
				n := min(len(stream), pick(2*j+1, 16))
				if n == 0 {
					fr.onSegment(src, b, scratch[:0]) // an empty segment, then one octet
					n = 1
				}
				scratch = append(scratch[:0], stream[:n]...)
				fr.onSegment(src, b, scratch)
				for k := range scratch {
					scratch[k] = 0xEE
				}
				stream = stream[n:]
			}
		}

		var want [][]byte
		var stream []byte
		for i, rest := 0, data; len(rest) > 0; i++ {
			n := min(len(rest), pick(2*i, maxFrame))
			if n == 0 {
				want = append(want, []byte{}) // an empty frame, then one octet
				stream = binary.BigEndian.AppendUint32(stream, 0)
				n = 1
			}
			want = append(want, rest[:n])
			stream = binary.BigEndian.AppendUint32(stream, uint32(n))
			stream = append(stream, rest[:n]...)
			rest = rest[n:]
		}
		feed(lower.attachPeer(t, "a"), stream)
		if len(got) != len(want) {
			t.Fatalf("delivered %d frames, want %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d = %x, want %x", i, got[i], want[i])
			}
		}

		got = nil
		feed(lower.attachPeer(t, "z"), data)
	})
}
