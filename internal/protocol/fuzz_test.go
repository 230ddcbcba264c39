package protocol

import (
	"bytes"
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
		pdu := append([]byte(nil), data...)
		lower.deliver(capturedPDU{src: "a", dst: "b", pdu: pdu})
		lower.pump()

		// The fresh flow expects seq 0: only an rdp.data carrying it, for
		// an incarnation of "b" no older than its first (an absent rinc
		// reads as 1), may deliver, and in the legacy shape (no
		// incarnation fields) it must.
		var want []string
		mustDeliver := false
		if v, err := codec.ParseMessage(data); err == nil && v.NameIs("rdp.data") {
			rinc, hasRinc := v.Uint("rinc")
			if seq, ok := v.Uint("seq"); ok && seq == 0 && (!hasRinc || uint32(rinc) >= 1) {
				payload, _ := v.Bytes("payload")
				want = []string{"a:" + string(payload)}
				_, hasInc := v.Uint("inc")
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
