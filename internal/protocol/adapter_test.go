package protocol

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/network"
)

// The tests in this file pin AsIndexed, the adapter that puts a
// name-only LowerService on the dense plane: traffic over the adapter
// must be exactly the traffic over the indexed service it hides.

// logEntity records every PDU it receives into a shared delivery log.
type logEntity struct {
	ctx *Context
	log *[]string
}

func (e *logEntity) Init(ctx *Context) error { e.ctx = ctx; return nil }

func (e *logEntity) FromUser(string, []byte) error { return nil }

func (e *logEntity) FromPeer(src Addr, pdu codec.MsgView) error {
	i, _ := pdu.Int("i")
	*e.log = append(*e.log, fmt.Sprintf("%v %s→%s %s i=%d", e.ctx.Time().Now(), src, e.ctx.Self(), pdu.Name(), i))
	return nil
}

// recTick is the fan-out PDU's record.
var recTick = codec.CompileRecord("i")

var pduTick = NewPDU("fan.tick", func(buf []byte, i int64) ([]byte, error) {
	e := recTick.Encoder(buf)
	e.Int("i", i)
	return e.Finish()
})

// adapterTraffic runs one seeded workload over wrap(udp) and returns the
// delivery log and the network counters: go-back-N flows a→b and c→b
// through a ReliableDatagram on a link with loss, duplication and
// jitter, plus a Layer whose "hub" entity fans every PDU out to three
// peers with PDU.SendMulti.
func adapterTraffic(t *testing.T, wrap func(LowerService) LowerService) ([]string, network.Stats) {
	t.Helper()
	k, n := newNet(21, network.LinkConfig{
		Latency:       2 * time.Millisecond,
		Jitter:        time.Millisecond,
		LossRate:      0.2,
		DuplicateRate: 0.1,
	})
	lower := wrap(NewUnreliableDatagram(n))
	var log []string
	rd := NewReliableDatagram(k, lower, ReliableDatagramConfig{Window: 4})
	for _, at := range []Addr{"a", "b", "c"} {
		at := at
		if err := rd.Attach(at, func(src Addr, pdu []byte) {
			log = append(log, fmt.Sprintf("%v %s→%s %s", k.Now(), src, at, pdu))
		}); err != nil {
			t.Fatal(err)
		}
	}
	layer := NewLayer("fan", k, lower)
	hub := &logEntity{log: &log}
	peers := []Addr{"p1", "p2", "p3"}
	if err := layer.AddEntity("hub", hub); err != nil {
		t.Fatal(err)
	}
	for _, p := range peers {
		if err := layer.AddEntity(p, &logEntity{log: &log}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		if err := rd.Send("a", "b", []byte(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := rd.Send("c", "b", []byte(fmt.Sprintf("c%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := pduTick.SendMulti(hub.ctx, peers, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return log, n.Stats()
}

// TestAsIndexedParity runs the same seeded traffic over the indexed
// UnreliableDatagram and over the same service hidden behind a
// name-only wrapper (so the layers above go through AsIndexed's
// adapter), and requires identical delivery sequences and network
// counters.
func TestAsIndexedParity(t *testing.T) {
	direct, directStats := adapterTraffic(t, func(l LowerService) LowerService { return l })
	adapted, adaptedStats := adapterTraffic(t, func(l LowerService) LowerService {
		named := struct{ LowerService }{l}
		if _, ok := AsIndexed(named).(*indexedAdapter); !ok {
			t.Fatal("AsIndexed did not wrap a name-only service")
		}
		return named
	})
	if len(direct) < 2*30+3*30/2 {
		t.Fatalf("only %d deliveries; the workload is not exercising the stack", len(direct))
	}
	if !reflect.DeepEqual(direct, adapted) {
		for i := range direct {
			if i >= len(adapted) || direct[i] != adapted[i] {
				t.Fatalf("delivery %d diverges over the adapter:\n direct  %q\n adapted %q", i, direct[i], adapted[min(i, len(adapted)-1)])
			}
		}
		t.Fatalf("adapter delivered %d extra PDUs", len(adapted)-len(direct))
	}
	if directStats != adaptedStats {
		t.Fatalf("network stats diverge: direct %+v, adapted %+v", directStats, adaptedStats)
	}
	if directStats.Dropped == 0 {
		t.Fatal("no datagram was dropped; the workload is not exercising retransmission")
	}
}

// TestAsIndexedPassThrough pins that an indexed service is returned
// unchanged, and the adapter's id surface: first-sight interning, any
// address resolving, and "" for ids never issued.
func TestAsIndexedPassThrough(t *testing.T) {
	_, n := newNet(1, network.LinkConfig{})
	udp := NewUnreliableDatagram(n)
	if got := AsIndexed(udp); got != IndexedLower(udp) {
		t.Fatal("AsIndexed wrapped an indexed service")
	}
	a := AsIndexed(newCaptureLower())
	x, err := a.AttachIndexed("x", func(int32, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if y, ok := a.EndpointID("y"); !ok || y != x+1 {
		t.Fatalf("EndpointID(y) = %d,%v, want %d,true", y, ok, x+1)
	}
	if got := a.EndpointAddr(x + 1); got != "y" {
		t.Fatalf("EndpointAddr(%d) = %q, want y", x+1, got)
	}
	if got := a.EndpointAddr(7); got != "" {
		t.Fatalf("EndpointAddr(7) = %q, want \"\"", got)
	}
	if _, err := a.AttachIndexed("z", nil); err == nil {
		t.Fatal("nil receiver accepted")
	}
}
