package protocol

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/sim"
)

func newNet(seed int64, cfg network.LinkConfig) (*sim.Kernel, *network.Network) {
	k := sim.NewKernel(sim.WithSeed(seed))
	return k, network.New(k, network.WithDefaultLink(cfg))
}

func TestUnreliableDatagramRoundTrip(t *testing.T) {
	k, n := newNet(1, network.LinkConfig{Latency: time.Millisecond})
	u := NewUnreliableDatagram(n)
	var got []string
	if err := u.Attach("b", func(src Addr, pdu []byte) {
		got = append(got, fmt.Sprintf("%s:%s", src, pdu))
	}); err != nil {
		t.Fatal(err)
	}
	if err := u.Attach("a", func(Addr, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := u.Send("a", "b", []byte("ping")); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "a:ping" {
		t.Fatalf("got %v", got)
	}
}

func TestUnreliableDatagramReattach(t *testing.T) {
	k, n := newNet(1, network.LinkConfig{})
	u := NewUnreliableDatagram(n)
	first, second := 0, 0
	if err := u.Attach("x", func(Addr, []byte) { first++ }); err != nil {
		t.Fatal(err)
	}
	if err := u.Attach("x", func(Addr, []byte) { second++ }); err != nil {
		t.Fatal(err)
	}
	if err := u.Attach("y", func(Addr, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := u.Send("y", "x", []byte("z")); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if first != 0 || second != 1 {
		t.Fatalf("first=%d second=%d; reattach should replace", first, second)
	}
}

func TestUnreliableDatagramNilReceiver(t *testing.T) {
	_, n := newNet(1, network.LinkConfig{})
	u := NewUnreliableDatagram(n)
	if err := u.Attach("x", nil); err == nil {
		t.Fatal("nil receiver accepted")
	}
}

// driveReliable sends count payloads a→b over a link with the given config
// and returns the payloads delivered at b, in order.
func driveReliable(t *testing.T, seed int64, cfg network.LinkConfig, rcfg ReliableDatagramConfig, count int) ([]string, *ReliableDatagram) {
	t.Helper()
	k, n := newNet(seed, cfg)
	r := NewReliableDatagram(k, NewUnreliableDatagram(n), rcfg)
	var got []string
	if err := r.Attach("b", func(src Addr, pdu []byte) { got = append(got, string(pdu)) }); err != nil {
		t.Fatal(err)
	}
	if err := r.Attach("a", func(Addr, []byte) {}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < count; i++ {
		if err := r.Send("a", "b", []byte(fmt.Sprintf("msg-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return got, r
}

func TestReliableDatagramLossless(t *testing.T) {
	got, r := driveReliable(t, 1, network.LinkConfig{Latency: time.Millisecond}, ReliableDatagramConfig{}, 20)
	if len(got) != 20 {
		t.Fatalf("delivered %d, want 20", len(got))
	}
	for i, s := range got {
		if s != fmt.Sprintf("msg-%03d", i) {
			t.Fatalf("out of order at %d: %q", i, s)
		}
	}
	if st := r.Stats(); st.Retransmits != 0 {
		t.Fatalf("lossless run retransmitted: %+v", st)
	}
}

func TestReliableDatagramUnderLoss(t *testing.T) {
	cfg := network.LinkConfig{Latency: time.Millisecond, LossRate: 0.3}
	got, r := driveReliable(t, 7, cfg, ReliableDatagramConfig{}, 50)
	if len(got) != 50 {
		t.Fatalf("delivered %d of 50 under loss", len(got))
	}
	for i, s := range got {
		if s != fmt.Sprintf("msg-%03d", i) {
			t.Fatalf("order violated at %d: %q", i, s)
		}
	}
	if st := r.Stats(); st.Retransmits == 0 {
		t.Fatalf("30%% loss with zero retransmits is implausible: %+v", st)
	}
}

func TestReliableDatagramUnderDuplicationAndJitter(t *testing.T) {
	cfg := network.LinkConfig{
		Latency:       time.Millisecond,
		Jitter:        4 * time.Millisecond,
		DuplicateRate: 0.3,
	}
	got, r := driveReliable(t, 11, cfg, ReliableDatagramConfig{Window: 4}, 40)
	if len(got) != 40 {
		t.Fatalf("delivered %d of 40", len(got))
	}
	for i, s := range got {
		if s != fmt.Sprintf("msg-%03d", i) {
			t.Fatalf("order violated at %d: %q", i, s)
		}
	}
	st := r.Stats()
	if st.Duplicates == 0 && st.OutOfOrder == 0 {
		t.Logf("note: no dup/ooo observed (stats %+v)", st)
	}
}

func TestReliableDatagramBidirectional(t *testing.T) {
	k, n := newNet(3, network.LinkConfig{Latency: time.Millisecond, LossRate: 0.2})
	r := NewReliableDatagram(k, NewUnreliableDatagram(n), ReliableDatagramConfig{})
	var atA, atB int
	if err := r.Attach("a", func(Addr, []byte) { atA++ }); err != nil {
		t.Fatal(err)
	}
	if err := r.Attach("b", func(Addr, []byte) { atB++ }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := r.Send("a", "b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if err := r.Send("b", "a", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if atA != 25 || atB != 25 {
		t.Fatalf("atA=%d atB=%d, want 25/25", atA, atB)
	}
}

func TestReliableDatagramRetransmitLimit(t *testing.T) {
	k, n := newNet(1, network.LinkConfig{LossRate: 1})
	r := NewReliableDatagram(k, NewUnreliableDatagram(n), ReliableDatagramConfig{MaxRetransmits: 3})
	if err := r.Attach("a", func(Addr, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := r.Attach("b", func(Addr, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := r.Send("a", "b", []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Flow is now broken: next send fails.
	err := r.Send("a", "b", []byte("after"))
	if err == nil {
		t.Fatal("send on broken flow should fail")
	}
}

func TestReliableDatagramWindowRespected(t *testing.T) {
	// With a huge retransmit timeout and no acks possible (receiver never
	// attached at lower level... instead partition), only Window PDUs leave.
	k, n := newNet(1, network.LinkConfig{Latency: time.Millisecond})
	r := NewReliableDatagram(k, NewUnreliableDatagram(n), ReliableDatagramConfig{
		Window:            4,
		RetransmitTimeout: time.Hour,
	})
	if err := r.Attach("a", func(Addr, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := r.Attach("b", func(Addr, []byte) {}); err != nil {
		t.Fatal(err)
	}
	n.Partition("a", "b")
	n.Partition("b", "a")
	for i := 0; i < 10; i++ {
		if err := r.Send("a", "b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.DataSent != 4 {
		t.Fatalf("DataSent = %d, want window-limited 4", st.DataSent)
	}
}

// echoEntity is a minimal application protocol: user primitive "ping"
// sends a PDU; the peer replies; the reply surfaces as "pong" to the user.
type echoEntity struct {
	ctx  *Context
	peer Addr
}

func (e *echoEntity) Init(ctx *Context) error { e.ctx = ctx; return nil }

func (e *echoEntity) FromUser(primitive string, params []byte) error {
	if primitive != "ping" {
		return fmt.Errorf("echo: unknown primitive %q", primitive)
	}
	return pduEchoReq.Send(e.ctx, e.peer, params)
}

// appendRecord appends an encoded params record: the echo PDUs carry
// the primitive's params as they are.
func appendRecord(buf, rec []byte) ([]byte, error) { return append(buf, rec...), nil }

// rec encodes a params record through the generic codec.
func rec(r codec.Record) []byte {
	b, err := codec.Append(nil, r)
	if err != nil {
		panic(err)
	}
	return b
}

// fieldsOf decodes (copies) an encoded params record.
func fieldsOf(params []byte) codec.Record {
	v, err := codec.ParseRecord(params)
	if err != nil {
		return nil
	}
	return recordOf(v)
}

// recordOf materializes (copies) every field of a view.
func recordOf(v codec.MsgView) codec.Record {
	r := codec.Record{}
	for k, val := range v.All {
		r[string(k)] = val
	}
	return r
}

var (
	pduEchoReq  = NewPDU("echo.req", appendRecord)
	pduEchoResp = NewPDU("echo.resp", appendRecord)
)

func (e *echoEntity) FromPeer(src Addr, pdu codec.MsgView) error {
	params := rec(recordOf(pdu))
	switch {
	case pdu.NameIs(pduEchoReq.Name()):
		return pduEchoResp.Send(e.ctx, src, params)
	case pdu.NameIs(pduEchoResp.Name()):
		e.ctx.DeliverToUser("pong", params)
		return nil
	default:
		return fmt.Errorf("echo: unknown PDU %q", pdu.Name())
	}
}

func TestLayerEchoProtocol(t *testing.T) {
	k, n := newNet(1, network.LinkConfig{Latency: 2 * time.Millisecond})
	layer := NewLayer("echo", k, NewUnreliableDatagram(n))
	if err := layer.AddEntity("a", &echoEntity{peer: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := layer.AddEntity("b", &echoEntity{peer: "a"}); err != nil {
		t.Fatal(err)
	}
	binding := NewServiceBinding(layer)
	sapA := core.SAP{Role: "user", ID: "a"}
	if err := binding.Bind(sapA, "a"); err != nil {
		t.Fatal(err)
	}
	var pongs []codec.Record
	binding.Attach(sapA, func(prim string, params []byte) {
		if prim == "pong" {
			pongs = append(pongs, fieldsOf(params))
		}
	})
	if err := binding.Submit(sapA, "ping", rec(codec.Record{"n": int64(1)})); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(pongs) != 1 || pongs[0]["n"] != int64(1) {
		t.Fatalf("pongs = %v", pongs)
	}
	st := layer.Stats()
	if st.PDUsSent != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesSent == 0 {
		t.Fatal("BytesSent not counted")
	}
}

func TestLayerErrors(t *testing.T) {
	k, n := newNet(1, network.LinkConfig{})
	layer := NewLayer("x", k, NewUnreliableDatagram(n))
	if err := layer.AddEntity("a", nil); err == nil {
		t.Fatal("nil entity accepted")
	}
	if err := layer.AddEntity("a", &echoEntity{peer: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := layer.AddEntity("a", &echoEntity{peer: "b"}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
}

// TestUnknownEndpointEveryLayer pins the one unknown-endpoint rule: a
// send to an address the service below never attached fails at once
// with ErrUnknownEntity, at every layer of the stack.
func TestUnknownEndpointEveryLayer(t *testing.T) {
	attachThenSend := func(l LowerService) error {
		if err := l.Attach("a", func(Addr, []byte) {}); err != nil {
			return err
		}
		return l.Send("a", "ghost", []byte("x"))
	}
	for _, tc := range []struct {
		name string
		send func(*sim.Kernel, *UnreliableDatagram) error
	}{
		{"UnreliableDatagram", func(_ *sim.Kernel, udp *UnreliableDatagram) error {
			return attachThenSend(udp)
		}},
		{"ReliableDatagram", func(k *sim.Kernel, udp *UnreliableDatagram) error {
			return attachThenSend(NewReliableDatagram(k, udp, ReliableDatagramConfig{}))
		}},
		{"Framing", func(k *sim.Kernel, udp *UnreliableDatagram) error {
			return attachThenSend(NewStreamTransport(k, udp, ReliableDatagramConfig{}, StreamConfig{}))
		}},
		{"Layer", func(k *sim.Kernel, udp *UnreliableDatagram) error {
			layer := NewLayer("unknown", k, udp)
			e := &ctxEntity{}
			if err := layer.AddEntity("a", e); err != nil {
				return err
			}
			return pduTick.Send(e.ctx, "ghost", 1)
		}},
	} {
		k, n := newNet(1, network.LinkConfig{})
		if err := tc.send(k, NewUnreliableDatagram(n)); !errors.Is(err, ErrUnknownEntity) {
			t.Errorf("%s: send to an unattached address: err = %v, want ErrUnknownEntity", tc.name, err)
		}
	}
}

func TestServiceBindingErrors(t *testing.T) {
	k, n := newNet(1, network.LinkConfig{})
	layer := NewLayer("x", k, NewUnreliableDatagram(n))
	if err := layer.AddEntity("a", &echoEntity{peer: "b"}); err != nil {
		t.Fatal(err)
	}
	b := NewServiceBinding(layer)
	sap := core.SAP{Role: "user", ID: "1"}
	if err := b.Bind(sap, "ghost"); !errors.Is(err, ErrUnknownEntity) {
		t.Fatalf("err = %v, want ErrUnknownEntity", err)
	}
	if err := b.Submit(sap, "ping", nil); !errors.Is(err, ErrNotBound) {
		t.Fatalf("err = %v, want ErrNotBound", err)
	}
	if err := b.Bind(sap, "a"); err != nil {
		t.Fatal(err)
	}
	if err := b.Bind(sap, "a"); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
	// Attach at unbound SAP is a silent no-op.
	b.Attach(core.SAP{Role: "user", ID: "ghost"}, func(string, []byte) {})
	// Entity error surfaces through Submit.
	if err := b.Submit(sap, "warp", nil); err == nil {
		t.Fatal("entity error not propagated")
	}
}

// Property: reliable datagram delivers every payload exactly once, in
// order, for any loss rate < 1 and any seed.
func TestPropertyReliableDelivery(t *testing.T) {
	prop := func(seed int64, lossTenths uint8, count uint8) bool {
		loss := float64(lossTenths%8) / 10 // 0.0 .. 0.7
		n := int(count%40) + 1
		k := sim.NewKernel(sim.WithSeed(seed))
		net := network.New(k, network.WithDefaultLink(network.LinkConfig{
			Latency:  time.Millisecond,
			LossRate: loss,
		}))
		r := NewReliableDatagram(k, NewUnreliableDatagram(net), ReliableDatagramConfig{})
		var got []byte
		if err := r.Attach("b", func(_ Addr, pdu []byte) { got = append(got, pdu[0]) }); err != nil {
			return false
		}
		if err := r.Attach("a", func(Addr, []byte) {}); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if err := r.Send("a", "b", []byte{byte(i)}); err != nil {
				return false
			}
		}
		if _, err := k.Run(); err != nil {
			return false
		}
		if len(got) != n {
			return false
		}
		for i := range got {
			if got[i] != byte(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReliableDatagramThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		net := network.New(k, network.WithDefaultLink(network.LinkConfig{Latency: time.Millisecond}))
		r := NewReliableDatagram(k, NewUnreliableDatagram(net), ReliableDatagramConfig{})
		delivered := 0
		if err := r.Attach("b", func(Addr, []byte) { delivered++ }); err != nil {
			b.Fatal(err)
		}
		if err := r.Attach("a", func(Addr, []byte) {}); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 100; j++ {
			if err := r.Send("a", "b", []byte("payload")); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := k.Run(); err != nil {
			b.Fatal(err)
		}
		if delivered != 100 {
			b.Fatalf("delivered %d", delivered)
		}
	}
}
