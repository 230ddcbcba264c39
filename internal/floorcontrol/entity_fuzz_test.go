package floorcontrol

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/chat"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// fuzzSrc is the extra network endpoint the fuzzed bytes arrive from.
const fuzzSrc network.NodeID = "fuzz"

// legacyPDU encodes one PDU through the generic codec: the seed corpus
// holds every PDU the floor-control and chat protocols exchange.
func legacyPDU(f *testing.F, name string, fields codec.Record) []byte {
	f.Helper()
	data, err := codec.AppendMessage(nil, codec.NewMessage(name, fields))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// freshName returns a name that does not occur in data, so no PDU the
// fuzzer forges can name it: the follow-up exchange runs on a resource
// (or message id) the fuzzed input cannot have touched.
func freshName(data []byte) string {
	name := "fresh"
	for i := 0; bytes.Contains(data, []byte(name)); i++ {
		name = fmt.Sprintf("fresh%d", i)
	}
	return name
}

// FuzzEntityReceive feeds arbitrary bytes, as a datagram from an extra
// endpoint, to every entity of each protocol solution (Figure 6) and of
// the chat sequencer protocol, through the real Layer receive path over
// an UnreliableDatagram. No entity may panic, and afterwards a
// well-formed request→granted exchange (say→deliver for chat) must
// still complete, and both subscribers contending for r0, a resource
// the fuzzed bytes may name (a forged pass token carries it), must
// violate no constraint. Run bounded in CI (see .github/workflows/ci.yml, fuzz
// job) and by `make fuzz`.
func FuzzEntityReceive(f *testing.F) {
	ctrl := codec.Record{"subid": "s1", ParamResource: "r0"}
	for _, data := range [][]byte{
		legacyPDU(f, "request", ctrl),
		legacyPDU(f, "free", ctrl),
		legacyPDU(f, "granted", codec.Record{ParamResource: "r0"}),
		legacyPDU(f, "is_available_req", ctrl),
		legacyPDU(f, "is_available_resp", codec.Record{ParamResource: "r0", "available": true}),
		legacyPDU(f, "pass", codec.Record{"available": codec.List{"r0"}}),
		legacyPDU(f, "pass", codec.Record{"available": codec.List{"r0", "r0"}}),
		legacyPDU(f, "pass", codec.Record{"available": "r0"}),
		legacyPDU(f, "submit", codec.Record{chat.ParamMsgID: "m1", chat.ParamText: "hi"}),
		legacyPDU(f, "ordered", codec.Record{chat.ParamMsgID: "m1", chat.ParamSpeaker: "s1", chat.ParamText: "hi"}),
	} {
		f.Add(data)
		f.Add(data[:len(data)/2]) // truncated
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		pdu := append([]byte(nil), data...)
		fresh := freshName(data)
		for _, sol := range []Solution{&ProtoCallback{}, &ProtoPolling{}, &ProtoToken{}} {
			floorAfterGarbage(t, sol, pdu, fresh)
		}
		chatAfterGarbage(t, pdu, fresh)
		if !bytes.Equal(pdu, data) {
			t.Fatal("the receive path modified the PDU bytes")
		}
	})
}

// fuzzNet is a lossless network with the extra fuzz endpoint
// registered, over which the layer under test runs.
func fuzzNet(t *testing.T) (*sim.Kernel, *network.Network) {
	t.Helper()
	kernel := sim.NewKernel(sim.WithSeed(1))
	net := network.New(kernel, network.WithDefaultLink(network.LinkConfig{Latency: time.Millisecond}))
	if _, err := net.Register(fuzzSrc, func(network.Slot, []byte) {}); err != nil {
		t.Fatal(err)
	}
	return kernel, net
}

// inject sends data from the fuzz endpoint to every address and lets
// the layer process it.
func inject(t *testing.T, kernel *sim.Kernel, net *network.Network, data []byte, addrs []protocol.Addr) {
	t.Helper()
	src, _ := net.SlotOf(fuzzSrc)
	for _, a := range addrs {
		dst, ok := net.SlotOf(a)
		if !ok {
			t.Fatalf("fuzz target %q is not registered", a)
		}
		if err := net.SendSlot(src, dst, data); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := kernel.RunUntil(kernel.Now() + 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

// floorAfterGarbage builds sol over an UnreliableDatagram, injects data
// into every entity, then requires s1's request for res to be granted;
// s1 and s2 then request r0 at once, and no constraint may be violated.
func floorAfterGarbage(t *testing.T, sol Solution, data []byte, res string) {
	kernel, net := fuzzNet(t)
	observer, err := core.NewObserver(Spec(), kernel)
	if err != nil {
		t.Fatal(err)
	}
	subs := []string{"s1", "s2"}
	env := &Env{
		Time: kernel, Net: net, Observer: observer,
		Subscribers: subs, Resources: []string{"r0", res},
		PollInterval: 5 * time.Millisecond, TokenHopDelay: 2 * time.Millisecond,
		Lower: protocol.NewUnreliableDatagram(net),
	}
	parts, err := sol.Build(env)
	if err != nil {
		t.Fatal(err)
	}
	addrs := []protocol.Addr{"s1", "s2"}
	if sol.Style() != StyleToken {
		addrs = append(addrs, ctrlNode)
	}
	inject(t, kernel, net, data, addrs)

	granted := false
	parts["s1"].Acquire(res, func() { granted = true })
	if _, err := kernel.RunUntil(kernel.Now() + time.Second); err != nil {
		t.Fatal(err)
	}
	if !granted {
		t.Fatalf("%s: request for %q not granted after the fuzzed PDU", sol.Name(), res)
	}
	parts["s1"].Release(res)
	// The fuzzed bytes may name r0, so its grants are not required, only
	// safe: a forged token or grant must not hand it to both.
	parts["s1"].Acquire("r0", func() {})
	parts["s2"].Acquire("r0", func() {})
	if _, err := kernel.RunUntil(kernel.Now() + time.Second); err != nil {
		t.Fatal(err)
	}
	if v := observer.Violations(); len(v) > 0 {
		t.Fatalf("%s: the fuzzed PDU broke the service: %v", sol.Name(), v[0])
	}
}

// TestProtoTokenDropsForgedPass: a pass PDU from outside the ring is not
// a second token. One pass {available: [r0]} injected at s2 of a
// two-subscriber ring, then both subscribers acquiring r0, violates no
// constraint and the ring's own token still serves both.
func TestProtoTokenDropsForgedPass(t *testing.T) {
	kernel, net := fuzzNet(t)
	observer, err := core.NewObserver(Spec(), kernel)
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{
		Time: kernel, Net: net, Observer: observer,
		Subscribers: []string{"s1", "s2"}, Resources: []string{"r0"},
		TokenHopDelay: 2 * time.Millisecond,
		Lower:         protocol.NewUnreliableDatagram(net),
	}
	parts, err := (&ProtoToken{}).Build(env)
	if err != nil {
		t.Fatal(err)
	}
	forged, err := codec.AppendMessage(nil, codec.NewMessage("pass", codec.Record{"available": codec.List{"r0"}}))
	if err != nil {
		t.Fatal(err)
	}
	inject(t, kernel, net, forged, []protocol.Addr{"s2"})
	granted := 0
	for _, sub := range []string{"s1", "s2"} {
		part := parts[sub]
		part.Acquire("r0", func() {
			granted++
			kernel.ScheduleFunc(5*time.Millisecond, func() { part.Release("r0") })
		})
	}
	if _, err := kernel.RunUntil(kernel.Now() + time.Second); err != nil {
		t.Fatal(err)
	}
	if v := observer.Violations(); len(v) > 0 {
		t.Fatalf("a forged pass broke the ring: %v", v[0])
	}
	if granted != 2 {
		t.Fatalf("%d of 2 requests for r0 granted", granted)
	}
}

// chatAfterGarbage builds the chat sequencer protocol over an
// UnreliableDatagram, injects data into the sequencer and every
// participant, then requires an utterance with message id msgID to be
// delivered back to its speaker.
func chatAfterGarbage(t *testing.T, data []byte, msgID string) {
	kernel, net := fuzzNet(t)
	provider, _, err := chat.BuildProtocol(kernel, protocol.NewUnreliableDatagram(net), []string{"p1", "p2"})
	if err != nil {
		t.Fatal(err)
	}
	inject(t, kernel, net, data, []protocol.Addr{chat.SequencerAddr, "p1", "p2"})

	sap := chat.ParticipantSAP("p1")
	delivered := false
	msgIDRec := codec.CompileRecord(chat.ParamMsgID)
	provider.Attach(sap, func(prim string, params []byte) {
		var sl codec.Slots
		_ = msgIDRec.ParseRecord(params, &sl) //nolint:errcheck // a malformed record has no msgid
		if id, _ := sl.StrAt(0); prim == chat.PrimDeliver && string(id) == msgID {
			delivered = true
		}
	})
	say, err := codec.Append(nil, codec.Record{chat.ParamMsgID: msgID, chat.ParamText: "hi"})
	if err != nil {
		t.Fatal(err)
	}
	if err := provider.Submit(sap, chat.PrimSay, say); err != nil {
		t.Fatal(err)
	}
	if _, err := kernel.RunUntil(kernel.Now() + time.Second); err != nil {
		t.Fatal(err)
	}
	if !delivered {
		t.Fatalf("chat: say %q not delivered after the fuzzed PDU", msgID)
	}
}
