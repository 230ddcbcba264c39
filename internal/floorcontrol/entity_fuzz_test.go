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
// still complete. Run bounded in CI (see .github/workflows/ci.yml, fuzz
// job) and by `make fuzz`.
func FuzzEntityReceive(f *testing.F) {
	ctrl := codec.Record{"subid": "s1", ParamResource: "r0"}
	for _, data := range [][]byte{
		legacyPDU(f, "request", ctrl),
		legacyPDU(f, "free", ctrl),
		legacyPDU(f, "granted", codec.Record{ParamResource: "r0"}),
		legacyPDU(f, "is_available_req", ctrl),
		legacyPDU(f, "is_available_resp", codec.Record{ParamResource: "r0", "available": true}),
		legacyPDU(f, "pass", codec.Record{"available": codec.StringList([]string{"r0"})}),
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
	for _, a := range addrs {
		if err := net.Send(fuzzSrc, a, data); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := kernel.RunUntil(kernel.Now() + 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

// floorAfterGarbage builds sol over an UnreliableDatagram, injects data
// into every entity, then requires s1's request for res to be granted.
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
	provider.Attach(sap, func(prim string, params codec.Record) {
		if prim == chat.PrimDeliver && params[chat.ParamMsgID] == msgID {
			delivered = true
		}
	})
	if err := provider.Submit(sap, chat.PrimSay, codec.Record{chat.ParamMsgID: msgID, chat.ParamText: "hi"}); err != nil {
		t.Fatal(err)
	}
	if _, err := kernel.RunUntil(kernel.Now() + time.Second); err != nil {
		t.Fatal(err)
	}
	if !delivered {
		t.Fatalf("chat: say %q not delivered after the fuzzed PDU", msgID)
	}
}
