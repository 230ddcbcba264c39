// End-to-end tests of the committed generated package: the spec literal
// matches the committed .svc source, a typed RPC round-trips through a
// simulated platform, and the schema wire path is byte-identical to the
// generic record codec.
package floorcontrol_test

import (
	"bytes"
	"testing"
	"time"

	"repro/examples/gen/floorcontrol"
	"repro/examples/specs"
	"repro/internal/codec"
	"repro/internal/middleware"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/sdl"
	"repro/internal/sim"
	"repro/internal/svc"
)

// stack builds kernel + platform on a lossless 1ms network.
func stack(t testing.TB, profile middleware.Profile) (*sim.Kernel, *middleware.Platform) {
	t.Helper()
	k := sim.NewKernel(sim.WithSeed(5))
	net := network.New(k, network.WithDefaultLink(network.LinkConfig{Latency: time.Millisecond}))
	transport := protocol.NewReliableDatagram(k, protocol.NewUnreliableDatagram(net), protocol.ReliableDatagramConfig{})
	return k, middleware.New(k, transport, profile, "mw-broker")
}

// TestSpecMatchesCommittedSource pins that the generated spec literal
// and the committed .svc source compile to the same service document:
// the two commitments cannot drift apart silently.
func TestSpecMatchesCommittedSource(t *testing.T) {
	spec := floorcontrol.Spec()
	if err := spec.Validate(); err != nil {
		t.Fatalf("generated spec invalid: %v", err)
	}
	_, parsed, err := sdl.Parse(specs.FloorControl)
	if err != nil {
		t.Fatalf("parse committed source: %v", err)
	}
	if got, want := spec.Document(), parsed.Document(); got != want {
		t.Fatalf("generated spec diverges from committed source\ngenerated:\n%s\nsource:\n%s", got, want)
	}
}

// provider grants every request by oneway-delivering granted to the
// consumer object, and records what it saw.
type provider struct {
	granted  *svc.Sink[floorcontrol.GrantedParams]
	requests []string
	frees    []string
	sendErr  error
}

func (p *provider) Request(req floorcontrol.RequestParams, respond func(floorcontrol.Ack, error)) {
	p.requests = append(p.requests, req.Resid)
	respond(floorcontrol.Ack{}, nil)
	if err := p.granted.Send("node-p", floorcontrol.GrantedParams{Resid: req.Resid}); err != nil {
		p.sendErr = err
	}
}

func (p *provider) Free(req floorcontrol.FreeParams, respond func(floorcontrol.Ack, error)) {
	p.frees = append(p.frees, req.Resid)
	respond(floorcontrol.Ack{}, nil)
}

type consumer struct{ granted []string }

func (c *consumer) Granted(g floorcontrol.GrantedParams, respond func(floorcontrol.Ack, error)) {
	c.granted = append(c.granted, g.Resid)
	respond(floorcontrol.Ack{}, nil)
}

// TestTypedRoundTrip drives one full request → granted → free cycle
// through the generated ports over a simulated RPC+oneway platform.
func TestTypedRoundTrip(t *testing.T) {
	k, plat := stack(t, middleware.ProfileCORBALike)
	b, err := floorcontrol.Bind(plat, middleware.PatternRPC, middleware.PatternOneway)
	if err != nil {
		t.Fatal(err)
	}
	cons := &consumer{}
	if _, err := floorcontrol.ExportConsumer(b, "user-1", "node-c", cons); err != nil {
		t.Fatal(err)
	}
	sink, err := floorcontrol.NewGrantedSink(b, "user-1")
	if err != nil {
		t.Fatal(err)
	}
	prov := &provider{granted: sink}
	if _, err := floorcontrol.ExportProvider(b, "floor", "node-p", prov); err != nil {
		t.Fatal(err)
	}
	reqPort, err := floorcontrol.NewRequestPort(b, "floor")
	if err != nil {
		t.Fatal(err)
	}
	freePort, err := floorcontrol.NewFreePort(b, "floor")
	if err != nil {
		t.Fatal(err)
	}

	acks := 0
	var callErr error
	record := func(_ floorcontrol.Ack, err error) {
		acks++
		if err != nil {
			callErr = err
		}
	}
	if err := reqPort.Call("node-c", floorcontrol.RequestParams{Resid: "cam-1"}, record); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := freePort.Call("node-c", floorcontrol.FreeParams{Resid: "cam-1"}, record); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}

	if callErr != nil {
		t.Fatalf("call error: %v", callErr)
	}
	if prov.sendErr != nil {
		t.Fatalf("granted send error: %v", prov.sendErr)
	}
	if acks != 2 {
		t.Fatalf("got %d acks, want 2", acks)
	}
	if len(prov.requests) != 1 || prov.requests[0] != "cam-1" {
		t.Fatalf("provider saw requests %v, want [cam-1]", prov.requests)
	}
	if len(cons.granted) != 1 || cons.granted[0] != "cam-1" {
		t.Fatalf("consumer saw grants %v, want [cam-1]", cons.granted)
	}
	if len(prov.frees) != 1 || prov.frees[0] != "cam-1" {
		t.Fatalf("provider saw frees %v, want [cam-1]", prov.frees)
	}
}

// TestTopicRoundTrip drives granted events through the generated topic
// sink and zero-copy source over a pub/sub profile.
func TestTopicRoundTrip(t *testing.T) {
	k, plat := stack(t, middleware.ProfileJMSLike)
	b, err := floorcontrol.Bind(plat, middleware.PatternPubSub)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	src, err := floorcontrol.NewGrantedTopicSource(b, "grants", "sub-1",
		func(g floorcontrol.GrantedParams) { got = append(got, g.Resid) })
	if err != nil {
		t.Fatal(err)
	}
	sink, err := floorcontrol.NewGrantedTopicSink(b, "grants")
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Send("pub", floorcontrol.GrantedParams{Resid: "cam-2"}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "cam-2" {
		t.Fatalf("subscriber got %v, want [cam-2]", got)
	}
	if src.Received() != 1 || src.Dropped() != 0 {
		t.Fatalf("source counters %d/%d, want 1/0", src.Received(), src.Dropped())
	}
}

// TestWireParity pins, for every primitive, that the schema fast path
// emits exactly the bytes of the generic codec on the equivalent
// record, and that the view decoder inverts it.
func TestWireParity(t *testing.T) {
	legacy := codec.Record{"resid": "cam-1"}
	check := func(name string, fast []byte, fastErr error, decode func(codec.MsgView) (string, error)) {
		t.Helper()
		if fastErr != nil {
			t.Fatalf("%s: append: %v", name, fastErr)
		}
		want, err := codec.Append(nil, legacy)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if !bytes.Equal(fast, want) {
			t.Fatalf("%s: schema path and generic codec disagree", name)
		}
		v, err := codec.ParseRecord(fast)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		if got, err := decode(v); err != nil || got != "cam-1" {
			t.Fatalf("%s: decoded %q, %v; want cam-1", name, got, err)
		}
	}
	req := floorcontrol.RequestParams{Resid: "cam-1"}
	fast, err := floorcontrol.AppendRequestParams(nil, req)
	check("request", fast, err, func(v codec.MsgView) (string, error) {
		p, err := floorcontrol.DecodeRequestParams(v)
		return p.Resid, err
	})

	g := floorcontrol.GrantedParams{Resid: "cam-1"}
	fast, err = floorcontrol.AppendGrantedParams(nil, g)
	check("granted", fast, err, func(v codec.MsgView) (string, error) {
		p, err := floorcontrol.DecodeGrantedParams(v)
		return p.Resid, err
	})

	fr := floorcontrol.FreeParams{Resid: "cam-1"}
	fast, err = floorcontrol.AppendFreeParams(nil, fr)
	check("free", fast, err, func(v codec.MsgView) (string, error) {
		p, err := floorcontrol.DecodeFreeParams(v)
		return p.Resid, err
	})
}
