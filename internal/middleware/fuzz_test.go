package middleware_test

import (
	"errors"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/middleware"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/svc"
)

// fuzzArgs is the typed request of the fuzzed export: one field of each
// decoded kind, so the view decoders see every shape of hostile input.
type fuzzArgs struct {
	Sub  string
	Seq  int64
	Tags []string
}

var recFuzzArgs = codec.CompileRecord("seq", "subid", "tags")

func encFuzzArgs(buf []byte, a fuzzArgs) ([]byte, error) {
	e := recFuzzArgs.Encoder(buf)
	e.Int("seq", a.Seq)
	e.Str("subid", a.Sub)
	e.Strings("tags", a.Tags)
	return e.Finish()
}

func decFuzzArgs(v codec.MsgView) (fuzzArgs, error) {
	sub, _ := v.Str("subid")
	seq, _ := v.Int("seq")
	tags, _ := v.Strings("tags", nil)
	return fuzzArgs{Sub: string(sub), Seq: seq, Tags: tags}, nil
}

// fuzzPlatform is a CORBA-like platform over raw datagrams hosting one
// typed export ("server" at node-s, operation "echo") with one call
// pending from node-c, so hostile bytes reach the call, oneway and
// reply paths alike.
func fuzzPlatform(t *testing.T) (*sim.Kernel, *middleware.Platform) {
	t.Helper()
	k := sim.NewKernel(sim.WithSeed(1))
	p := middleware.New(k, protocol.NewUnreliableDatagram(network.New(k)), middleware.ProfileCORBALike, "broker")
	b, err := fuzzService(t).Bind(p, middleware.PatternRPC, middleware.PatternOneway)
	if err != nil {
		t.Fatal(err)
	}
	e, err := b.NewExport("server", "node-s")
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.HandleOp(e, "echo", decFuzzArgs, encFuzzArgs,
		func(a fuzzArgs, respond func(fuzzArgs, error)) { respond(a, nil) }); err != nil {
		t.Fatal(err)
	}
	if err := e.Register(); err != nil {
		t.Fatal(err)
	}
	port, err := svc.NewPort(b, "server", "echo", encFuzzArgs, decFuzzArgs)
	if err != nil {
		t.Fatal(err)
	}
	if err := port.Call("node-c", fuzzArgs{Sub: "s1"}, nil); err != nil {
		t.Fatal(err)
	}
	return k, p
}

// fuzzService is the typed service every fuzzed platform binds.
func fuzzService(t *testing.T) *svc.Service {
	t.Helper()
	s, err := svc.New(&core.ServiceSpec{
		Name:       "fuzz",
		Primitives: []core.PrimitiveDef{{Name: "echo", Direction: core.FromUser}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fuzzQueuePlatform is an MQ-like platform with one declared queue
// ("jobs") consumed at node-w through a typed queue source, and a bare
// runtime at node-p to send from, so hostile bytes reach the broker's
// enqueue path and the consumer's decoder.
func fuzzQueuePlatform(t *testing.T) (*sim.Kernel, *middleware.Platform) {
	t.Helper()
	k := sim.NewKernel(sim.WithSeed(1))
	p := middleware.New(k, protocol.NewUnreliableDatagram(network.New(k)), middleware.ProfileMQLike, "broker")
	b, err := fuzzService(t).Bind(p, middleware.PatternQueue)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("jobs"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.NewQueueSource(b, "jobs", "node-w", decFuzzArgs, func(fuzzArgs) {}); err != nil {
		t.Fatal(err)
	}
	if err := p.AttachNode("node-p"); err != nil {
		t.Fatal(err)
	}
	return k, p
}

// fuzzTopicPlatform is a JMS-like platform with one typed subscriber of
// topic "news" at node-w, and a bare runtime at node-p to send from, so
// hostile bytes reach the broker's publish re-framing and the
// subscriber's decoder.
func fuzzTopicPlatform(t *testing.T) (*sim.Kernel, *middleware.Platform) {
	return topicPlatform(t, "broker")
}

// fuzzTreePlatform is fuzzTopicPlatform behind a two-leaf federation
// tree rooted at "root", with node-w in leaf0's row, so hostile bytes
// also reach the leaf's verbatim forward.
func fuzzTreePlatform(t *testing.T) (*sim.Kernel, *middleware.Platform) {
	return topicPlatform(t, "root", "leaf0", "leaf1")
}

// topicPlatform builds a topic platform brokered at broker through the
// given leaves. The leaves, the broker and node-p attach first, in that
// order, so node-w takes transport id len(leaves)+2 and — with two
// leaves — lands in leaf0's row (leaf = id % leaves).
func topicPlatform(t *testing.T, broker middleware.Addr, leaves ...middleware.Addr) (*sim.Kernel, *middleware.Platform) {
	t.Helper()
	k := sim.NewKernel(sim.WithSeed(1))
	p := middleware.New(k, protocol.NewUnreliableDatagram(network.New(k)), middleware.ProfileJMSLike, broker,
		middleware.WithFederation(leaves...))
	for _, node := range leaves {
		if err := p.AttachNode(node); err != nil {
			t.Fatal(err)
		}
	}
	for _, node := range []middleware.Addr{broker, "node-p"} {
		if err := p.AttachNode(node); err != nil {
			t.Fatal(err)
		}
	}
	b, err := fuzzService(t).Bind(p, middleware.PatternPubSub)
	if err != nil {
		t.Fatal(err)
	}
	dec := func(v codec.MsgView) (fuzzArgs, error) {
		fields, ok := v.View("fields")
		if !ok {
			return fuzzArgs{}, errors.New("event fields are not a record")
		}
		return decFuzzArgs(fields)
	}
	if _, err := svc.NewTopicSource(b, "news", "node-w", dec, func(fuzzArgs) {}); err != nil {
		t.Fatal(err)
	}
	return k, p
}

// wireSeed encodes one implicit-protocol message through the generic
// codec.
func wireSeed(f *testing.F, name string, fields codec.Record) []byte {
	f.Helper()
	data, err := codec.AppendMessage(nil, codec.NewMessage(name, fields))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzPlatformWire feeds arbitrary bytes to the platform's wire entry
// point on four platforms: at both ends of a pending typed call, at the
// broker and the consumer of a queue, at the broker and the subscriber
// of a topic, and at the root, a leaf and the subscriber of a topic on
// a federation tree. The receive path hands views of these untrusted
// bytes to the typed decoders, so it must never panic; a message that
// does not parse is dropped and counted in Stats.Corrupt at every entry
// point. Run bounded in CI (see .github/workflows/ci.yml, fuzz job) and
// by `make fuzz`.
func FuzzPlatformWire(f *testing.F) {
	args := codec.Record{"seq": int64(3), "subid": "s1", "tags": codec.List{"a", "b"}}
	call := wireSeed(f, "mw.call", codec.Record{"args": args, "id": uint64(1), "op": "echo", "target": "server"})
	reply := wireSeed(f, "mw.reply", codec.Record{"id": uint64(1), "result": args})
	oneway := wireSeed(f, "mw.oneway", codec.Record{"args": args, "op": "echo", "target": "server"})
	for _, seed := range [][]byte{call, reply, oneway} {
		f.Add(seed)
		f.Add(seed[:len(seed)/2]) // truncated
		flipped := append([]byte(nil), seed...)
		flipped[len(flipped)-3] ^= 0xFF // corrupt a trailing field
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add(wireSeed(f, "mw.call", codec.Record{"args": codec.List{int64(1)}, "id": uint64(2), "op": "echo", "target": "server"}))
	f.Add(wireSeed(f, "mw.call", codec.Record{"args": codec.Record{"seq": "x", "tags": int64(4)}, "id": uint64(3), "op": "echo", "target": "server"}))
	f.Add(wireSeed(f, "mw.call", codec.Record{"args": args, "id": uint64(4), "op": "warp", "target": "server"}))
	f.Add(wireSeed(f, "mw.reply", codec.Record{"id": uint64(1), "result": "not a record"}))
	f.Add(wireSeed(f, "mw.reply", codec.Record{"error": "boom", "id": uint64(1)}))
	f.Add(wireSeed(f, "mw.oneway", codec.Record{"args": args, "op": int64(7), "target": "ghost"}))
	f.Add(wireSeed(f, "mw.enqueue", codec.Record{"fields": args, "name": "job", "queue": "jobs"}))
	f.Add(wireSeed(f, "mw.enqueue", codec.Record{"fields": "not a record", "name": "job", "queue": "jobs"}))
	f.Add(wireSeed(f, "mw.deliver", codec.Record{"fields": args, "name": "job", "queue": "jobs"}))
	f.Add(wireSeed(f, "mw.deliver", codec.Record{"fields": codec.List{}, "name": "job", "queue": "jobs"}))
	f.Add(wireSeed(f, "mw.publish", codec.Record{"fields": args, "name": "flash", "topic": "news"}))
	f.Add(wireSeed(f, "mw.event", codec.Record{"fields": args, "name": "flash", "topic": "news"}))
	f.Add(wireSeed(f, "mw.event", codec.Record{"fields": int64(1), "name": "flash", "topic": "news"}))

	f.Fuzz(func(t *testing.T, data []byte) {
		_, parseErr := codec.ParseMessage(data)
		for _, fc := range []struct {
			build func(*testing.T) (*sim.Kernel, *middleware.Platform)
			hops  [][2]middleware.Addr // {src, at}
		}{
			// As a request to the server, and as a reply to the caller.
			{fuzzPlatform, [][2]middleware.Addr{{"node-c", "node-s"}, {"node-s", "node-c"}}},
			// As a put at the broker, and as a delivery to the consumer.
			{fuzzQueuePlatform, [][2]middleware.Addr{{"node-p", "broker"}, {"broker", "node-w"}}},
			// As a publish at the broker, and as an event at the subscriber.
			{fuzzTopicPlatform, [][2]middleware.Addr{{"node-p", "broker"}, {"broker", "node-w"}}},
			// As a publish at the root, as an event at a leaf, and as an
			// event at the subscriber.
			{fuzzTreePlatform, [][2]middleware.Addr{{"node-p", "root"}, {"root", "leaf0"}, {"leaf0", "node-w"}}},
		} {
			k, p := fc.build(t)
			before := p.Stats().Corrupt
			for _, hop := range fc.hops {
				p.HandleWire(hop[0], hop[1], data)
			}
			if parseErr != nil {
				if got := p.Stats().Corrupt - before; got != uint64(len(fc.hops)) {
					t.Fatalf("unparseable message counted %d times as corrupt, want %d", got, len(fc.hops))
				}
			}
			if _, err := k.Run(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
