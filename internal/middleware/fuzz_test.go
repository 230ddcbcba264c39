package middleware_test

import (
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
	s, err := svc.New(&core.ServiceSpec{
		Name:       "fuzz",
		Primitives: []core.PrimitiveDef{{Name: "echo", Direction: core.FromUser}},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Bind(p, middleware.PatternRPC, middleware.PatternOneway)
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

// wireSeed encodes one implicit-protocol message through the generic
// codec.
func wireSeed(f *testing.F, name string, fields codec.Record) []byte {
	f.Helper()
	data, err := codec.EncodeMessage(codec.NewMessage(name, fields))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzPlatformWire feeds arbitrary bytes to the platform's wire entry
// point at both ends of a pending typed call. The receive path hands
// views of these untrusted bytes to the typed decoders, so it must never
// panic; a message that does not parse is dropped and counted in
// Stats.Corrupt. Run bounded in CI (see .github/workflows/ci.yml, fuzz
// job) and by `make fuzz`.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		k, p := fuzzPlatform(t)
		before := p.Stats().Corrupt
		p.HandleWire("node-c", "node-s", data) // as a request to the server
		p.HandleWire("node-s", "node-c", data) // as a reply to the caller
		if _, err := codec.ParseMessage(data); err != nil {
			if got := p.Stats().Corrupt - before; got != 2 {
				t.Fatalf("unparseable message counted %d times as corrupt, want 2", got)
			}
		}
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
}
