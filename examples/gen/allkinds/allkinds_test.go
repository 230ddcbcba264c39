// Tests of the kitchen-sink generated package: every parameter kind
// survives the schema encoder and view decoder, decode rejects mistyped
// values, and the empty-parameter primitive round-trips over RPC.
package allkinds_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/examples/gen/allkinds"
	"repro/examples/specs"
	"repro/internal/codec"
	"repro/internal/middleware"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/sdl"
	"repro/internal/sim"
)

// TestSpecMatchesCommittedSource pins generated spec against the .svc
// source, as for floorcontrol.
func TestSpecMatchesCommittedSource(t *testing.T) {
	spec := allkinds.Spec()
	if err := spec.Validate(); err != nil {
		t.Fatalf("generated spec invalid: %v", err)
	}
	_, parsed, err := sdl.Parse(specs.AllKinds)
	if err != nil {
		t.Fatalf("parse committed source: %v", err)
	}
	if got, want := spec.Document(), parsed.Document(); got != want {
		t.Fatalf("generated spec diverges from committed source\ngenerated:\n%s\nsource:\n%s", got, want)
	}
}

// decodeWire parses an encoded parameter record and decodes it through
// the generated view decoder.
func decodeWire(t *testing.T, wire []byte) (allkinds.OpenParams, error) {
	t.Helper()
	v, err := codec.ParseRecord(wire)
	if err != nil {
		t.Fatalf("parse record: %v", err)
	}
	return allkinds.DecodeOpenParams(v)
}

// legacyWire encodes a parameter record through the generic codec.
func legacyWire(t *testing.T, r codec.Record) []byte {
	t.Helper()
	wire, err := codec.Append(nil, r)
	if err != nil {
		t.Fatalf("encode record: %v", err)
	}
	return wire
}

// TestRecordRoundTrip pins Append/Decode inverse-ness over the parameter
// record's wire form for every kind, including the string list.
func TestRecordRoundTrip(t *testing.T) {
	p := allkinds.OpenParams{
		Id:     "sess-1",
		Seq:    41,
		Urgent: true,
		Tags:   []string{"a", "b"},
	}
	wire, err := allkinds.AppendOpenParams(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeWire(t, wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip changed params: %+v != %+v", got, p)
	}
	// Absent parameters decode to zero values.
	zero, err := decodeWire(t, legacyWire(t, codec.Record{}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zero, allkinds.OpenParams{}) {
		t.Fatalf("empty record decoded to %+v", zero)
	}
	// Int accepts every signed machine type the generic codec may have
	// encoded (all share one wire form).
	widened, err := decodeWire(t, legacyWire(t, codec.Record{"seq": int32(7)}))
	if err != nil {
		t.Fatal(err)
	}
	if widened.Seq != 7 {
		t.Fatalf("int32 seq decoded to %d", widened.Seq)
	}
}

// TestDecodeErrors pins the mistyped-parameter rejections per kind.
func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		rec  codec.Record
		want string
	}{
		{"string", codec.Record{"id": 7}, "want string"},
		{"int", codec.Record{"seq": "x"}, "want int"},
		{"bool", codec.Record{"urgent": "yes"}, "want bool"},
		{"list", codec.Record{"tags": 3}, `parameter "tags"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeWire(t, legacyWire(t, tc.rec))
			if err == nil {
				t.Fatal("mistyped parameter accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// A list holding a non-string element is mistyped too.
	if _, err := decodeWire(t, legacyWire(t, codec.Record{"tags": codec.List{"a", int64(1)}})); err == nil {
		t.Fatal("list with a non-string element accepted")
	}
}

// TestWireParity pins, for every primitive, that the schema fast path
// emits exactly the bytes of the generic codec on the record the
// Message form carries (sorted-field emission and the string list
// included), and that the view decoder inverts it.
func TestWireParity(t *testing.T) {
	check := func(name string, fast []byte, fastErr error, msg codec.Message, decode func(codec.MsgView) (any, error), want any) {
		t.Helper()
		if fastErr != nil {
			t.Fatalf("%s: append: %v", name, fastErr)
		}
		if !bytes.Equal(fast, legacyWire(t, msg.Fields)) {
			t.Fatalf("%s: schema path and generic codec disagree", name)
		}
		v, err := codec.ParseRecord(fast)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		got, err := decode(v)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded %+v, want %+v", name, got, want)
		}
	}
	for _, open := range []allkinds.OpenParams{
		{Id: "s", Seq: 2, Urgent: true, Tags: []string{"x", "y"}},
		{Id: "s", Seq: -3},
	} {
		fast, err := allkinds.AppendOpenParams(nil, open)
		check("open", fast, err, allkinds.OpenMessage(open),
			func(v codec.MsgView) (any, error) { return allkinds.DecodeOpenParams(v) }, open)
	}

	opened := allkinds.OpenedParams{Id: "s", Seq: 2}
	fast, err := allkinds.AppendOpenedParams(nil, opened)
	check("opened", fast, err, allkinds.OpenedMessage(opened),
		func(v codec.MsgView) (any, error) { return allkinds.DecodeOpenedParams(v) }, opened)

	cl := allkinds.CloseParams{Id: "s"}
	fast, err = allkinds.AppendCloseParams(nil, cl)
	check("close", fast, err, allkinds.CloseMessage(cl),
		func(v codec.MsgView) (any, error) { return allkinds.DecodeCloseParams(v) }, cl)

	ping := allkinds.PingParams{}
	fast, err = allkinds.AppendPingParams(nil, ping)
	check("ping", fast, err, allkinds.PingMessage(ping),
		func(v codec.MsgView) (any, error) { return allkinds.DecodePingParams(v) }, ping)

	ack, err := allkinds.AppendAck(nil, allkinds.Ack{})
	if err != nil || !bytes.Equal(ack, legacyWire(t, codec.Record{})) {
		t.Fatalf("ack: % x, %v; want the empty record", ack, err)
	}
}

// sessions implements the Provider face with trivial recording
// handlers.
type sessions struct {
	opens  []allkinds.OpenParams
	closes []string
	pings  int
}

func (s *sessions) Open(p allkinds.OpenParams, respond func(allkinds.Ack, error)) {
	s.opens = append(s.opens, p)
	respond(allkinds.Ack{}, nil)
}

func (s *sessions) Close(p allkinds.CloseParams, respond func(allkinds.Ack, error)) {
	s.closes = append(s.closes, p.Id)
	respond(allkinds.Ack{}, nil)
}

func (s *sessions) Ping(allkinds.PingParams, func(allkinds.Ack, error)) {}

// TestProviderRoundTrip exports the Provider face and drives every
// from-user primitive — including the parameterless one — through its
// generated port.
func TestProviderRoundTrip(t *testing.T) {
	k := sim.NewKernel(sim.WithSeed(5))
	net := network.New(k, network.WithDefaultLink(network.LinkConfig{Latency: time.Millisecond}))
	transport := protocol.NewReliableDatagram(k, protocol.NewUnreliableDatagram(net), protocol.ReliableDatagramConfig{})
	plat := middleware.New(k, transport, middleware.ProfileCORBALike, "mw-broker")
	b, err := allkinds.Bind(plat, middleware.PatternRPC)
	if err != nil {
		t.Fatal(err)
	}
	prov := &sessions{}
	if _, err := allkinds.ExportProvider(b, "sessions", "node-s", prov); err != nil {
		t.Fatal(err)
	}
	openPort, err := allkinds.NewOpenPort(b, "sessions")
	if err != nil {
		t.Fatal(err)
	}
	closePort, err := allkinds.NewClosePort(b, "sessions")
	if err != nil {
		t.Fatal(err)
	}
	pingPort, err := allkinds.NewPingPort(b, "sessions")
	if err != nil {
		t.Fatal(err)
	}
	ack := func(allkinds.Ack, error) {}
	open := allkinds.OpenParams{Id: "s1", Seq: 1, Urgent: true, Tags: []string{"t"}}
	if err := openPort.Call("node-c", open, ack); err != nil {
		t.Fatal(err)
	}
	if err := closePort.Call("node-c", allkinds.CloseParams{Id: "s1"}, ack); err != nil {
		t.Fatal(err)
	}
	if err := pingPort.Call("node-c", allkinds.PingParams{}, ack); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(prov.opens) != 1 || !reflect.DeepEqual(prov.opens[0], open) {
		t.Fatalf("provider saw opens %+v", prov.opens)
	}
	if len(prov.closes) != 1 || prov.closes[0] != "s1" {
		t.Fatalf("provider saw closes %v", prov.closes)
	}
}
