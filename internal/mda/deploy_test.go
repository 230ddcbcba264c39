package mda

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// echoLogic replies "pong" to every "ping" message, echoing the payload.
type echoLogic struct {
	ctx *LogicContext
}

var _ Component = (*echoLogic)(nil)

func (e *echoLogic) Start(ctx *LogicContext) error { e.ctx = ctx; return nil }

func (e *echoLogic) FromUser(primitive string, _ []byte) error {
	return fmt.Errorf("echo logic has no SAP (got %q)", primitive)
}

// appendRecord appends an encoded params record: the echo messages
// carry the primitive's params as they are.
func appendRecord(buf, rec []byte) ([]byte, error) { return append(buf, rec...), nil }

// rec encodes a params record through the generic codec (nil encodes
// the empty record).
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
	msgPing = protocol.NewPDU("ping", appendRecord)
	msgPong = protocol.NewPDU("pong", appendRecord)
)

func (e *echoLogic) OnMessage(from ComponentID, msg codec.MsgView) error {
	if !msg.NameIs(msgPing.Name()) {
		return fmt.Errorf("unexpected message %q", msg.Name())
	}
	return Send(e.ctx, from, msgPong, rec(recordOf(msg)))
}

// echoAgent binds a SAP to the echo server.
type echoAgent struct {
	server ComponentID
	ctx    *LogicContext
}

var _ Component = (*echoAgent)(nil)

func (a *echoAgent) Start(ctx *LogicContext) error { a.ctx = ctx; return nil }

func (a *echoAgent) FromUser(primitive string, params []byte) error {
	if primitive != "ping" {
		return fmt.Errorf("unexpected primitive %q", primitive)
	}
	return Send(a.ctx, a.server, msgPing, params)
}

func (a *echoAgent) OnMessage(_ ComponentID, msg codec.MsgView) error {
	if !msg.NameIs(msgPong.Name()) {
		return fmt.Errorf("unexpected message %q", msg.Name())
	}
	a.ctx.DeliverToUser("pong", rec(recordOf(msg)))
	return nil
}

func deployEcho(t *testing.T, platformName string) (*sim.Kernel, *Deployment) {
	t.Helper()
	kernel := sim.NewKernel(sim.WithSeed(3))
	net := network.New(kernel, network.WithDefaultLink(network.LinkConfig{Latency: time.Millisecond}))
	transport := protocol.NewReliableDatagram(kernel, protocol.NewUnreliableDatagram(net), protocol.ReliableDatagramConfig{})
	target, ok := ConcretePlatformByName(platformName)
	if !ok {
		t.Fatalf("platform %q unknown", platformName)
	}
	sap := core.SAP{Role: "user", ID: "u1"}
	dep, err := Deploy(kernel, transport, testPIM(t), target, Plan{SAPs: []core.SAP{sap}})
	if err != nil {
		t.Fatalf("Deploy on %s: %v", platformName, err)
	}
	return kernel, dep
}

func TestDeployEchoOnAllPlatforms(t *testing.T) {
	wantMessaging := map[string]string{
		"rpc-corba-like": "native-oneway",
		"rpc-rmi-like":   "async-over-sync",
		"msg-jms-like":   "native-oneway",
		"queue-mq-like":  "async-over-queue",
	}
	for _, p := range ConcretePlatforms() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			kernel, dep := deployEcho(t, p.Name)
			if dep.MessagingName() != wantMessaging[p.Name] {
				t.Fatalf("messaging = %q, want %q", dep.MessagingName(), wantMessaging[p.Name])
			}
			sap := core.SAP{Role: "user", ID: "u1"}
			var got []codec.Record
			dep.Attach(sap, func(prim string, params []byte) {
				if prim == "pong" {
					got = append(got, fieldsOf(params))
				}
			})
			if err := dep.Submit(sap, "ping", rec(codec.Record{"n": int64(7)})); err != nil {
				t.Fatal(err)
			}
			if _, err := kernel.Run(); err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || got[0]["n"] != int64(7) {
				t.Fatalf("pongs = %v", got)
			}
			if dep.Platform().Stats().WireMessages == 0 {
				t.Fatal("no wire traffic")
			}
		})
	}
}

func TestAdapterWireCostVisible(t *testing.T) {
	// The recursion's cost claim: one logical round trip costs 2 wire
	// messages on oneway platforms, 4 with async-over-sync (reply per
	// invocation), 4 with async-over-queue (broker hop per message).
	cost := map[string]uint64{}
	for _, name := range []string{"rpc-corba-like", "rpc-rmi-like", "queue-mq-like"} {
		kernel, dep := deployEcho(t, name)
		sap := core.SAP{Role: "user", ID: "u1"}
		dep.Attach(sap, func(string, []byte) {})
		if err := dep.Submit(sap, "ping", rec(nil)); err != nil {
			t.Fatal(err)
		}
		if _, err := kernel.Run(); err != nil {
			t.Fatal(err)
		}
		cost[name] = dep.Platform().Stats().WireMessages
	}
	if cost["rpc-corba-like"] != 2 {
		t.Fatalf("oneway round trip = %d wire messages, want 2", cost["rpc-corba-like"])
	}
	if cost["rpc-rmi-like"] != 4 {
		t.Fatalf("async-over-sync round trip = %d wire messages, want 4", cost["rpc-rmi-like"])
	}
	if cost["queue-mq-like"] != 4 {
		t.Fatalf("async-over-queue round trip = %d wire messages, want 4", cost["queue-mq-like"])
	}
}

func TestDeployValidation(t *testing.T) {
	kernel := sim.NewKernel()
	net := network.New(kernel)
	transport := protocol.NewUnreliableDatagram(net)
	corba, _ := ConcretePlatformByName("rpc-corba-like")

	if _, err := Deploy(nil, transport, testPIM(t), corba, Plan{}); err == nil {
		t.Fatal("nil kernel accepted")
	}
	if _, err := Deploy(kernel, nil, testPIM(t), corba, Plan{}); err == nil {
		t.Fatal("nil transport accepted")
	}

	badPIM := testPIM(t)
	badPIM.Build = func(Plan) (*Logic, error) { return &Logic{}, nil }
	if _, err := Deploy(kernel, transport, badPIM, corba, Plan{}); err == nil {
		t.Fatal("empty logic accepted")
	}

	noPlacement := testPIM(t)
	noPlacement.Build = func(Plan) (*Logic, error) {
		return &Logic{Components: map[ComponentID]Component{"x": &echoLogic{}}}, nil
	}
	if _, err := Deploy(kernel, transport, noPlacement, corba, Plan{}); err == nil {
		t.Fatal("unplaced component accepted")
	}

	badBinding := testPIM(t)
	badBinding.Build = func(Plan) (*Logic, error) {
		return &Logic{
			Components: map[ComponentID]Component{"x": &echoLogic{}},
			Placement:  map[ComponentID]middlewareAddr{"x": "n"},
			SAPBinding: map[core.SAP]ComponentID{{Role: "u", ID: "1"}: "ghost"},
		}, nil
	}
	if _, err := Deploy(kernel, transport, badBinding, corba, Plan{}); err == nil {
		t.Fatal("binding to unknown component accepted")
	}

	sap := core.SAP{Role: "user", ID: "u1"}
	buildErr := testPIM(t)
	buildErr.Build = func(Plan) (*Logic, error) { return nil, errors.New("boom") }
	if _, err := Deploy(kernel, transport, buildErr, corba, Plan{SAPs: []core.SAP{sap}}); err == nil {
		t.Fatal("builder error swallowed")
	}

	unboundSAP := testPIM(t)
	orig := unboundSAP.Build
	unboundSAP.Build = func(p Plan) (*Logic, error) {
		logic, err := orig(Plan{}) // ignore the plan's SAPs
		return logic, err
	}
	if _, err := Deploy(kernel, transport, unboundSAP, corba, Plan{SAPs: []core.SAP{sap}}); err == nil {
		t.Fatal("plan SAP left unbound accepted")
	}
}

// middlewareAddr mirrors middleware.Addr for the test above without an
// extra import alias.
type middlewareAddr = protocol.Addr

func TestSubmitUnboundSAP(t *testing.T) {
	_, dep := deployEcho(t, "rpc-corba-like")
	err := dep.Submit(core.SAP{Role: "user", ID: "ghost"}, "ping", rec(nil))
	if err == nil {
		t.Fatal("submit at unbound SAP accepted")
	}
}

func TestRealizationAccessors(t *testing.T) {
	_, dep := deployEcho(t, "queue-mq-like")
	r := dep.Realization()
	if r.Direct || len(r.Adapters) != 1 {
		t.Fatalf("realization = %+v", r)
	}
	if r.Concrete.Name != "queue-mq-like" {
		t.Fatalf("concrete = %q", r.Concrete.Name)
	}
}

// legacyEnvelope is the generic record form of the deliver envelope
// (nil payloads as empty records) that the typed encoder is pinned to.
func legacyEnvelope(from ComponentID, name string, fields codec.Record) codec.Record {
	if fields == nil {
		fields = codec.Record{}
	}
	return codec.Record{"from": string(from), "name": name, "fields": fields}
}

// TestEnvelopeWireParity pins the typed deliver-envelope encoder to the
// generic codec's bytes of the legacy envelope record (nil payloads as
// empty records), and the view decoder to its inverse.
func TestEnvelopeWireParity(t *testing.T) {
	for _, tc := range []struct {
		from   ComponentID
		name   string
		fields codec.Record
	}{
		{"a", "ping", codec.Record{"n": int64(3), "tags": codec.List{"x"}}},
		{"b", "empty", nil},
	} {
		fields := rec(tc.fields)
		fast, err := encEnvelope(nil, wireEnvelope{From: tc.from, Name: tc.name, Fields: fields})
		if err != nil {
			t.Fatal(err)
		}
		want, err := codec.Append(nil, legacyEnvelope(tc.from, tc.name, tc.fields))
		if err != nil {
			t.Fatal(err)
		}
		if string(fast) != string(want) {
			t.Fatalf("%s: typed encoder % x, generic codec % x", tc.name, fast, want)
		}
		view, err := codec.ParseRecord(fast)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decEnvelope(view)
		if err != nil {
			t.Fatal(err)
		}
		msg, err := codec.ParseMessage(got.msg)
		if err != nil {
			t.Fatal(err)
		}
		gotFields := recordOf(msg)
		wantFields := legacyEnvelope(tc.from, tc.name, tc.fields)["fields"].(codec.Record)
		if got.from != tc.from || !msg.NameIs(tc.name) || !bytes.Equal(rec(gotFields), rec(wantFields)) {
			t.Fatalf("%s: round trip from %q, %q%v", tc.name, got.from, msg.Name(), gotFields)
		}
	}
}

// sendRecorder is a transport that keeps a copy of every message sent
// through it.
type sendRecorder struct {
	protocol.LowerService
	sent [][]byte
}

func (r *sendRecorder) SendIndexed(from, to int32, data []byte) error {
	r.sent = append(r.sent, append([]byte(nil), data...))
	return r.LowerService.SendIndexed(from, to, data)
}

// TestQueueEnvelopeWireParity pins the async-over-queue adapter's wire
// bytes: each mw.enqueue carries the deliver envelope as its field
// record, byte-identical to the legacy mda.msg queue message — the
// generic codec's encoding of {from, name, fields} — with and without a
// payload.
func TestQueueEnvelopeWireParity(t *testing.T) {
	for _, params := range []codec.Record{{"n": int64(7), "tags": codec.List{"x"}}, nil} {
		kernel := sim.NewKernel(sim.WithSeed(3))
		net := network.New(kernel, network.WithDefaultLink(network.LinkConfig{Latency: time.Millisecond}))
		recorder := &sendRecorder{LowerService: protocol.NewUnreliableDatagram(net)}
		mq, _ := ConcretePlatformByName("queue-mq-like")
		sap := core.SAP{Role: "user", ID: "u1"}
		dep, err := Deploy(kernel, recorder, testPIM(t), mq, Plan{SAPs: []core.SAP{sap}})
		if err != nil {
			t.Fatal(err)
		}
		if err := dep.Submit(sap, "ping", rec(params)); err != nil {
			t.Fatal(err)
		}
		if _, err := kernel.Run(); err != nil {
			t.Fatal(err)
		}
		// The ping travels agent → echo server, the pong back.
		want := map[string]bool{}
		for _, hop := range []struct {
			from, to ComponentID
			name     string
		}{{"agent:u1", "echo", "ping"}, {"echo", "agent:u1", "pong"}} {
			legacy := legacyEnvelope(hop.from, hop.name, params)
			wire, err := codec.AppendMessage(nil, codec.NewMessage("mw.enqueue", codec.Record{
				"fields": legacy, "name": "mda.msg", "queue": queueName(hop.to),
			}))
			if err != nil {
				t.Fatal(err)
			}
			want[string(wire)] = true
		}
		enqueues := 0
		for _, data := range recorder.sent {
			v, err := codec.ParseMessage(data)
			if err != nil || !v.NameIs("mw.enqueue") {
				continue
			}
			enqueues++
			if !want[string(data)] {
				t.Fatalf("params %v: mw.enqueue % x matches no legacy encoding", params, data)
			}
			delete(want, string(data))
		}
		if enqueues != 2 || len(want) != 0 {
			t.Fatalf("params %v: %d enqueues, %d legacy encodings unmatched", params, enqueues, len(want))
		}
	}
}
