package floorcontrol

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/protocol"
)

// legacyWire encodes a record through the generic codec: the bytes the
// typed encoders must reproduce exactly.
func legacyWire(t *testing.T, r codec.Record) []byte {
	t.Helper()
	wire, err := codec.Append(nil, r)
	if err != nil {
		t.Fatalf("encode %v: %v", r, err)
	}
	return wire
}

// checkParity asserts that a typed encoder's output equals the generic
// encoding of the legacy record — a bare record when pdu is empty, else
// the message named pdu carrying it — and that the view decoder inverts
// it.
func checkParity[T any](t *testing.T, name, pdu string, v T,
	enc func([]byte, T) ([]byte, error), dec func(codec.MsgView) (T, error), legacy codec.Record) {
	t.Helper()
	fast, err := enc(nil, v)
	if err != nil {
		t.Fatalf("%s: encode: %v", name, err)
	}
	want := legacyWire(t, legacy)
	parse := codec.ParseRecord
	if pdu != "" {
		if want, err = codec.AppendMessage(nil, codec.NewMessage(pdu, legacy)); err != nil {
			t.Fatalf("%s: legacy encode: %v", name, err)
		}
		parse = codec.ParseMessage
	}
	if !bytes.Equal(fast, want) {
		t.Fatalf("%s: typed encoder % x, generic codec % x", name, fast, want)
	}
	view, err := parse(fast)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	if !view.NameIs(pdu) {
		t.Fatalf("%s: parsed name %q, want %q", name, view.Name(), pdu)
	}
	got, err := dec(view)
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("%s: round trip %+v, want %+v", name, got, v)
	}
}

// TestRPCArgsWireParity pins every floor-control RPC record encoder,
// protocol PDU and PIM directed message to the generic codec's bytes —
// optional fields omitted when zero — so the typed path keeps the wire
// (and the golden band hashes) unchanged.
func TestRPCArgsWireParity(t *testing.T) {
	// The decoders resolve names through a run's tables: s1 and r0 come
	// back with their indices.
	d := newDeployment([]string{"s1"}, []string{"r0", "r1"})
	decCtrlArgs, decGrantArgs, decAvailReply := d.decCtrlArgs, d.decGrantArgs, d.decAvailReply
	for _, seq := range []uint64{0, 7} {
		legacy := codec.Record{"subid": "s1", ParamResource: "r0"}
		if seq != 0 {
			legacy["seq"] = int64(seq)
		}
		checkParity(t, "ctrlArgs", "", ctrlArgs{Sub: "s1", Res: "r0", Seq: seq, sub: 0, res: 0}, encCtrlArgs, decCtrlArgs, legacy)

		legacy = codec.Record{ParamResource: "r0"}
		if seq != 0 {
			legacy["seq"] = int64(seq)
		}
		checkParity(t, "grantArgs", "", grantArgs{Res: "r0", Seq: seq}, encGrantArgs, decGrantArgs, legacy)
	}
	for _, gen := range []uint64{0, 3} {
		for _, avail := range [][]string{nil, {"r0", "r1"}} {
			legacy := codec.Record{"available": stringList(avail)}
			if gen != 0 {
				legacy["gen"] = int64(gen)
			}
			checkParity(t, "tokenArgs", "", tokenArgs{Available: avail, Gen: gen}, encTokenArgs, decTokenArgs, legacy)
		}
	}
	for _, avail := range []bool{true, false} {
		checkParity(t, "availReply", "", availReply{Available: avail}, encAvailReply, decAvailReply,
			codec.Record{"available": avail})
	}

	// The protocol PDUs (Figure 6), under their legacy names, and the
	// PIM's directed messages, whose name travels in the envelope.
	ctrl := codec.Record{"subid": "s1", ParamResource: "r0"}
	for name, p := range map[string]protocol.PDU[ctrlArgs]{"request": pduRequest, "free": pduFree, "is_available_req": pduAvailReq} {
		checkParity(t, name, name, ctrlArgs{Sub: "s1", Res: "r0", sub: 0, res: 0}, p.Append, decCtrlArgs, ctrl)
	}
	res := codec.Record{ParamResource: "r0"}
	checkParity(t, "granted", "granted", grantArgs{Res: "r0"}, pduGranted.Append, decGrantArgs, res)
	for name, m := range map[string]protocol.PDU[grantArgs]{"request": msgRequest, "free": msgFree, "granted": pduGranted} {
		if m.Name() != name {
			t.Fatalf("PIM message %q named %q", name, m.Name())
		}
		checkParity(t, "pim "+name, "", grantArgs{Res: "r0"}, m.AppendRecord, decGrantArgs, res)
	}
	for _, avail := range []bool{true, false} {
		checkParity(t, "is_available_resp", "is_available_resp", availReply{Res: "r0", Available: avail},
			pduAvailResp.Append, decAvailReply, codec.Record{ParamResource: "r0", "available": avail})
	}
	for _, avail := range [][]string{nil, {"r0", "r1"}} {
		checkParity(t, "pass", "pass", tokenArgs{Available: avail}, pduPass.Append, decTokenArgs,
			codec.Record{"available": stringList(avail)})
	}
	if got, err := encAck(nil, ack{}); err != nil || !bytes.Equal(got, legacyWire(t, codec.Record{})) {
		t.Fatalf("ack: % x, %v; want the empty record", got, err)
	}
}

// TestTokenDecodeRejectsMalformed pins that a pass whose availability
// list is missing or holds a non-string is refused, as the record
// decoder refused it.
func TestTokenDecodeRejectsMalformed(t *testing.T) {
	for _, r := range []codec.Record{
		{},
		{"available": "r0"},
		{"available": codec.List{"r0", int64(1)}},
	} {
		view, err := codec.ParseRecord(legacyWire(t, r))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decTokenArgs(view); err == nil {
			t.Fatalf("token %v accepted", r)
		}
	}
}

// envCapture wraps a solution to capture the Env it is built into.
type envCapture struct {
	Solution
	env *Env
}

func (c *envCapture) Build(env *Env) (map[string]AppPart, error) {
	c.env = env
	return c.Solution.Build(env)
}

// TestObservationParamsReadOnly runs every middleware solution under
// loss (retries included) with a trace. Each Env encodes the params of
// every event it observes into one reused scratch buffer, so every
// recorded event must hold its own copy: after the run, each still names
// a resource of the run, and none aliases the Env's buffer.
func TestObservationParamsReadOnly(t *testing.T) {
	for _, name := range []string{"mw-callback", "mw-polling", "mw-token"} {
		t.Run(name, func(t *testing.T) {
			sol, ok := SolutionByName(name)
			if !ok {
				t.Fatalf("unknown solution %q", name)
			}
			c := &envCapture{Solution: sol}
			var tr core.Trace
			_, err := RunWorkloadWith(c, Config{Solution: name, Subscribers: 4, Resources: 3, Cycles: 3, Seed: 11, LossRate: 0.1, Trace: &tr})
			if err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for _, e := range tr {
				if len(e.Params) > 0 && &e.Params[0] == &c.env.obsBuf[0] {
					t.Fatalf("traced %s shares the Env's params buffer", e.Label())
				}
				var sl codec.Slots
				if err := sapParams.ParseRecord(e.Params, &sl); err != nil {
					t.Fatalf("traced %s: %v", e.Label(), err)
				}
				r, _ := sl.StrAt(slotResid)
				seen[string(r)] = true
			}
			if len(seen) != 3 || !seen["r1"] || !seen["r2"] || !seen["r3"] {
				t.Fatalf("trace names resources %v, want r1, r2 and r3", seen)
			}
		})
	}
}

// stringList boxes a string slice the way a record carries a list.
func stringList(items []string) codec.List {
	out := make(codec.List, len(items))
	for i, s := range items {
		out[i] = s
	}
	return out
}
