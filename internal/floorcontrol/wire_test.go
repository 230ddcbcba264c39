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
	for _, seq := range []uint64{0, 7} {
		legacy := codec.Record{"subid": "s1", ParamResource: "r0"}
		if seq != 0 {
			legacy["seq"] = int64(seq)
		}
		checkParity(t, "ctrlArgs", "", ctrlArgs{Sub: "s1", Res: "r0", Seq: seq}, encCtrlArgs, decCtrlArgs, legacy)

		legacy = codec.Record{ParamResource: "r0"}
		if seq != 0 {
			legacy["seq"] = int64(seq)
		}
		checkParity(t, "grantArgs", "", grantArgs{Res: "r0", Seq: seq}, encGrantArgs, decGrantArgs, legacy)
	}
	for _, gen := range []uint64{0, 3} {
		for _, avail := range [][]string{nil, {"r0", "r1"}} {
			legacy := codec.Record{"available": codec.StringList(avail)}
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
		checkParity(t, name, name, ctrlArgs{Sub: "s1", Res: "r0"}, p.Append, decCtrlArgs, ctrl)
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
			codec.Record{"available": codec.StringList(avail)})
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
// loss (retries included) and checks that the per-resource observation
// params each Env shares across its events come out of the run exactly
// as they went in — no monitor, observer or trace consumer mutated one —
// and that the recorded trace really shares them.
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
			for _, e := range tr {
				_ = e.Label() // a trace consumer reading every params record
			}
			if len(c.env.obsParams) != 3 {
				t.Fatalf("shared params for %d resources, want 3", len(c.env.obsParams))
			}
			for r, params := range c.env.obsParams {
				if !reflect.DeepEqual(params, codec.Record{ParamResource: r}) {
					t.Fatalf("params of %q mutated to %v", r, params)
				}
			}
			shared := 0
			for _, e := range tr {
				r, _ := e.Params[ParamResource].(string)
				if want, ok := c.env.obsParams[r]; ok && reflect.ValueOf(e.Params).Pointer() == reflect.ValueOf(want).Pointer() {
					shared++
				}
			}
			if shared != len(tr) || shared == 0 {
				t.Fatalf("%d of %d trace events share their resource's params record", shared, len(tr))
			}
		})
	}
}
