package codec

import (
	"errors"
	"reflect"
	"testing"
)

// The hot schema sets, in the shapes the packages that read by slot
// declare them: the reliable datagram's PDUs, the middleware's implicit
// protocol, the floor-control argument and reply records, and a
// primitive parameter record.
var (
	slotRdpData = CompileSchema("rdp.data", "seq", "payload", "inc", "rinc")
	slotRdpAck  = CompileSchema("rdp.ack", "cum", "inc", "rinc")
	slotMwCall  = CompileSchema("mw.call", "args", "id", "op", "target")
	slotMwReply = CompileSchema("mw.reply", "error", "id", "result")

	fuzzSets = []*SchemaSet{
		NewSchemaSet(slotRdpData, slotRdpAck),
		NewSchemaSet(slotMwCall,
			CompileSchema("mw.oneway", "args", "op", "target"),
			slotMwReply,
			CompileSchema("mw.enqueue", "fields", "name", "queue"),
			CompileSchema("mw.deliver", "fields", "name", "queue"),
			CompileSchema("mw.publish", "fields", "name", "topic"),
			CompileSchema("mw.event", "fields", "name", "topic")),
	}
	fuzzRecords = []*Schema{
		CompileRecord("resid", "seq", "subid"),
		CompileRecord("resid", "seq"),
		CompileRecord("available", "resid"),
		CompileRecord("available", "gen"),
		CompileRecord("resid"),
	}
)

// finish returns an encoder's message, failing the test on error.
func finish(tb testing.TB, e Encoder) []byte {
	tb.Helper()
	b, err := e.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// slotSeeds returns real wire forms of the hot messages: rdp.data with
// and without the incarnation pair, an rdp.ack, an mw.call with nested
// arguments, an mw.reply error and result, and a primitive record.
func slotSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	data := CompileSchema("rdp.data", "seq", "payload").Encoder(nil)
	data.Bytes("payload", []byte("granted"))
	data.Uint("seq", 7)
	dataInc := slotRdpData.Encoder(nil)
	dataInc.Uint("inc", 2)
	dataInc.Bytes("payload", []byte{0x06, 0x01, 'x'})
	dataInc.Uint("rinc", 3)
	dataInc.Uint("seq", 0)
	ack := CompileSchema("rdp.ack", "cum").Encoder(nil)
	ack.Uint("cum", 12)
	args := CompileRecord("resid", "subid").Encoder(nil)
	args.Str("resid", "r1")
	args.Str("subid", "s9")
	call := slotMwCall.Encoder(nil)
	call.Raw("args", finish(tb, args))
	call.Uint("id", 41)
	call.Str("op", "request_permission")
	call.Str("target", "controller")
	replyErr := CompileSchema("mw.reply", "error", "id").Encoder(nil)
	replyErr.Str("error", "unknown object at node")
	replyErr.Uint("id", 41)
	replyOK := CompileSchema("mw.reply", "id", "result").Encoder(nil)
	replyOK.Uint("id", 41)
	replyOK.Raw("result", RawEmptyRecord)
	params := CompileRecord("resid").Encoder(nil)
	params.Str("resid", "resource-3")
	return [][]byte{finish(tb, data), finish(tb, dataInc), finish(tb, ack), finish(tb, call),
		finish(tb, replyErr), finish(tb, replyOK), finish(tb, params)}
}

// FuzzSchemaParse checks the slot plane against the boxed decoder of
// oracle_test.go, run bounded in CI (see .github/workflows/ci.yml, fuzz
// job): for arbitrary bytes and every hot schema set, a slot parse
// accepts exactly what ParseMessage (a set) or ParseRecord (a record
// schema) accepts; every filled slot holds the value DecodeMessage or
// Decode materializes for its field, every typed accessor hits exactly
// when that value has its type, and every empty slot is an absent
// field. Resolve on the parsed view agrees as well.
func FuzzSchemaParse(f *testing.F) {
	for _, seed := range slotSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte{tagRecord, 2, tagString, 1, 'a', tagNil, tagString, 1, 'a', tagNil})

	f.Fuzz(func(t *testing.T, data []byte) {
		view, viewErr := ParseMessage(data)
		for _, set := range fuzzSets {
			var sl Slots
			err := set.Parse(data, &sl)
			if (err == nil) != (viewErr == nil) {
				t.Fatalf("set parse error %v, ParseMessage error %v, on % x", err, viewErr, data)
			}
			if err != nil {
				checkEmpty(t, &sl)
				continue
			}
			if !reflect.DeepEqual(*sl.View(), view) {
				t.Fatalf("set parse view %+v, ParseMessage view %+v", *sl.View(), view)
			}
			if sl.Schema() == nil {
				checkEmpty(t, &sl)
				continue
			}
			if sl.Schema().Name() != string(view.Name()) {
				t.Fatalf("message %q parsed against %s", view.Name(), sl.Schema())
			}
			m, err := DecodeMessage(data)
			if err != nil {
				t.Fatalf("ParseMessage accepted % x, DecodeMessage rejected: %v", data, err)
			}
			checkSlots(t, &sl, m.Fields)
			var rs Slots
			sl.Schema().Resolve(&view, &rs)
			checkSlots(t, &rs, m.Fields)
		}
		rv, recErr := ParseRecord(data)
		for _, s := range fuzzRecords {
			var sl Slots
			err := s.ParseRecord(data, &sl)
			if (err == nil) != (recErr == nil) {
				t.Fatalf("%s parse error %v, ParseRecord error %v, on % x", s, err, recErr, data)
			}
			if err != nil {
				checkEmpty(t, &sl)
				continue
			}
			rec, ok := mustDecode(t, data).(Record)
			if !ok {
				t.Fatalf("ParseRecord accepted % x, which Decode reads as no record", data)
			}
			checkSlots(t, &sl, rec)
			var rs Slots
			s.Resolve(&rv, &rs)
			checkSlots(t, &rs, rec)
		}
	})
}

// checkEmpty fails unless sl holds no schema and no filled slot.
func checkEmpty(t *testing.T, sl *Slots) {
	t.Helper()
	if sl.Schema() != nil {
		t.Fatalf("slots of a failed or unmatched parse name %s", sl.Schema())
	}
	for i := 0; i < MaxSlots; i++ {
		if sl.Has(Slot(i)) {
			t.Fatalf("slot %d filled by a failed or unmatched parse", i)
		}
	}
}

// checkSlots fails unless every slot of sl's schema reads what the boxed
// decoder materialized for its field in fields.
func checkSlots(t *testing.T, sl *Slots, fields Record) {
	t.Helper()
	for _, name := range sl.Schema().Fields() {
		i := sl.Schema().Slot(name)
		want, present := fields[name]
		raw, ok := sl.RawAt(i)
		if ok != present || sl.Has(i) != present {
			t.Fatalf("%s: slot filled %v, field present %v", name, ok, present)
		}
		if !present {
			continue
		}
		if got := mustDecode(t, raw); !Equal(got, want) {
			t.Fatalf("%s: slot holds %v, field %v", name, got, want)
		}
		if got, ok := sl.ValueAt(i); !ok || !Equal(got, want) {
			t.Fatalf("%s: ValueAt %v (%v), field %v", name, got, ok, want)
		}
		agree := func(what string, got any, ok bool, wantV any, wantOK bool) {
			if ok != wantOK || (ok && !reflect.DeepEqual(got, wantV)) {
				t.Fatalf("%s: %s by slot %v (%v), field %#v", name, what, got, ok, want)
			}
		}
		u, uok := sl.UintAt(i)
		wu, wuok := want.(uint64)
		agree("uint", u, uok, wu, wuok)
		n, nok := sl.IntAt(i)
		wn, wnok := want.(int64)
		agree("int", n, nok, wn, wnok)
		b, bok := sl.BoolAt(i)
		wb, wbok := want.(bool)
		agree("bool", b, bok, wb, wbok)
		str, sok := sl.StrAt(i)
		ws, wsok := want.(string)
		agree("str", string(str), sok, ws, wsok)
		by, byok := sl.BytesAt(i)
		wby, wbyok := want.([]byte)
		agree("bytes", string(by), byok, string(wby), wbyok)
		l, lok := sl.StringsAt(i, nil)
		wl, wlErr := ToStringSlice(want)
		if lok != (wlErr == nil) || len(l) != len(wl) || (lok && len(l) > 0 && !reflect.DeepEqual(l, wl)) {
			t.Fatalf("%s: strings by slot %q (%v), field %#v", name, l, lok, want)
		}
		// A nested record reads as a view unless its own keys are out of
		// canonical order, which the boxed decoder tolerates.
		r, rok := sl.RecordAt(i)
		wr, wrok := want.(Record)
		switch _, nestedErr := ParseRecord(raw); {
		case rok != (wrok && nestedErr == nil):
			t.Fatalf("%s: record by slot %v, field %#v (nested parse %v)", name, rok, want, nestedErr)
		case wrok && nestedErr != nil && !errors.Is(nestedErr, ErrNonCanonical):
			t.Fatalf("%s: nested record rejected with %v, want ErrNonCanonical", name, nestedErr)
		case rok:
			got, err := r.Fields()
			if err != nil || !Equal(Value(got), Value(wr)) {
				t.Fatalf("%s: record by slot %v (%v), field %v", name, got, err, wr)
			}
		}
	}
}

// TestSchemaParseSeeds runs the fuzz property over the seeds and reads
// the superset schemas' optional fields as empty slots.
func TestSchemaParseSeeds(t *testing.T) {
	seeds := slotSeeds(t)
	var sl Slots
	if err := fuzzSets[0].Parse(seeds[0], &sl); err != nil || sl.Schema() != slotRdpData {
		t.Fatalf("rdp.data parsed against %v, err %v", sl.Schema(), err)
	}
	if seq, ok := sl.UintAt(slotRdpData.Slot("seq")); !ok || seq != 7 {
		t.Fatalf("seq = %d, %v", seq, ok)
	}
	if sl.Has(slotRdpData.Slot("inc")) || sl.Has(slotRdpData.Slot("rinc")) {
		t.Fatal("the legacy rdp.data fills the incarnation slots")
	}
	if err := fuzzSets[0].Parse(seeds[3], &sl); err != nil || sl.Schema() != nil {
		t.Fatalf("an mw.call parsed against the rdp set: %v, %v", sl.Schema(), err)
	}
	if err := fuzzSets[1].Parse(seeds[4], &sl); err != nil || sl.Schema() != slotMwReply {
		t.Fatalf("mw.reply parsed against %v, err %v", sl.Schema(), err)
	}
	if msg, ok := sl.StrAt(slotMwReply.Slot("error")); !ok || string(msg) != "unknown object at node" {
		t.Fatalf("error = %q, %v", msg, ok)
	}
	if sl.Has(slotMwReply.Slot("result")) {
		t.Fatal("an error reply fills the result slot")
	}
	if err := fuzzSets[1].Parse([]byte{0xff}, &sl); err == nil || sl.Schema() != nil || sl.View().Len() != 0 {
		t.Fatalf("a corrupt message left slots %+v (err %v)", sl, err)
	}
}

// TestSchemaSlotPanics: slots resolve only the fields a schema has, and
// a set takes message schemas of distinct names.
func TestSchemaSlotPanics(t *testing.T) {
	cases := map[string]func(){
		"unknown field":   func() { slotRdpAck.Slot("seq") },
		"beyond MaxSlots": func() { CompileRecord("a", "b", "c", "d", "e", "f", "g", "h", "i").Slot("i") },
		"record in set":   func() { NewSchemaSet(CompileRecord("resid")) },
		"duplicate name":  func() { NewSchemaSet(slotRdpData, CompileSchema("rdp.data", "seq")) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestSlotParseAllocatesNothing: a slot parse plus the reads of every
// field of an rdp.data, an mw.call with nested arguments and an observed
// primitive record allocate nothing.
func TestSlotParseAllocatesNothing(t *testing.T) {
	seeds := slotSeeds(t)
	rdp, call, params := seeds[1], seeds[3], seeds[6]
	var (
		sInc, sPayload, sRinc, sSeq = slotRdpData.Slot("inc"), slotRdpData.Slot("payload"), slotRdpData.Slot("rinc"), slotRdpData.Slot("seq")
		sArgs, sID, sOp, sTarget    = slotMwCall.Slot("args"), slotMwCall.Slot("id"), slotMwCall.Slot("op"), slotMwCall.Slot("target")
		argsSchema                  = fuzzRecords[0]
		sArgRes, sArgSub            = argsSchema.Slot("resid"), argsSchema.Slot("subid")
		paramsSchema                = fuzzRecords[4]
		sResid                      = paramsSchema.Slot("resid")
	)
	read := func() {
		var sl Slots
		if fuzzSets[0].Parse(rdp, &sl) != nil {
			t.Fatal("rdp.data rejected")
		}
		_, _ = sl.UintAt(sInc)
		_, _ = sl.BytesAt(sPayload)
		_, _ = sl.UintAt(sRinc)
		_, _ = sl.UintAt(sSeq)
		if fuzzSets[1].Parse(call, &sl) != nil {
			t.Fatal("mw.call rejected")
		}
		_, _ = sl.UintAt(sID)
		_, _ = sl.StrAt(sOp)
		_, _ = sl.StrAt(sTarget)
		args, ok := sl.RecordAt(sArgs)
		if !ok {
			t.Fatal("mw.call args rejected")
		}
		var as Slots
		argsSchema.Resolve(&args, &as)
		_, _ = as.StrAt(sArgRes)
		_, _ = as.StrAt(sArgSub)
		if paramsSchema.ParseRecord(params, &sl) != nil {
			t.Fatal("primitive record rejected")
		}
		_, _ = sl.StrAt(sResid)
	}
	if n := testing.AllocsPerRun(100, read); n != 0 {
		t.Fatalf("slot parse and reads allocate %v times, want 0", n)
	}
}
