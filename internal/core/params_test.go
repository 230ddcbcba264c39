package core

import (
	"bytes"
	"testing"
	"time"
	"unsafe"

	"repro/internal/codec"
)

type zeroClock struct{}

func (zeroClock) Now() time.Duration { return 0 }

// kindsSpec declares one primitive with a parameter of every ParamKind.
func kindsSpec() *ServiceSpec {
	return &ServiceSpec{
		Name:  "kinds",
		Roles: []RoleDef{{Name: "r"}},
		Primitives: []PrimitiveDef{{Name: "p", Direction: FromUser, Params: []ParamDef{
			{Name: "s", Kind: KindString},
			{Name: "i", Kind: KindInt},
			{Name: "b", Kind: KindBool},
			{Name: "l", Kind: KindStringList},
		}}},
		Constraints: []Constraint{&Precedes{ConstraintName: "q-before-p", Trigger: "q", Enabled: "p", Key: KeyParam("s")}},
	}
}

// TestParamKindsRenderUnchanged pins, for every ParamKind, the label,
// the CheckEvent error and the first violation Observe reports, as they
// read when params crossed the SAP as boxed records.
func TestParamKindsRenderUnchanged(t *testing.T) {
	good := codec.Record{"s": "x", "i": int64(-3), "b": true, "l": codec.List{"a", "b"}}
	with := func(k string, v any) codec.Record {
		r := codec.Record{}
		for kk, vv := range good {
			r[kk] = vv
		}
		r[k] = v
		return r
	}
	const bad = `core: primitive parameters do not match declaration: "p" parameter `
	const unmatched = `constraint "q-before-p" violated by `
	cases := []struct {
		params      codec.Record
		label, fail string // fail is the CheckEvent error ("" for none)
	}{
		{good, "p@r:1(b=true,i=-3,l=[a b],s=x)", ""},
		{with("s", int64(7)), "p@r:1(b=true,i=-3,l=[a b],s=7)", bad + `"s": want string, got int64`},
		{with("i", "x"), "p@r:1(b=true,i=x,l=[a b],s=x)", bad + `"i": want int, got string`},
		{with("b", "yes"), "p@r:1(b=yes,i=-3,l=[a b],s=x)", bad + `"b": want bool, got string`},
		{with("l", "a"), "p@r:1(b=true,i=-3,l=a,s=x)", bad + `"l": want list<string>: codec: string is not a list`},
		{with("l", codec.List{"a", int64(1)}), "p@r:1(b=true,i=-3,l=[a 1],s=x)", bad + `"l": want list<string>: codec: list element 1 is int64, not string`},
		{with("l", codec.List{}), "p@r:1(b=true,i=-3,l=[],s=x)", ""},
		{with("b", false), "p@r:1(b=false,i=-3,l=[a b],s=x)", ""},
		{with("s", ""), "p@r:1(b=true,i=-3,l=[a b],s=)", ""},
	}
	for _, c := range cases {
		spec := kindsSpec()
		e := Event{SAP: SAP{Role: "r", ID: "1"}, Primitive: "p", Params: rec(c.params)}
		if got := e.Label(); got != c.label {
			t.Errorf("Label = %q, want %q", got, c.label)
		}
		wantObs := c.fail
		if err := spec.CheckEvent(e); c.fail == "" && err != nil || c.fail != "" && (err == nil || err.Error() != c.fail) {
			t.Errorf("%s: CheckEvent = %v, want %q", c.label, err, c.fail)
		}
		if c.fail == "" {
			s, _ := c.params["s"].(string)
			wantObs = unmatched + c.label + `: p without prior q for key "` + s + `"`
		}
		obs, err := NewObserver(spec, zeroClock{})
		if err != nil {
			t.Fatal(err)
		}
		if err := obs.Observe(e.SAP, e.Primitive, e.Params); err == nil || err.Error() != wantObs {
			t.Errorf("Observe = %v, want %q", err, wantObs)
		}
	}
}

// TestMalformedParams: params that are not one encoded record fail
// validation and still render.
func TestMalformedParams(t *testing.T) {
	e := Event{SAP: SAP{Role: "r", ID: "1"}, Primitive: "p", Params: []byte{0xff}}
	if got, want := e.Label(), "p@r:1(<malformed params>)"; got != want {
		t.Fatalf("Label = %q, want %q", got, want)
	}
	if err := kindsSpec().CheckEvent(e); err == nil {
		t.Fatal("malformed params accepted")
	}
}

// TestPrimitiveSchema: a primitive's parameter record layout is the bare
// record of its declared names, byte-identical to the generic encoding.
func TestPrimitiveSchema(t *testing.T) {
	spec := testSpec()
	p, ok := spec.Primitive("request")
	if !ok {
		t.Fatal("request not declared")
	}
	sc := p.Schema()
	if got := sc.Fields(); len(got) != 1 || got[0] != "resid" {
		t.Fatalf("request schema fields = %v", got)
	}
	e := sc.Encoder(nil)
	e.Str("resid", "r1")
	got, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if want := rec(codec.Record{"resid": "r1"}); !bytes.Equal(got, want) {
		t.Fatalf("schema encodes % x, generic record % x", got, want)
	}
	none := PrimitiveDef{Name: "ping", Direction: FromUser}.Schema().Encoder(nil)
	if got, _ := none.Finish(); !bytes.Equal(got, codec.RawEmptyRecord) {
		t.Fatalf("param-less schema encodes % x, want the empty record", got)
	}
}

// TestRetainedEventsOwnTheirParams: the trace and a retained violation
// keep copies, so a producer reusing its buffer rewrites neither.
func TestRetainedEventsOwnTheirParams(t *testing.T) {
	var tr Trace
	obs, err := NewObserver(testSpec(), zeroClock{}, WithTrace(&tr))
	if err != nil {
		t.Fatal(err)
	}
	buf := rec(codec.Record{"resid": "r1"})
	_ = obs.Observe(sap("s1"), "granted", buf) //nolint:errcheck // the violation is read back below
	copy(buf, rec(codec.Record{"resid": "r2"}))
	if got := tr[0].Label(); got != "granted@subscriber:s1(resid=r1)" {
		t.Fatalf("traced event reads %q after the buffer was reused", got)
	}
	v, ok := AsViolation(obs.Err())
	if !ok || v.Event == nil || v.Event.Label() != "granted@subscriber:s1(resid=r1)" {
		t.Fatalf("retained violation = %v", obs.Err())
	}
}

// TestObserveAllocatesNothing: a warmed request → granted → free cycle on
// a known key, with params encoded into a reused buffer, allocates
// nothing in the observer, its validation or its monitors.
func TestObserveAllocatesNothing(t *testing.T) {
	obs, err := NewObserver(testSpec(), zeroClock{})
	if err != nil {
		t.Fatal(err)
	}
	schema := codec.CompileRecord("resid")
	var buf []byte
	params := func(res string) []byte {
		e := schema.Encoder(buf[:0])
		e.Str("resid", res)
		buf, _ = e.Finish()
		return buf
	}
	at := sap("s1")
	cycle := func() {
		for _, prim := range []string{"request", "granted", "free"} {
			if err := obs.Observe(at, prim, params("a-resource-name-longer-than-32-bytes")); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("observing a cycle allocates %v times, want 0", n)
	}
	if obs.Complete() != nil {
		t.Fatalf("conforming cycles reported %v", obs.Violations())
	}
}

// TestByValueViewSizes pins the size of the two views copied by value
// on every delivery and observation: codec.MsgView (through Event,
// Object.Dispatch and the argument decoders) and Event (once per
// monitor). Field offsets kept inside MsgView ([8]uint32 more) made the
// default band slower, with runtime.duffcopy at 4.3 % of its CPU, so
// the offsets live in codec.Slots, on the parser's stack, instead. Event
// no longer carries a parsed view (the observer keeps the slots), which
// took it from 152 to 88 bytes on 64-bit platforms. Growing either is a
// measured decision, not a side effect.
func TestByValueViewSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(codec.MsgView{}); got != 64 {
		t.Errorf("codec.MsgView is %d bytes, pinned at 64", got)
	}
	if got := unsafe.Sizeof(Event{}); got != 88 {
		t.Errorf("core.Event is %d bytes, pinned at 88", got)
	}
}

// TestMonitorsKeyedByDifferentParams: the observer reads a correlation
// key once per event for all monitors, so monitors keyed by different
// parameters of one event must each still see their own parameter.
func TestMonitorsKeyedByDifferentParams(t *testing.T) {
	params := []ParamDef{{Name: "x", Kind: KindString}, {Name: "y", Kind: KindString}}
	spec := &ServiceSpec{
		Name: "two-keys",
		Primitives: []PrimitiveDef{
			{Name: "q", Direction: FromUser, Params: params},
			{Name: "p", Direction: ToUser, Params: params},
		},
		Constraints: []Constraint{
			&Precedes{ConstraintName: "by-x", Trigger: "q", Enabled: "p", Key: KeyParam("x")},
			&Precedes{ConstraintName: "by-y", Trigger: "q", Enabled: "p", Key: KeyParam("y")},
		},
	}
	obs, err := NewObserver(spec, zeroClock{})
	if err != nil {
		t.Fatal(err)
	}
	at := SAP{Role: "r", ID: "1"}
	if err := obs.Observe(at, "q", rec(codec.Record{"x": "1", "y": "2"})); err != nil {
		t.Fatal(err)
	}
	err = obs.Observe(at, "p", rec(codec.Record{"x": "1", "y": "3"}))
	v, ok := AsViolation(err)
	if !ok || v.Constraint != "by-y" || len(obs.Violations()) != 1 {
		t.Fatalf("violations = %v, want by-y alone", obs.Violations())
	}
}
