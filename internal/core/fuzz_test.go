package core

import (
	"testing"

	"repro/internal/codec"
)

// keyProbe is a constraint whose monitor records, for the event it last
// observed, the key KeyParam reads for each of fuzzKeyNames: what the
// monitors of an Observer see.
type keyProbe struct {
	got []keyRead
}

type keyRead struct {
	key Key
	ok  bool
}

func (p *keyProbe) Name() string        { return "key-probe" }
func (p *keyProbe) Scope() Scope        { return ScopeRemote }
func (p *keyProbe) Description() string { return "records the keys each event carries" }
func (p *keyProbe) NewMonitor() Monitor { return p }
func (p *keyProbe) AtEnd() error        { return nil }

func (p *keyProbe) Observe(e Event) error {
	p.got = p.got[:0]
	for _, name := range fuzzKeyNames {
		k, ok := KeyParam(name)(e)
		p.got = append(p.got, keyRead{k, ok})
	}
	return nil
}

// fuzzTarget is one primitive an input is observed as, in its spec.
type fuzzTarget struct {
	spec      func() *ServiceSpec
	primitive string
}

// fuzzTargets are the primitives of kindsSpec and the floor-control
// spec, each followed by one the spec does not declare.
var fuzzTargets = func() []fuzzTarget {
	var ts []fuzzTarget
	for _, spec := range []func() *ServiceSpec{kindsSpec, testSpec} {
		for _, p := range spec().Primitives {
			ts = append(ts, fuzzTarget{spec, p.Name})
		}
		ts = append(ts, fuzzTarget{spec, "undeclared"})
	}
	return ts
}()

// fuzzKeyNames are the parameters the probe reads: every parameter of
// either spec, so each target reads some outside its declaration.
var fuzzKeyNames = []string{"s", "i", "b", "l", "resid", "undeclared"}

// FuzzObserve feeds arbitrary params to the Observer as each target
// primitive and pins its one parameter path against the standalone
// forms: Observe never panics, its first error reads as CheckEvent's
// (or is a violation when CheckEvent accepts), and every monitor's
// KeyParam read — declared parameters by slot, other names from the
// view — matches KeyParam on the event outside an observer.
func FuzzObserve(f *testing.F) {
	good := codec.Record{"s": "x", "i": int64(-3), "b": true, "l": codec.List{"a", "b"}}
	for i := range fuzzTargets {
		f.Add(uint8(i), rec(good))
		f.Add(uint8(i), rec(codec.Record{"resid": "r1"}))
	}
	f.Add(uint8(0), rec(codec.Record{"s": int64(7), "i": "x", "b": true, "l": codec.List{"a", int64(1)}}))
	f.Add(uint8(4), rec(codec.Record{"resid": "r1", "extra": "y"}))
	f.Add(uint8(4), rec(codec.Record{"resid": []byte("r1")}))
	f.Add(uint8(5), codec.RawEmptyRecord)
	f.Add(uint8(1), []byte{0xff})

	f.Fuzz(func(t *testing.T, target uint8, params []byte) {
		tgt := fuzzTargets[int(target)%len(fuzzTargets)]
		spec := tgt.spec()
		probe := &keyProbe{}
		spec.Constraints = append(spec.Constraints, probe)
		obs, err := NewObserver(spec, zeroClock{})
		if err != nil {
			t.Fatal(err)
		}
		e := Event{SAP: SAP{Role: spec.Roles[0].Name, ID: "1"}, Primitive: tgt.primitive, Params: params}
		want := spec.CheckEvent(e)
		got := obs.Observe(e.SAP, e.Primitive, params)
		switch {
		case want != nil && (got == nil || got.Error() != want.Error()):
			t.Fatalf("%s: Observe = %v, CheckEvent = %v", e.Label(), got, want)
		case want == nil && got != nil:
			if _, ok := AsViolation(got); !ok {
				t.Fatalf("%s: CheckEvent accepts, Observe = %v", e.Label(), got)
			}
		}
		for i, name := range fuzzKeyNames {
			k, ok := KeyParam(name)(e)
			if r := probe.got[i]; r != (keyRead{k, ok}) {
				t.Fatalf("%s: KeyParam(%q) under observation = %v, %v; standalone %v, %v", e.Label(), name, r.key, r.ok, k, ok)
			}
		}
	})
}
