package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/codec"
)

// mapMonitor is the reference the dense monitors are checked against:
// the same constraint, with its per-key state in maps keyed by Key, as
// the monitors kept it before they indexed their state by key id.
type mapMonitor struct {
	c       Constraint
	counts  map[Key]int
	holder  map[Key]SAP
	holders map[Key]map[SAP]bool
	times   map[Key][]time.Duration
	last    time.Duration
}

func newMapMonitor(c Constraint) *mapMonitor {
	return &mapMonitor{c: c, counts: make(map[Key]int), holder: make(map[Key]SAP),
		holders: make(map[Key]map[SAP]bool), times: make(map[Key][]time.Duration)}
}

func (m *mapMonitor) drain(k Key) {
	switch n := m.counts[k]; {
	case n > 1:
		m.counts[k] = n - 1
	case n == 1:
		delete(m.counts, k)
	}
}

func (m *mapMonitor) violation(e Event, name, format string, args ...any) error {
	return &ViolationError{Constraint: name, Event: &e, Detail: fmt.Sprintf(format, args...)}
}

func (m *mapMonitor) Observe(e Event) error {
	switch c := m.c.(type) {
	case *Precedes:
		if e.Primitive != c.Trigger && e.Primitive != c.Enabled {
			return nil
		}
		k, ok := c.Key(e)
		if !ok {
			return nil
		}
		if e.Primitive == c.Trigger {
			if !c.AllowPendingMany && m.counts[k] > 0 {
				return m.violation(e, c.ConstraintName, "%s re-issued while already pending for key %q", c.Trigger, k)
			}
			m.counts[k]++
			return nil
		}
		if m.counts[k] == 0 {
			return m.violation(e, c.ConstraintName, "%s without prior %s for key %q", c.Enabled, c.Trigger, k)
		}
		if !c.NonConsuming {
			m.drain(k)
		}
	case *EventuallyFollows:
		if k, ok := c.Key(e); ok {
			switch e.Primitive {
			case c.Trigger:
				m.counts[k]++
			case c.Response:
				m.drain(k)
			}
		}
	case *MutualExclusion:
		k, ok := c.Key(e)
		if !ok {
			return nil
		}
		switch e.Primitive {
		case c.Acquire:
			if h, held := m.holder[k]; held {
				return m.violation(e, c.ConstraintName, "resource %q already held by %s", k, h)
			}
			m.holder[k] = e.SAP
		case c.Release:
			h, held := m.holder[k]
			if !held {
				return m.violation(e, c.ConstraintName, "release of %q which is not held", k)
			}
			if h != e.SAP {
				return m.violation(e, c.ConstraintName, "release of %q by %s but holder is %s", k, e.SAP, h)
			}
			delete(m.holder, k)
		}
	case *Absence:
		k, ok := c.Key(e)
		if !ok {
			return nil
		}
		switch e.Primitive {
		case c.Open:
			m.counts[k]++
		case c.Close:
			m.drain(k)
		}
		if e.Primitive == c.Forbidden && e.Primitive != c.Open && m.counts[k] > 0 {
			return m.violation(e, c.ConstraintName, "%s during open %s/%s interval for key %q", c.Forbidden, c.Open, c.Close, k)
		}
	case *Capacity:
		k, ok := c.Key(e)
		if !ok {
			return nil
		}
		set := m.holders[k]
		if set == nil {
			set = make(map[SAP]bool)
			m.holders[k] = set
		}
		switch e.Primitive {
		case c.Acquire:
			if set[e.SAP] {
				return m.violation(e, c.ConstraintName, "%s already holds key %q", e.SAP, k)
			}
			if len(set) >= c.Limit {
				return m.violation(e, c.ConstraintName, "capacity %d exceeded for key %q", c.Limit, k)
			}
			set[e.SAP] = true
		case c.Release:
			if !set[e.SAP] {
				return m.violation(e, c.ConstraintName, "%s releases key %q it does not hold", e.SAP, k)
			}
			delete(set, e.SAP)
		}
	case *Deadline:
		m.last = max(m.last, e.At)
		k, ok := c.Key(e)
		if !ok {
			return nil
		}
		switch e.Primitive {
		case c.Trigger:
			m.times[k] = append(m.times[k], e.At)
		case c.Response:
			q := m.times[k]
			if len(q) == 0 {
				return nil
			}
			m.times[k] = q[1:]
			if elapsed := e.At - q[0]; elapsed > c.Within {
				return m.violation(e, c.ConstraintName, "response after %v, deadline %v (key %q)", elapsed, c.Within, k)
			}
		}
	}
	return nil
}

// least returns the key of states that renders smallest among those
// outstanding.
func least[V any](states map[Key]V, outstanding func(V) bool) (k Key, v V, found bool) {
	var s string
	for key, val := range states {
		if ks := key.String(); outstanding(val) && (!found || ks < s) {
			k, v, s, found = key, val, ks, true
		}
	}
	return k, v, found
}

func (m *mapMonitor) AtEnd() error {
	switch c := m.c.(type) {
	case *EventuallyFollows:
		if k, n, ok := least(m.counts, func(n int) bool { return n > 0 }); ok {
			return &ViolationError{Constraint: c.ConstraintName,
				Detail: fmt.Sprintf("%d %s(s) for key %q never followed by %s", n, c.Trigger, k, c.Response)}
		}
	case *Deadline:
		if k, q, ok := least(m.times, func(q []time.Duration) bool { return len(q) > 0 && m.last-q[0] > c.Within }); ok {
			return &ViolationError{Constraint: c.ConstraintName,
				Detail: fmt.Sprintf("trigger at %v for key %q still unanswered %v past its deadline", q[0], k, m.last-q[0]-c.Within)}
		}
	}
	return nil
}

// denseSpec holds every monitor kind, each precedes variant, and
// keys of every shape: at the event's SAP, SAP-independent, and two no
// event's parameter yields as is — at a fixed SAP, and of a derived value.
func denseSpec() *ServiceSpec {
	hub := SAP{Role: "subscriber", ID: "hub"}
	resid := newKeyParam("resid")
	atHub := func(e Event) (Key, bool) {
		s, ok := e.str(resid)
		return Key{SAP: hub, Value: s}, ok
	}
	derived := func(e Event) (Key, bool) {
		s, ok := e.str(resid)
		return Key{SAP: e.SAP, Value: "x-" + s}, ok
	}
	res := []ParamDef{{Name: "resid", Kind: KindString}}
	return &ServiceSpec{
		Name: "dense",
		Primitives: []PrimitiveDef{
			{Name: "request", Direction: FromUser, Params: res},
			{Name: "granted", Direction: ToUser, Params: res},
			{Name: "free", Direction: FromUser, Params: res},
		},
		Constraints: []Constraint{
			&Precedes{ConstraintName: "p-local", ScopeKind: ScopeLocal, Trigger: "request", Enabled: "granted", Key: KeySAPAndParam("resid")},
			&Precedes{ConstraintName: "p-many", ScopeKind: ScopeRemote, Trigger: "granted", Enabled: "free", Key: KeyParam("resid"), AllowPendingMany: true},
			&Precedes{ConstraintName: "p-nonconsuming", ScopeKind: ScopeLocal, Trigger: "request", Enabled: "free", Key: derived, NonConsuming: true},
			&Precedes{ConstraintName: "p-hub", ScopeKind: ScopeRemote, Trigger: "request", Enabled: "granted", Key: atHub},
			&EventuallyFollows{ConstraintName: "e-local", ScopeKind: ScopeLocal, Trigger: "request", Response: "granted", Key: KeySAPAndParam("resid")},
			&EventuallyFollows{ConstraintName: "e-remote", ScopeKind: ScopeRemote, Trigger: "granted", Response: "free", Key: KeyParam("resid")},
			&MutualExclusion{ConstraintName: "x", Acquire: "granted", Release: "free", Key: KeyParam("resid")},
			&MutualExclusion{ConstraintName: "x-derived", Acquire: "granted", Release: "free", Key: derived},
			&Absence{ConstraintName: "a", ScopeKind: ScopeLocal, Open: "granted", Close: "free", Forbidden: "request", Key: KeySAPAndParam("resid")},
			&Capacity{ConstraintName: "c", Acquire: "granted", Release: "free", Key: KeyParam("resid"), Limit: 2},
			&Deadline{ConstraintName: "d", ScopeKind: ScopeLocal, Trigger: "request", Response: "granted", Key: KeySAPAndParam("resid"), Within: 40 * time.Millisecond},
		},
	}
}

// TestDenseMonitorsMatchMapKeyed drives far more distinct keys than any
// initial slice capacity through the monitors, under an Observer
// and driven directly, and requires exactly the violations, with exactly
// the texts, of the map-keyed reference.
func TestDenseMonitorsMatchMapKeyed(t *testing.T) {
	spec := denseSpec()
	rng := rand.New(rand.NewSource(7))
	prims := []string{"request", "granted", "free"}
	var events []Event
	for i := 0; i < 6000; i++ {
		s := SAP{Role: "subscriber", ID: fmt.Sprintf("s%d", rng.Intn(60))}
		if rng.Intn(50) == 0 {
			s = SAP{} // the zero SAP: its local and remote keys coincide
		}
		res := fmt.Sprintf("r%d", rng.Intn(9))
		events = append(events, Event{At: time.Duration(i) * time.Millisecond, SAP: s,
			Primitive: prims[rng.Intn(len(prims))], Params: rec(codec.Record{"resid": res})})
	}

	var want []string
	ref := make([]*mapMonitor, len(spec.Constraints))
	for i, c := range spec.Constraints {
		ref[i] = newMapMonitor(c)
	}
	for _, e := range events {
		for _, m := range ref {
			if err := m.Observe(e); err != nil {
				want = append(want, err.Error())
			}
		}
	}
	for _, m := range ref {
		if err := m.AtEnd(); err != nil {
			want = append(want, err.Error())
		}
	}
	for _, c := range spec.Constraints {
		q := fmt.Sprintf("constraint %q violated", c.Name())
		if !slices.ContainsFunc(want, func(v string) bool { return len(v) >= len(q) && v[:len(q)] == q }) {
			t.Fatalf("the event stream violates %s nowhere; it tests too little", c.Name())
		}
	}

	clock := &stepClock{}
	obs, err := NewObserver(spec, clock)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		clock.now = e.At
		_ = obs.Observe(e.SAP, e.Primitive, e.Params) //nolint:errcheck // collected below
	}
	_ = obs.Complete() //nolint:errcheck // collected below
	var got []string
	for _, err := range obs.Violations() {
		got = append(got, err.Error())
	}
	if n := len(obs.keys.keys); n < 100 {
		t.Fatalf("the observer held %d keys at once, want well past any initial capacity", n)
	}
	diff(t, "observer", got, want)

	// Driven directly, each monitor keeps a key table of its own.
	got = got[:0]
	direct := make([]Monitor, len(spec.Constraints))
	for i, c := range spec.Constraints {
		direct[i] = c.NewMonitor()
	}
	for _, e := range events {
		for _, m := range direct {
			if err := m.Observe(e); err != nil {
				got = append(got, err.Error())
			}
		}
	}
	for _, m := range direct {
		if err := m.AtEnd(); err != nil {
			got = append(got, err.Error())
		}
	}
	diff(t, "direct", got, want)
}

// stepClock is a Clock the test sets.
type stepClock struct{ now time.Duration }

func (c *stepClock) Now() time.Duration { return c.now }

func diff(t *testing.T, what string, got, want []string) {
	t.Helper()
	if slices.Equal(got, want) {
		return
	}
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("%s: violation %d:\n got %s\nwant %s", what, i, got[i], want[i])
		}
	}
	t.Fatalf("%s: %d violations, want %d", what, len(got), len(want))
}
