package core

import (
	"fmt"
)

// Key is a correlation key: a parameter value, optionally scoped to the
// SAP where the event occurred. It is comparable, so monitors index their
// state by it directly and no per-event string is built.
type Key struct {
	SAP   SAP // zero for SAP-independent (remote) keys
	Value string
}

// String renders the key as violation messages show it: "subscriber:s1/r1"
// for a SAP-scoped key, "r1" otherwise.
func (k Key) String() string {
	if k.SAP == (SAP{}) {
		return k.Value
	}
	return k.SAP.String() + "/" + k.Value
}

// KeyFunc extracts a correlation key from an event — typically the resource
// identifier, or the (SAP, resource) pair for local constraints. The second
// result reports whether the event carries a key at all.
type KeyFunc func(Event) (Key, bool)

// KeyParam correlates events by one string parameter (e.g. "resid").
func KeyParam(param string) KeyFunc {
	return func(e Event) (Key, bool) {
		s, ok := e.Params[param].(string)
		return Key{Value: s}, ok
	}
}

// KeySAPAndParam correlates events by SAP plus one string parameter, the
// usual shape of the paper's *local* constraints ("for a given resource
// identification", at a given access point).
func KeySAPAndParam(param string) KeyFunc {
	return func(e Event) (Key, bool) {
		s, ok := e.Params[param].(string)
		return Key{SAP: e.SAP, Value: s}, ok
	}
}

// minKey returns the outstanding key of m that renders smallest, so an
// end-of-trace report names the same key on every run whatever Go's map
// iteration order.
func minKey[V any](m map[Key]V, outstanding func(V) bool) (key Key, val V, found bool) {
	var least string
	for k, v := range m {
		if !outstanding(v) {
			continue
		}
		if s := k.String(); !found || s < least {
			key, val, least, found = k, v, s, true
		}
	}
	return key, val, found
}

// Precedes is a safety constraint: an occurrence of Enabled consumes a
// prior unmatched occurrence of Trigger with the same key. It encodes
// "granted may only occur after request" and, symmetrically, "free may
// only occur after granted".
type Precedes struct {
	ConstraintName string
	ConstraintDesc string
	ScopeKind      Scope
	Trigger        string
	Enabled        string
	Key            KeyFunc
	// AllowPendingMany, when false, additionally rejects a second Trigger
	// while one is already pending for the same key (no double request).
	AllowPendingMany bool
	// NonConsuming makes Enabled a pure precondition check: it requires a
	// pending Trigger but does not consume it, so one trigger can enable
	// many occurrences (multicast delivery, repeated reads under a lease).
	NonConsuming bool
}

var _ Constraint = (*Precedes)(nil)

// Name implements Constraint.
func (p *Precedes) Name() string { return p.ConstraintName }

// Scope implements Constraint.
func (p *Precedes) Scope() Scope { return p.ScopeKind }

// Description implements Constraint.
func (p *Precedes) Description() string {
	if p.ConstraintDesc != "" {
		return p.ConstraintDesc
	}
	return fmt.Sprintf("%s may only occur after an unmatched %s (same key)", p.Enabled, p.Trigger)
}

// NewMonitor implements Constraint.
func (p *Precedes) NewMonitor() Monitor {
	return &precedesMonitor{spec: p, pending: make(map[Key]int)}
}

type precedesMonitor struct {
	spec    *Precedes
	pending map[Key]int
}

func (m *precedesMonitor) Observe(e Event) error {
	switch e.Primitive {
	case m.spec.Trigger:
		key, ok := m.spec.Key(e)
		if !ok {
			return nil
		}
		if !m.spec.AllowPendingMany && m.pending[key] > 0 {
			ev := e
			return &ViolationError{
				Constraint: m.spec.ConstraintName,
				Event:      &ev,
				Detail:     fmt.Sprintf("%s re-issued while already pending for key %q", m.spec.Trigger, key),
			}
		}
		m.pending[key]++
	case m.spec.Enabled:
		key, ok := m.spec.Key(e)
		if !ok {
			return nil
		}
		if m.pending[key] == 0 {
			ev := e
			return &ViolationError{
				Constraint: m.spec.ConstraintName,
				Event:      &ev,
				Detail:     fmt.Sprintf("%s without prior %s for key %q", m.spec.Enabled, m.spec.Trigger, key),
			}
		}
		if !m.spec.NonConsuming {
			release(m.pending, key)
		}
	}
	return nil
}

func (m *precedesMonitor) AtEnd() error { return nil }

// EventuallyFollows is a liveness constraint: every occurrence of Trigger
// must eventually be followed by Response with the same key — the paper's
// "the execution of granted eventually follows the execution of request".
// Violations are reported at the end of the observation window.
type EventuallyFollows struct {
	ConstraintName string
	ConstraintDesc string
	ScopeKind      Scope
	Trigger        string
	Response       string
	Key            KeyFunc
}

var _ Constraint = (*EventuallyFollows)(nil)

// Name implements Constraint.
func (f *EventuallyFollows) Name() string { return f.ConstraintName }

// Scope implements Constraint.
func (f *EventuallyFollows) Scope() Scope { return f.ScopeKind }

// Description implements Constraint.
func (f *EventuallyFollows) Description() string {
	if f.ConstraintDesc != "" {
		return f.ConstraintDesc
	}
	return fmt.Sprintf("the execution of %s eventually follows the execution of %s (same key)", f.Response, f.Trigger)
}

// NewMonitor implements Constraint.
func (f *EventuallyFollows) NewMonitor() Monitor {
	return &eventuallyMonitor{spec: f, pending: make(map[Key]int)}
}

type eventuallyMonitor struct {
	spec    *EventuallyFollows
	pending map[Key]int
}

func (m *eventuallyMonitor) Observe(e Event) error {
	switch e.Primitive {
	case m.spec.Trigger:
		if key, ok := m.spec.Key(e); ok {
			m.pending[key]++
		}
	case m.spec.Response:
		if key, ok := m.spec.Key(e); ok {
			release(m.pending, key)
		}
	}
	return nil
}

func (m *eventuallyMonitor) AtEnd() error {
	key, n, ok := minKey(m.pending, func(n int) bool { return n > 0 })
	if !ok {
		return nil
	}
	return &ViolationError{
		Constraint: m.spec.ConstraintName,
		Detail:     fmt.Sprintf("%d %s(s) for key %q never followed by %s", n, m.spec.Trigger, key, m.spec.Response),
	}
}

// release decrements key's count and deletes the key once it drains, so a
// monitor's map holds only outstanding keys and its size stays bounded by
// the keys in flight, not by every key ever seen.
func release(counts map[Key]int, key Key) {
	switch n := counts[key]; {
	case n > 1:
		counts[key] = n - 1
	case n == 1:
		delete(counts, key)
	}
}

// MutualExclusion is the paper's remote constraint: between an Acquire and
// the matching Release, no other SAP may Acquire the same resource — "a
// resource is only granted to one subscriber at a time".
type MutualExclusion struct {
	ConstraintName string
	ConstraintDesc string
	Acquire        string
	Release        string
	// Key extracts the contended resource (remote scope: SAP-independent).
	Key KeyFunc
}

var _ Constraint = (*MutualExclusion)(nil)

// Name implements Constraint.
func (x *MutualExclusion) Name() string { return x.ConstraintName }

// Scope implements Constraint. Mutual exclusion is inherently remote.
func (x *MutualExclusion) Scope() Scope { return ScopeRemote }

// Description implements Constraint.
func (x *MutualExclusion) Description() string {
	if x.ConstraintDesc != "" {
		return x.ConstraintDesc
	}
	return fmt.Sprintf("a resource is %s to at most one SAP at a time (%s releases)", x.Acquire, x.Release)
}

// NewMonitor implements Constraint.
func (x *MutualExclusion) NewMonitor() Monitor {
	return &mutexMonitor{spec: x, holder: make(map[Key]SAP)}
}

type mutexMonitor struct {
	spec   *MutualExclusion
	holder map[Key]SAP
}

func (m *mutexMonitor) Observe(e Event) error {
	key, ok := m.spec.Key(e)
	if !ok {
		return nil
	}
	switch e.Primitive {
	case m.spec.Acquire:
		if holder, held := m.holder[key]; held {
			ev := e
			return &ViolationError{
				Constraint: m.spec.ConstraintName,
				Event:      &ev,
				Detail:     fmt.Sprintf("resource %q already held by %s", key, holder),
			}
		}
		m.holder[key] = e.SAP
	case m.spec.Release:
		holder, held := m.holder[key]
		if !held {
			ev := e
			return &ViolationError{
				Constraint: m.spec.ConstraintName,
				Event:      &ev,
				Detail:     fmt.Sprintf("release of %q which is not held", key),
			}
		}
		if holder != e.SAP {
			ev := e
			return &ViolationError{
				Constraint: m.spec.ConstraintName,
				Event:      &ev,
				Detail:     fmt.Sprintf("release of %q by %s but holder is %s", key, e.SAP, holder),
			}
		}
		delete(m.holder, key)
	}
	return nil
}

func (m *mutexMonitor) AtEnd() error { return nil }
