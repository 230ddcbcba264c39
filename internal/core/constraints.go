package core

import (
	"fmt"

	"repro/internal/codec"
)

// Key is a correlation key: a parameter value, optionally scoped to the
// SAP where the event occurred. Monitors index their state by its dense
// id (see keyTable), so no per-event string is built or hashed per
// monitor.
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

// keyParam is the string parameter a KeyFunc correlates by, with the
// one-field record schema that reads it where no declared parameter's
// slot does: outside an observer, or for a name the event's primitive
// does not declare.
type keyParam struct {
	name   string
	schema *codec.Schema
}

func newKeyParam(name string) *keyParam {
	return &keyParam{name: name, schema: codec.CompileRecord(name)}
}

// keySlot is the slot of a keyParam's one field.
const keySlot codec.Slot = 0

// KeyParam correlates events by one string parameter (e.g. "resid").
func KeyParam(param string) KeyFunc {
	p := newKeyParam(param)
	return func(e Event) (Key, bool) {
		s, ok := e.str(p)
		return Key{Value: s}, ok
	}
}

// KeySAPAndParam correlates events by SAP plus one string parameter, the
// usual shape of the paper's *local* constraints ("for a given resource
// identification", at a given access point).
func KeySAPAndParam(param string) KeyFunc {
	p := newKeyParam(param)
	return func(e Event) (Key, bool) {
		s, ok := e.str(p)
		return Key{SAP: e.SAP, Value: s}, ok
	}
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
	return &precedesMonitor{spec: p}
}

type precedesMonitor struct {
	spec *Precedes
	keyed
	pending []int32 // key id → unmatched triggers
}

//repolint:hotpath
func (m *precedesMonitor) Observe(e Event) error {
	switch e.Primitive {
	case m.spec.Trigger:
		key, ok := m.spec.Key(e)
		if !ok {
			return nil
		}
		id := m.id(&e, key)
		n := at(&m.pending, id)
		if !m.spec.AllowPendingMany && *n > 0 {
			return violation(m.spec.ConstraintName, e, "%s re-issued while already pending for key %q", m.spec.Trigger, key) //repolint:allow alloc -- cold: a violation
		}
		if *n == 0 {
			m.hold(id)
		}
		*n++
	case m.spec.Enabled:
		key, ok := m.spec.Key(e)
		if !ok {
			return nil
		}
		id := m.id(&e, key)
		n := at(&m.pending, id)
		if *n == 0 {
			return violation(m.spec.ConstraintName, e, "%s without prior %s for key %q", m.spec.Enabled, m.spec.Trigger, key) //repolint:allow alloc -- cold: a violation
		}
		if !m.spec.NonConsuming && release(n) {
			m.drop(id)
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
	return &eventuallyMonitor{spec: f}
}

type eventuallyMonitor struct {
	spec *EventuallyFollows
	keyed
	pending []int32 // key id → triggers not yet followed
}

//repolint:hotpath
func (m *eventuallyMonitor) Observe(e Event) error {
	switch e.Primitive {
	case m.spec.Trigger:
		if key, ok := m.spec.Key(e); ok {
			id := m.id(&e, key)
			n := at(&m.pending, id)
			if *n == 0 {
				m.hold(id)
			}
			*n++
		}
	case m.spec.Response:
		if key, ok := m.spec.Key(e); ok {
			if id := m.id(&e, key); release(at(&m.pending, id)) {
				m.drop(id)
			}
		}
	}
	return nil
}

func (m *eventuallyMonitor) AtEnd() error {
	id, ok := minKeyID(m.keys, m.pending, func(n int32) bool { return n > 0 })
	if !ok {
		return nil
	}
	return &ViolationError{
		Constraint: m.spec.ConstraintName,
		Detail: fmt.Sprintf("%d %s(s) for key %q never followed by %s",
			m.pending[id], m.spec.Trigger, m.keys.keys[id], m.spec.Response),
	}
}

// release decrements a key's count if it has any, and reports whether
// the key drained.
func release(n *int32) bool {
	if *n == 0 {
		return false
	}
	*n--
	return *n == 0
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
	return &mutexMonitor{spec: x}
}

type mutexMonitor struct {
	spec *MutualExclusion
	keyed
	holder []holding // key id → its holder
}

// holding is a key's holder, when held.
type holding struct {
	sap  SAP
	held bool
}

//repolint:hotpath
func (m *mutexMonitor) Observe(e Event) error {
	key, ok := m.spec.Key(e)
	if !ok {
		return nil
	}
	switch e.Primitive {
	case m.spec.Acquire:
		id := m.id(&e, key)
		h := at(&m.holder, id)
		if h.held {
			return violation(m.spec.ConstraintName, e, "resource %q already held by %s", key, h.sap) //repolint:allow alloc -- cold: a violation
		}
		*h = holding{sap: e.SAP, held: true}
		m.hold(id)
	case m.spec.Release:
		id := m.id(&e, key)
		h := at(&m.holder, id)
		if !h.held {
			return violation(m.spec.ConstraintName, e, "release of %q which is not held", key) //repolint:allow alloc -- cold: a violation
		}
		if h.sap != e.SAP {
			return violation(m.spec.ConstraintName, e, "release of %q by %s but holder is %s", key, e.SAP, h.sap) //repolint:allow alloc -- cold: a violation
		}
		*h = holding{}
		m.drop(id)
	}
	return nil
}

// violation reports constraint violated at event e, which it retains.
func violation(constraint string, e Event, format string, args ...any) error {
	return &ViolationError{Constraint: constraint, Event: &e, Detail: fmt.Sprintf(format, args...)}
}

func (m *mutexMonitor) AtEnd() error { return nil }
