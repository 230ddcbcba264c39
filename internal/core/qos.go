package core

import (
	"fmt"
	"slices"
	"time"
)

// Capacity generalizes mutual exclusion to k concurrent holders: at most
// Limit distinct SAPs may be between Acquire and Release for the same key
// at once. Limit 1 is MutualExclusion without the holder identity checks.
// The paper's §5 argues QoS-like aspects of interactions deserve separate,
// explicit treatment; Capacity is the simplest such resource-sharing
// policy.
type Capacity struct {
	ConstraintName string
	ConstraintDesc string
	Acquire        string
	Release        string
	Key            KeyFunc
	Limit          int
}

var _ Constraint = (*Capacity)(nil)

// Name implements Constraint.
func (c *Capacity) Name() string { return c.ConstraintName }

// Scope implements Constraint: capacity is inherently remote.
func (c *Capacity) Scope() Scope { return ScopeRemote }

// Description implements Constraint.
func (c *Capacity) Description() string {
	if c.ConstraintDesc != "" {
		return c.ConstraintDesc
	}
	return fmt.Sprintf("at most %d SAPs may hold the same key between %s and %s", c.Limit, c.Acquire, c.Release)
}

// NewMonitor implements Constraint.
func (c *Capacity) NewMonitor() Monitor {
	return &capacityMonitor{spec: c}
}

type capacityMonitor struct {
	spec *Capacity
	keyed
	holders [][]SAP // key id → the SAPs holding it (at most Limit)
}

func (m *capacityMonitor) Observe(e Event) error {
	key, ok := m.spec.Key(e)
	if !ok {
		return nil
	}
	id := m.id(&e, key)
	set := at(&m.holders, id)
	i := slices.Index(*set, e.SAP)
	switch e.Primitive {
	case m.spec.Acquire:
		if i >= 0 {
			return violation(m.spec.ConstraintName, e, "%s already holds key %q", e.SAP, key)
		}
		if len(*set) >= m.spec.Limit {
			return violation(m.spec.ConstraintName, e, "capacity %d exceeded for key %q", m.spec.Limit, key)
		}
		if len(*set) == 0 {
			m.hold(id)
		}
		*set = append(*set, e.SAP)
	case m.spec.Release:
		if i < 0 {
			return violation(m.spec.ConstraintName, e, "%s releases key %q it does not hold", e.SAP, key)
		}
		if *set = slices.Delete(*set, i, i+1); len(*set) == 0 {
			m.drop(id)
		}
	}
	return nil
}

func (m *capacityMonitor) AtEnd() error { return nil }

// Deadline is a timed constraint: every Response must follow its matching
// Trigger (same key, same SAP, FIFO per key) within Within of virtual
// time. Liveness (that a response comes at all) remains the job of
// EventuallyFollows; Deadline flags responses that come too late, and, at
// the end of the observation window, triggers whose deadline had already
// expired unanswered.
type Deadline struct {
	ConstraintName string
	ConstraintDesc string
	ScopeKind      Scope
	Trigger        string
	Response       string
	Key            KeyFunc
	Within         time.Duration
}

var _ Constraint = (*Deadline)(nil)

// Name implements Constraint.
func (d *Deadline) Name() string { return d.ConstraintName }

// Scope implements Constraint.
func (d *Deadline) Scope() Scope { return d.ScopeKind }

// Description implements Constraint.
func (d *Deadline) Description() string {
	if d.ConstraintDesc != "" {
		return d.ConstraintDesc
	}
	return fmt.Sprintf("%s follows %s within %v (same key)", d.Response, d.Trigger, d.Within)
}

// NewMonitor implements Constraint.
func (d *Deadline) NewMonitor() Monitor {
	return &deadlineMonitor{spec: d}
}

type deadlineMonitor struct {
	spec *Deadline
	keyed
	pending [][]time.Duration // key id → its unanswered triggers, oldest first
	last    time.Duration
}

func (m *deadlineMonitor) Observe(e Event) error {
	if e.At > m.last {
		m.last = e.At
	}
	key, ok := m.spec.Key(e)
	if !ok {
		return nil
	}
	switch e.Primitive {
	case m.spec.Trigger:
		id := m.id(&e, key)
		q := at(&m.pending, id)
		if len(*q) == 0 {
			m.hold(id)
		}
		*q = append(*q, e.At)
	case m.spec.Response:
		id := m.id(&e, key)
		q := at(&m.pending, id)
		if len(*q) == 0 {
			return nil // unmatched response: Precedes' business, not ours
		}
		started := (*q)[0]
		if *q = (*q)[1:]; len(*q) == 0 {
			m.drop(id)
		}
		if elapsed := e.At - started; elapsed > m.spec.Within {
			return violation(m.spec.ConstraintName, e, "response after %v, deadline %v (key %q)", elapsed, m.spec.Within, key)
		}
	}
	return nil
}

func (m *deadlineMonitor) AtEnd() error {
	// A key's queue is FIFO in trigger time, so its head is its oldest
	// trigger: the key is overdue exactly when its head is.
	id, ok := minKeyID(m.keys, m.pending, func(q []time.Duration) bool {
		return len(q) > 0 && m.last-q[0] > m.spec.Within
	})
	if !ok {
		return nil
	}
	started := m.pending[id][0]
	return &ViolationError{
		Constraint: m.spec.ConstraintName,
		Detail: fmt.Sprintf("trigger at %v for key %q still unanswered %v past its deadline",
			started, m.keys.keys[id], m.last-started-m.spec.Within),
	}
}
