package core

import (
	"fmt"
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
	return &capacityMonitor{spec: c, holders: make(map[Key]map[SAP]struct{})}
}

type capacityMonitor struct {
	spec    *Capacity
	holders map[Key]map[SAP]struct{}
}

func (m *capacityMonitor) Observe(e Event) error {
	key, ok := m.spec.Key(e)
	if !ok {
		return nil
	}
	switch e.Primitive {
	case m.spec.Acquire:
		set := m.holders[key]
		if set == nil {
			set = make(map[SAP]struct{})
			m.holders[key] = set
		}
		if _, already := set[e.SAP]; already {
			ev := e
			return &ViolationError{
				Constraint: m.spec.ConstraintName,
				Event:      &ev,
				Detail:     fmt.Sprintf("%s already holds key %q", e.SAP, key),
			}
		}
		if len(set) >= m.spec.Limit {
			ev := e
			return &ViolationError{
				Constraint: m.spec.ConstraintName,
				Event:      &ev,
				Detail:     fmt.Sprintf("capacity %d exceeded for key %q", m.spec.Limit, key),
			}
		}
		set[e.SAP] = struct{}{}
	case m.spec.Release:
		set := m.holders[key]
		if _, holds := set[e.SAP]; !holds {
			ev := e
			return &ViolationError{
				Constraint: m.spec.ConstraintName,
				Event:      &ev,
				Detail:     fmt.Sprintf("%s releases key %q it does not hold", e.SAP, key),
			}
		}
		delete(set, e.SAP)
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
	return &deadlineMonitor{spec: d, pending: make(map[Key][]time.Duration)}
}

type deadlineMonitor struct {
	spec    *Deadline
	pending map[Key][]time.Duration
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
		m.pending[key] = append(m.pending[key], e.At)
	case m.spec.Response:
		q := m.pending[key]
		if len(q) == 0 {
			return nil // unmatched response: Precedes' business, not ours
		}
		started := q[0]
		m.pending[key] = q[1:]
		if elapsed := e.At - started; elapsed > m.spec.Within {
			ev := e
			return &ViolationError{
				Constraint: m.spec.ConstraintName,
				Event:      &ev,
				Detail:     fmt.Sprintf("response after %v, deadline %v (key %q)", elapsed, m.spec.Within, key),
			}
		}
	}
	return nil
}

func (m *deadlineMonitor) AtEnd() error {
	// A key's queue is FIFO in trigger time, so its head is its oldest
	// trigger: the key is overdue exactly when its head is.
	key, q, ok := minKey(m.pending, func(q []time.Duration) bool {
		return len(q) > 0 && m.last-q[0] > m.spec.Within
	})
	if !ok {
		return nil
	}
	started := q[0]
	return &ViolationError{
		Constraint: m.spec.ConstraintName,
		Detail: fmt.Sprintf("trigger at %v for key %q still unanswered %v past its deadline",
			started, key, m.last-started-m.spec.Within),
	}
}
