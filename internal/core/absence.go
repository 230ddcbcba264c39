package core

import "fmt"

// Absence forbids an event during an interval: between Open and the
// matching Close (same key), Forbidden must not occur. In the
// floor-control service it encodes the cooperative-subscriber assumption
// that a holder does not re-request a resource it already holds.
type Absence struct {
	ConstraintName string
	ConstraintDesc string
	ScopeKind      Scope
	Open           string
	Close          string
	Forbidden      string
	Key            KeyFunc
}

var _ Constraint = (*Absence)(nil)

// Name implements Constraint.
func (a *Absence) Name() string { return a.ConstraintName }

// Scope implements Constraint.
func (a *Absence) Scope() Scope { return a.ScopeKind }

// Description implements Constraint.
func (a *Absence) Description() string {
	if a.ConstraintDesc != "" {
		return a.ConstraintDesc
	}
	return fmt.Sprintf("%s must not occur between %s and %s (same key)", a.Forbidden, a.Open, a.Close)
}

// NewMonitor implements Constraint.
func (a *Absence) NewMonitor() Monitor {
	return &absenceMonitor{spec: a}
}

type absenceMonitor struct {
	spec *Absence
	keyed
	open []int32 // key id → open intervals
}

//repolint:hotpath
func (m *absenceMonitor) Observe(e Event) error {
	key, ok := m.spec.Key(e)
	if !ok {
		return nil
	}
	id := m.id(&e, key)
	n := at(&m.open, id)
	switch e.Primitive {
	case m.spec.Open:
		if *n == 0 {
			m.hold(id)
		}
		*n++
	case m.spec.Close:
		if release(n) {
			m.drop(id)
		}
	}
	// The forbidden primitive may coincide with neither, either or both of
	// the delimiters; check after interval bookkeeping so that an opening
	// event that is itself forbidden is caught on re-entry only.
	if e.Primitive == m.spec.Forbidden && e.Primitive != m.spec.Open && *n > 0 {
		return violation(m.spec.ConstraintName, e, "%s during open %s/%s interval for key %q", m.spec.Forbidden, m.spec.Open, m.spec.Close, key) //repolint:allow alloc -- cold: a violation
	}
	return nil
}

func (m *absenceMonitor) AtEnd() error { return nil }
