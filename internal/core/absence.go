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
	return &absenceMonitor{spec: a, open: make(map[Key]int)}
}

type absenceMonitor struct {
	spec *Absence
	open map[Key]int
}

func (m *absenceMonitor) Observe(e Event) error {
	key, ok := m.spec.Key(e)
	if !ok {
		return nil
	}
	switch e.Primitive {
	case m.spec.Open:
		m.open[key]++
	case m.spec.Close:
		release(m.open, key)
	}
	// The forbidden primitive may coincide with neither, either or both of
	// the delimiters; check after interval bookkeeping so that an opening
	// event that is itself forbidden is caught on re-entry only.
	if e.Primitive == m.spec.Forbidden && e.Primitive != m.spec.Open && m.open[key] > 0 {
		ev := e
		return &ViolationError{
			Constraint: m.spec.ConstraintName,
			Event:      &ev,
			Detail:     fmt.Sprintf("%s during open %s/%s interval for key %q", m.spec.Forbidden, m.spec.Open, m.spec.Close, key),
		}
	}
	return nil
}

func (m *absenceMonitor) AtEnd() error { return nil }
