package core

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/lts"
)

// SafetyLTS compiles the safety constraints of s into the LTS of every
// primitive sequence they allow, for a finite deployment: the SAPs given
// and, for each string parameter, the values it ranges over. Its labels
// are Event.Label's, so a recorded trace is checked against it as it is.
//
// Each of Precedes, MutualExclusion, Absence and Capacity keeps a small
// cell of state per key, the key found by the constraint's own KeyFunc
// on every event of the alphabet; a state of the LTS is the cells of all
// of them, explored breadth-first from all zeros in a fixed order.
// EventuallyFollows and Deadline are liveness and timing, which a safety
// LTS leaves out. Any other constraint, a parameter that is not a string
// and a cell whose state does not stay bounded are errors.
func (s *ServiceSpec) SafetyLTS(name string, saps []SAP, values map[string][]string) (*lts.LTS, error) {
	if len(saps) >= unbounded {
		return nil, fmt.Errorf("core: %d SAPs, at most %d fit a cell", len(saps), unbounded-1)
	}
	var rules []*safetyRule
	for _, c := range s.Constraints {
		r, err := ruleOf(c, len(saps))
		if err != nil {
			return nil, err
		}
		if r != nil {
			rules = append(rules, r)
		}
	}
	events, err := s.alphabet(saps, values)
	if err != nil {
		return nil, err
	}

	// Give every (constraint, key) an event touches a cell, and record
	// the cells each event steps.
	type cellKey struct {
		rule *safetyRule
		key  Key
	}
	type cellStep struct {
		rule *safetyRule
		off  int
	}
	cells := make(map[cellKey]int)
	width := 0
	labels := make([]string, len(events))
	steps := make([][]cellStep, len(events))
	for i, e := range events {
		labels[i] = e.Label()
		for _, r := range rules {
			if !slices.Contains(r.prims, e.Primitive) {
				continue
			}
			key, ok := r.key(e)
			if !ok {
				continue
			}
			off, seen := cells[cellKey{r, key}]
			if !seen {
				off, width = width, width+r.width
				cells[cellKey{r, key}] = off
			}
			steps[i] = append(steps[i], cellStep{r, off})
		}
	}

	b := lts.NewBuilder(name)
	states := [][]byte{make([]byte, width)}
	b.State(fmt.Sprint(states[0]))
	for from := 0; from < len(states); from++ {
	eachEvent:
		for i, e := range events {
			next := slices.Clone(states[from])
			sap := byte(slices.Index(saps, e.SAP))
			for _, st := range steps[i] {
				if !st.rule.step(next[st.off:st.off+st.rule.width], e.Primitive, sap) {
					continue eachEvent
				}
			}
			if bytes.IndexByte(next, unbounded) >= 0 {
				return nil, fmt.Errorf("core: service %q: a constraint's state passes %d in this deployment", s.Name, unbounded-1)
			}
			to := b.State(fmt.Sprint(next))
			if int(to) == len(states) {
				states = append(states, next)
			}
			b.Transition(lts.State(from), labels[i], to)
		}
	}
	return b.Build()
}

// unbounded is the cell value SafetyLTS takes for a count that does not
// stay bounded.
const unbounded = 0xff

// safetyRule is how SafetyLTS encodes one safety constraint: its key, the
// width of its cells, the primitives it steps on, and the step, which
// applies primitive prim at the SAP numbered sap to a key's cell and
// reports whether the constraint allows it.
type safetyRule struct {
	key   KeyFunc
	width int
	prims []string
	step  func(cell []byte, prim string, sap byte) bool
}

// ruleOf encodes c for a deployment of nsap SAPs, nil for a constraint a
// safety LTS leaves out. Each step does what c's monitor does to the
// key's state.
func ruleOf(c Constraint, nsap int) (*safetyRule, error) {
	switch c := c.(type) {
	case *Precedes:
		// The cell is 1 while a trigger is pending. Without
		// AllowPendingMany a second trigger is a violation; with
		// NonConsuming only whether one is pending matters.
		if c.AllowPendingMany && !c.NonConsuming {
			return nil, fmt.Errorf("core: constraint %q: a count of pending %s is not bounded", c.ConstraintName, c.Trigger)
		}
		return &safetyRule{c.Key, 1, []string{c.Trigger, c.Enabled}, func(n []byte, prim string, _ byte) bool {
			switch {
			case prim == c.Trigger:
				if n[0] > 0 && !c.AllowPendingMany {
					return false
				}
				n[0] = 1
			case n[0] == 0:
				return false
			case !c.NonConsuming:
				n[0] = 0
			}
			return true
		}}, nil
	case *MutualExclusion:
		// The cell is the holder's number plus one, 0 when free.
		return &safetyRule{c.Key, 1, []string{c.Acquire, c.Release}, func(h []byte, prim string, sap byte) bool {
			if prim == c.Acquire {
				ok := h[0] == 0
				if ok {
					h[0] = sap + 1
				}
				return ok
			}
			ok := h[0] == sap+1
			if ok {
				h[0] = 0
			}
			return ok
		}}, nil
	case *Absence:
		// The cell counts open intervals.
		return &safetyRule{c.Key, 1, []string{c.Open, c.Close, c.Forbidden}, func(n []byte, prim string, _ byte) bool {
			switch prim {
			case c.Open:
				n[0]++
			case c.Close:
				n[0] -= min(n[0], 1)
			}
			return prim != c.Forbidden || prim == c.Open || n[0] == 0
		}}, nil
	case *Capacity:
		// The cell holds one byte per SAP, 1 while that SAP holds the key.
		return &safetyRule{c.Key, nsap, []string{c.Acquire, c.Release}, func(h []byte, prim string, sap byte) bool {
			held := h[sap] == 1
			if prim == c.Acquire {
				if held || bytes.Count(h, []byte{1}) >= c.Limit {
					return false
				}
				h[sap] = 1
				return true
			}
			h[sap] = 0
			return held
		}}, nil
	case *EventuallyFollows, *Deadline:
		return nil, nil
	}
	return nil, fmt.Errorf("core: constraint %q: %T has no safety LTS encoding", c.Name(), c)
}

// alphabet returns every event of s in the deployment: each primitive
// under each assignment of values to its parameters (in the schema's
// field order, the last varying fastest) at each SAP.
func (s *ServiceSpec) alphabet(saps []SAP, values map[string][]string) ([]Event, error) {
	for _, sap := range saps {
		if _, ok := s.Role(sap.Role); !ok && len(s.Roles) > 0 {
			return nil, fmt.Errorf("%w: %q (SAP %s)", ErrUnknownRole, sap.Role, sap)
		}
	}
	var events []Event
	for _, p := range s.Primitives {
		for _, param := range p.Params {
			if param.Kind != KindString {
				return nil, fmt.Errorf("core: primitive %q parameter %q: a %s has no values to range over", p.Name, param.Name, param.Kind)
			}
			if len(values[param.Name]) == 0 {
				return nil, fmt.Errorf("core: primitive %q parameter %q: no values given", p.Name, param.Name)
			}
		}
		schema := p.Schema()
		fields := schema.Fields()
		assign := make([]string, len(fields))
		var each func(i int)
		each = func(i int) {
			if i < len(fields) {
				for _, v := range values[fields[i]] {
					assign[i] = v
					each(i + 1)
				}
				return
			}
			enc := schema.Encoder(nil)
			for j, f := range fields {
				enc.Str(f, assign[j])
			}
			params, _ := enc.Finish() //nolint:errcheck // string fields in schema order always encode
			for _, sap := range saps {
				events = append(events, Event{SAP: sap, Primitive: p.Name, Params: params})
			}
		}
		each(0)
	}
	return events, nil
}
