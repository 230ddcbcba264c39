// Package lts implements labelled transition systems: the formal substrate
// the paper calls for in its conclusions ("a formal basis to develop
// techniques for testing or proving the correctness of service designs").
//
// A service specification induces an LTS over service-primitive labels
// (core.ServiceSpec.SafetyLTS); a protocol or middleware solution,
// executed in simulation, produces traces over the same labels.
// Conformance is trace inclusion: every recorded trace must be a trace of
// the service, which FirstRejected checks and, when it fails, locates.
package lts

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// ErrNoStates is returned when an operation requires a non-empty LTS.
var ErrNoStates = errors.New("lts: system has no states")

// State identifies a state within one LTS. States are dense indices
// assigned by the builder; state 0 is the initial state.
type State int

// edge is a labelled transition.
type edge struct {
	label string
	to    State
}

// LTS is an immutable labelled transition system. Build one with Builder.
type LTS struct {
	name  string
	names []string // state index → display name
	out   [][]edge // state index → ordered transitions
}

// Builder constructs an LTS incrementally.
type Builder struct {
	name   string
	names  []string
	out    [][]edge
	byName map[string]State
}

// NewBuilder returns a builder for a system with the given display name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, byName: make(map[string]State)}
}

// State returns the state with the given display name, creating it on first
// use. The first state ever created is the initial state.
func (b *Builder) State(name string) State {
	if s, ok := b.byName[name]; ok {
		return s
	}
	s := State(len(b.names))
	b.names = append(b.names, name)
	b.out = append(b.out, nil)
	b.byName[name] = s
	return s
}

// Transition adds an edge from → to with the given label.
func (b *Builder) Transition(from State, label string, to State) {
	b.out[from] = append(b.out[from], edge{label, to})
}

// Build freezes the builder into an immutable LTS. It returns ErrNoStates
// for an empty builder.
func (b *Builder) Build() (*LTS, error) {
	if len(b.names) == 0 {
		return nil, ErrNoStates
	}
	out := make([][]edge, len(b.out))
	for i, ts := range b.out {
		out[i] = slices.Clone(ts)
	}
	return &LTS{name: b.name, names: slices.Clone(b.names), out: out}, nil
}

// NumStates returns the number of states.
func (l *LTS) NumStates() int { return len(l.names) }

// NumTransitions returns the number of edges.
func (l *LTS) NumTransitions() int {
	n := 0
	for _, ts := range l.out {
		n += len(ts)
	}
	return n
}

// StateName returns the display name of a state.
func (l *LTS) StateName(s State) string {
	if int(s) < 0 || int(s) >= len(l.names) {
		return fmt.Sprintf("<invalid state %d>", int(s))
	}
	return l.names[s]
}

// Accepts reports whether trace is a trace of l: whether some run of l
// from the initial state exhibits it.
func (l *LTS) Accepts(trace []string) bool { return l.FirstRejected(trace) < 0 }

// FirstRejected returns the index of the first label of trace that no run
// of l exhibiting the labels before it can take, or -1 when l accepts the
// whole trace. trace[:i+1] is then a shortest counterexample.
func (l *LTS) FirstRejected(trace []string) int {
	set := []State{0}
	for i, label := range trace {
		var next []State
		for _, s := range set {
			for _, tr := range l.out[s] {
				if tr.label == label && !slices.Contains(next, tr.to) {
					next = append(next, tr.to)
				}
			}
		}
		if len(next) == 0 {
			return i
		}
		set = next
	}
	return -1
}

// String renders the LTS in a stable textual form useful in tests and
// golden files.
func (l *LTS) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "lts %q: %d states, %d transitions\n", l.name, l.NumStates(), l.NumTransitions())
	for s := range l.names {
		marker := " "
		if s == 0 {
			marker = ">"
		}
		fmt.Fprintf(&sb, "%s %s\n", marker, l.names[s])
		for _, tr := range l.out[s] {
			fmt.Fprintf(&sb, "    --%s--> %s\n", tr.label, l.names[tr.to])
		}
	}
	return sb.String()
}

// DOT renders the LTS in Graphviz dot format for visualization.
func (l *LTS) DOT() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=LR;\n", l.name)
	fmt.Fprintf(&sb, "  __start [shape=point];\n")
	for s := range l.names {
		fmt.Fprintf(&sb, "  s%d [label=%q, shape=circle];\n", s, l.names[s])
	}
	fmt.Fprintf(&sb, "  __start -> s0;\n")
	for s, ts := range l.out {
		for _, tr := range ts {
			fmt.Fprintf(&sb, "  s%d -> s%d [label=%q];\n", s, int(tr.to), tr.label)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
