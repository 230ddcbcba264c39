package lts

import (
	"errors"
	"strings"
	"testing"
)

// build is Builder.Build for statically correct construction.
func build(b *Builder) *LTS {
	l, err := b.Build()
	if err != nil {
		panic(err)
	}
	return l
}

// simpleSpec builds the canonical request→granted→free cycle over one
// resource — the skeleton of the floor-control service behaviour.
func simpleSpec() *LTS {
	b := NewBuilder("spec")
	idle := b.State("idle")
	requested := b.State("requested")
	held := b.State("held")
	b.Transition(idle, "request", requested)
	b.Transition(requested, "granted", held)
	b.Transition(held, "free", idle)
	return build(b)
}

func TestBuilderBasics(t *testing.T) {
	l := simpleSpec()
	if l.NumStates() != 3 || l.NumTransitions() != 3 {
		t.Fatalf("states=%d transitions=%d", l.NumStates(), l.NumTransitions())
	}
	if l.StateName(0) != "idle" {
		t.Fatalf("initial = %q", l.StateName(0))
	}
}

func TestBuilderStateDedup(t *testing.T) {
	b := NewBuilder("x")
	s1 := b.State("a")
	s2 := b.State("a")
	if s1 != s2 {
		t.Fatal("same name produced distinct states")
	}
}

func TestEmptyBuilder(t *testing.T) {
	if _, err := NewBuilder("empty").Build(); !errors.Is(err, ErrNoStates) {
		t.Fatalf("err = %v, want ErrNoStates", err)
	}
}

func TestStateNameOutOfRange(t *testing.T) {
	l := simpleSpec()
	if got := l.StateName(State(99)); !strings.Contains(got, "invalid") {
		t.Fatalf("StateName(99) = %q", got)
	}
}

func TestAccepts(t *testing.T) {
	l := simpleSpec()
	tests := []struct {
		trace []string
		want  bool
	}{
		{nil, true},
		{[]string{"request"}, true},
		{[]string{"request", "granted"}, true},
		{[]string{"request", "granted", "free"}, true},
		{[]string{"request", "granted", "free", "request"}, true},
		{[]string{"granted"}, false},
		{[]string{"request", "free"}, false},
		{[]string{"request", "request"}, false},
		{[]string{"unknown"}, false},
	}
	for _, tt := range tests {
		if got := l.Accepts(tt.trace); got != tt.want {
			t.Errorf("Accepts(%v) = %v, want %v", tt.trace, got, tt.want)
		}
	}
}

// The TraceRefines tests check a recorded trace against a specification:
// the trace refines it when FirstRejected finds no label the specification
// cannot take, and otherwise FirstRejected is the length of the shortest
// rejected prefix minus one — the counterexample a failed check reports.

func TestTraceRefinesHolds(t *testing.T) {
	spec := simpleSpec()
	trace := []string{"request", "granted", "free", "request", "granted"}
	if got := spec.FirstRejected(trace); got != -1 {
		t.Fatalf("FirstRejected(%v) = %d, want -1 (refinement holds)", trace, got)
	}
	if got := spec.FirstRejected(nil); got != -1 {
		t.Fatalf("FirstRejected(nil) = %d, want -1", got)
	}
}

func TestTraceRefinesCounterexample(t *testing.T) {
	spec := simpleSpec()
	// A grant without a request.
	trace := []string{"granted", "free"}
	got := spec.FirstRejected(trace)
	if got != 0 || trace[got] != "granted" {
		t.Fatalf("FirstRejected(%v) = %d, want 0 (granted)", trace, got)
	}
}

func TestTraceRefinesShortestCounterexample(t *testing.T) {
	spec := simpleSpec()
	// A long valid prefix, then a double free at index 3; the later
	// double request at index 5 is not reported.
	trace := []string{"request", "granted", "free", "free", "request", "request"}
	if got := spec.FirstRejected(trace); got != 3 {
		t.Fatalf("FirstRejected(%v) = %d, want 3 (shortest rejected prefix)", trace, got)
	}
}

func TestTraceRefinesWithNondeterministicSpec(t *testing.T) {
	// Spec: after "a", either "b" or "c" depending on an invisible choice.
	sb := NewBuilder("ndspec")
	s0, s1, s2, s3 := sb.State("0"), sb.State("1"), sb.State("2"), sb.State("3")
	sb.Transition(s0, "a", s1)
	sb.Transition(s0, "a", s2)
	sb.Transition(s1, "b", s3)
	sb.Transition(s2, "c", s3)
	sb.Transition(s3, "a", s1)
	sb.Transition(s3, "a", s2)
	spec := build(sb)
	tests := []struct {
		trace []string
		want  int
	}{
		{[]string{"a", "c"}, -1},
		{[]string{"a", "b", "a", "c"}, -1},
		{[]string{"a", "b", "c"}, 2},
		{[]string{"a", "c", "a", "d"}, 3},
	}
	for _, tt := range tests {
		if got := spec.FirstRejected(tt.trace); got != tt.want {
			t.Errorf("FirstRejected(%v) = %d, want %d", tt.trace, got, tt.want)
		}
	}
}

func TestStringRendering(t *testing.T) {
	s := simpleSpec().String()
	for _, want := range []string{"lts \"spec\"", "> idle", "--request-->"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestDOT(t *testing.T) {
	dot := simpleSpec().DOT()
	for _, want := range []string{"digraph", "rankdir=LR", `label="request"`, `label="idle"`, "__start -> s0"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
}
