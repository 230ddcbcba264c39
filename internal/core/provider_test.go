package core

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/sim"
)

// stubProvider records what reaches it and lets a test deliver to the
// attached handler. obs is read at each forward, to check ordering.
type stubProvider struct {
	obs       *Observer
	submitted []string
	seenAt    []int // obs.EventCount() when each Submit arrived
	handler   func(string, codec.Record)
}

func (p *stubProvider) Submit(_ SAP, primitive string, _ codec.Record) error {
	p.submitted = append(p.submitted, primitive)
	p.seenAt = append(p.seenAt, p.obs.EventCount())
	return nil
}

func (p *stubProvider) Attach(_ SAP, handler func(string, codec.Record)) { p.handler = handler }

func TestObserverProviderObservesBothDirections(t *testing.T) {
	obs, err := NewObserver(testSpec(), sim.NewKernel())
	if err != nil {
		t.Fatal(err)
	}
	inner := &stubProvider{obs: obs}
	p := obs.Provider(inner)

	// Submit: observed first, then forwarded.
	if err := p.Submit(sap("s1"), "request", codec.Record{"resid": "r1"}); err != nil {
		t.Fatal(err)
	}
	if len(inner.submitted) != 1 || inner.seenAt[0] != 1 {
		t.Fatalf("submitted %v at event counts %v, want [request] at [1]", inner.submitted, inner.seenAt)
	}

	// Delivery: observed before the user part's handler runs.
	var handled []string
	var countInHandler int
	p.Attach(sap("s1"), func(prim string, _ codec.Record) {
		handled = append(handled, prim)
		countInHandler = obs.EventCount()
	})
	inner.handler("granted", codec.Record{"resid": "r1"})
	if len(handled) != 1 || handled[0] != "granted" || countInHandler != 2 {
		t.Fatalf("handled %v with event count %d, want [granted] at 2", handled, countInHandler)
	}
	if err := obs.Err(); err != nil {
		t.Fatalf("conforming exchange reported %v", err)
	}
}

func TestObserverProviderDoesNotVeto(t *testing.T) {
	obs, err := NewObserver(testSpec(), sim.NewKernel())
	if err != nil {
		t.Fatal(err)
	}
	inner := &stubProvider{obs: obs}
	// free before any grant violates free-follows-granted: the primitive
	// is still forwarded, and the violation surfaces through Err.
	if err := obs.Provider(inner).Submit(sap("s1"), "free", codec.Record{"resid": "r1"}); err != nil {
		t.Fatalf("Submit = %v, want the inner provider's nil", err)
	}
	if len(inner.submitted) != 1 || inner.submitted[0] != "free" {
		t.Fatalf("violating Submit not forwarded: %v", inner.submitted)
	}
	v, ok := AsViolation(obs.Err())
	if !ok || v.Constraint != "free-follows-granted" {
		t.Fatalf("Err() = %v, want a free-follows-granted violation", obs.Err())
	}
}
