package core

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/codec"
	"repro/internal/sim"
)

func capacitySpec(limit int) *ServiceSpec {
	return &ServiceSpec{
		Name: "k-shared",
		Primitives: []PrimitiveDef{
			{Name: "granted", Direction: ToUser, Params: []ParamDef{{Name: "resid", Kind: KindString}}},
			{Name: "free", Direction: FromUser, Params: []ParamDef{{Name: "resid", Kind: KindString}}},
		},
		Constraints: []Constraint{&Capacity{
			ConstraintName: "k-holders",
			Acquire:        "granted",
			Release:        "free",
			Key:            KeyParam("resid"),
			Limit:          limit,
		}},
	}
}

func TestCapacityAllowsUpToLimit(t *testing.T) {
	k := sim.NewKernel()
	obs, err := NewObserver(capacitySpec(2), k)
	if err != nil {
		t.Fatal(err)
	}
	params := rec(codec.Record{"resid": "r1"})
	if err := obs.Observe(sap("s1"), "granted", params); err != nil {
		t.Fatal(err)
	}
	if err := obs.Observe(sap("s2"), "granted", params); err != nil {
		t.Fatalf("second holder within capacity flagged: %v", err)
	}
	if err := obs.Observe(sap("s3"), "granted", params); err == nil {
		t.Fatal("third holder beyond capacity 2 not flagged")
	}
	// Release one; a new holder fits again.
	if err := obs.Observe(sap("s1"), "free", params); err != nil {
		t.Fatal(err)
	}
	if err := obs.Observe(sap("s4"), "granted", params); err != nil {
		t.Fatalf("holder after release flagged: %v", err)
	}
}

func TestCapacityDoubleAcquireSameSAP(t *testing.T) {
	k := sim.NewKernel()
	obs, err := NewObserver(capacitySpec(3), k)
	if err != nil {
		t.Fatal(err)
	}
	params := rec(codec.Record{"resid": "r1"})
	_ = obs.Observe(sap("s1"), "granted", params) //nolint:errcheck
	if err := obs.Observe(sap("s1"), "granted", params); err == nil {
		t.Fatal("double acquire by same SAP not flagged")
	}
}

func TestCapacityForeignRelease(t *testing.T) {
	k := sim.NewKernel()
	obs, err := NewObserver(capacitySpec(2), k)
	if err != nil {
		t.Fatal(err)
	}
	params := rec(codec.Record{"resid": "r1"})
	if err := obs.Observe(sap("s1"), "free", params); err == nil {
		t.Fatal("release without hold not flagged")
	}
}

func TestCapacityDistinctKeysIndependent(t *testing.T) {
	k := sim.NewKernel()
	obs, err := NewObserver(capacitySpec(1), k)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Observe(sap("s1"), "granted", rec(codec.Record{"resid": "r1"})); err != nil {
		t.Fatal(err)
	}
	if err := obs.Observe(sap("s2"), "granted", rec(codec.Record{"resid": "r2"})); err != nil {
		t.Fatalf("distinct key flagged: %v", err)
	}
}

func TestCapacityDescription(t *testing.T) {
	c := &Capacity{ConstraintName: "c", Acquire: "a", Release: "r", Key: KeyParam("k"), Limit: 3}
	if !strings.Contains(c.Description(), "3") {
		t.Fatalf("Description = %q", c.Description())
	}
	if c.Scope() != ScopeRemote {
		t.Fatal("capacity should be remote scope")
	}
	c.ConstraintDesc = "custom"
	if c.Description() != "custom" {
		t.Fatal("explicit description ignored")
	}
}

// Property: with limit k and any interleaving of grants over one key,
// the monitor flags exactly the grants that would exceed k concurrent
// holders (oracle: replay with a counter).
func TestPropertyCapacityOracle(t *testing.T) {
	prop := func(ops []bool, limitRaw uint8) bool {
		limit := int(limitRaw%3) + 1
		m := (&Capacity{
			ConstraintName: "cap", Acquire: "acq", Release: "rel",
			Key: KeyParam("k"), Limit: limit,
		}).NewMonitor()
		holders := map[string]bool{}
		nextSAP := 0
		for _, isAcquire := range ops {
			if isAcquire {
				id := SAP{Role: "r", ID: string(rune('a' + nextSAP%26))}
				nextSAP++
				e := Event{SAP: id, Primitive: "acq", Params: rec(codec.Record{"k": "x"})}
				err := m.Observe(e)
				wantErr := holders[id.ID] || len(holders) >= limit
				if (err != nil) != wantErr {
					return false
				}
				if err == nil {
					holders[id.ID] = true
				}
			} else {
				// Release an arbitrary holder if any.
				var victim string
				for h := range holders {
					victim = h
					break
				}
				if victim == "" {
					continue
				}
				e := Event{SAP: SAP{Role: "r", ID: victim}, Primitive: "rel", Params: rec(codec.Record{"k": "x"})}
				if err := m.Observe(e); err != nil {
					return false
				}
				delete(holders, victim)
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func deadlineSpec(within time.Duration) *ServiceSpec {
	return &ServiceSpec{
		Name: "timed",
		Primitives: []PrimitiveDef{
			{Name: "request", Direction: FromUser, Params: []ParamDef{{Name: "resid", Kind: KindString}}},
			{Name: "granted", Direction: ToUser, Params: []ParamDef{{Name: "resid", Kind: KindString}}},
		},
		Constraints: []Constraint{&Deadline{
			ConstraintName: "grant-deadline",
			ScopeKind:      ScopeLocal,
			Trigger:        "request",
			Response:       "granted",
			Key:            KeySAPAndParam("resid"),
			Within:         10 * time.Millisecond,
		}},
	}
}

func TestDeadlineMet(t *testing.T) {
	k := sim.NewKernel()
	obs, err := NewObserver(deadlineSpec(10*time.Millisecond), k)
	if err != nil {
		t.Fatal(err)
	}
	params := rec(codec.Record{"resid": "r1"})
	k.Schedule(0, func() { _ = obs.Observe(sap("s1"), "request", params) })                  //nolint:errcheck
	k.Schedule(5*time.Millisecond, func() { _ = obs.Observe(sap("s1"), "granted", params) }) //nolint:errcheck
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := obs.Complete(); err != nil {
		t.Fatalf("timely response flagged: %v", err)
	}
}

func TestDeadlineMissed(t *testing.T) {
	k := sim.NewKernel()
	obs, err := NewObserver(deadlineSpec(10*time.Millisecond), k)
	if err != nil {
		t.Fatal(err)
	}
	params := rec(codec.Record{"resid": "r1"})
	k.Schedule(0, func() { _ = obs.Observe(sap("s1"), "request", params) })                   //nolint:errcheck
	k.Schedule(25*time.Millisecond, func() { _ = obs.Observe(sap("s1"), "granted", params) }) //nolint:errcheck
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	verr := obs.Complete()
	if verr == nil {
		t.Fatal("late response not flagged")
	}
	v, ok := AsViolation(verr)
	if !ok || v.Constraint != "grant-deadline" {
		t.Fatalf("violation = %v", verr)
	}
}

func TestDeadlineExpiredPendingAtEnd(t *testing.T) {
	k := sim.NewKernel()
	obs, err := NewObserver(deadlineSpec(10*time.Millisecond), k)
	if err != nil {
		t.Fatal(err)
	}
	params := rec(codec.Record{"resid": "r1"})
	k.Schedule(0, func() { _ = obs.Observe(sap("s1"), "request", params) }) //nolint:errcheck
	// A later unrelated event moves the monitor's clock past the deadline.
	k.Schedule(50*time.Millisecond, func() {
		_ = obs.Observe(sap("s2"), "request", rec(codec.Record{"resid": "r2"})) //nolint:errcheck
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	verr := obs.Complete()
	if verr == nil {
		t.Fatal("expired pending trigger not flagged at end")
	}
	if v, ok := AsViolation(verr); !ok || v.Event != nil {
		t.Fatalf("want end-of-trace violation, got %v", verr)
	}
}

func TestDeadlineEndReportDeterministic(t *testing.T) {
	var want string
	for i := 0; i < 20; i++ {
		k := sim.NewKernel()
		obs, err := NewObserver(deadlineSpec(10*time.Millisecond), k)
		if err != nil {
			t.Fatal(err)
		}
		k.Schedule(0, func() {
			for _, s := range []string{"s4", "s2", "s8", "s6"} {
				for _, r := range []string{"r3", "r1"} {
					_ = obs.Observe(sap(s), "request", rec(codec.Record{"resid": r})) //nolint:errcheck
				}
			}
		})
		k.Schedule(50*time.Millisecond, func() {
			_ = obs.Observe(sap("s9"), "request", rec(codec.Record{"resid": "r9"})) //nolint:errcheck
		})
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprint(obs.Complete())
		if !strings.Contains(got, `key "subscriber:s2/r1"`) {
			t.Fatalf("run %d reports %s; want the smallest overdue key subscriber:s2/r1", i, got)
		}
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("run %d: %s\nrun 0: %s", i, got, want)
		}
	}
}

func TestDeadlineUnmatchedResponseIgnored(t *testing.T) {
	k := sim.NewKernel()
	obs, err := NewObserver(deadlineSpec(10*time.Millisecond), k)
	if err != nil {
		t.Fatal(err)
	}
	// Response without trigger: Deadline leaves this to Precedes.
	if err := obs.Observe(sap("s1"), "granted", rec(codec.Record{"resid": "r1"})); err != nil {
		t.Fatalf("unmatched response flagged by deadline: %v", err)
	}
}

func TestDeadlineDescriptionAndScope(t *testing.T) {
	d := &Deadline{ConstraintName: "d", ScopeKind: ScopeLocal, Trigger: "a", Response: "b", Key: KeyParam("k"), Within: time.Second}
	if !strings.Contains(d.Description(), "1s") {
		t.Fatalf("Description = %q", d.Description())
	}
	if d.Scope() != ScopeLocal {
		t.Fatal("scope not honoured")
	}
	d.ConstraintDesc = "custom"
	if d.Description() != "custom" {
		t.Fatal("explicit description ignored")
	}
}

// TestWorkloadMeetsDeadline closes the loop with the floor-control shape:
// a spec extended with a generous Deadline passes a real workload. (The
// full integration lives in internal/floorcontrol; this keeps core
// self-contained with a hand trace.)
func TestDeadlineFIFOPerKey(t *testing.T) {
	k := sim.NewKernel()
	obs, err := NewObserver(deadlineSpec(10*time.Millisecond), k)
	if err != nil {
		t.Fatal(err)
	}
	params := rec(codec.Record{"resid": "r1"})
	// Two requests, two responses: FIFO matching means the first response
	// answers the first request.
	k.Schedule(0, func() { _ = obs.Observe(sap("s1"), "request", params) })                   //nolint:errcheck
	k.Schedule(8*time.Millisecond, func() { _ = obs.Observe(sap("s1"), "granted", params) })  //nolint:errcheck
	k.Schedule(9*time.Millisecond, func() { _ = obs.Observe(sap("s1"), "request", params) })  //nolint:errcheck
	k.Schedule(15*time.Millisecond, func() { _ = obs.Observe(sap("s1"), "granted", params) }) //nolint:errcheck
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := obs.Complete(); err != nil {
		t.Fatalf("FIFO-matched timely responses flagged: %v", err)
	}
}

func TestAbsenceConstraint(t *testing.T) {
	spec := &ServiceSpec{
		Name: "held",
		Primitives: []PrimitiveDef{
			{Name: "request", Direction: FromUser, Params: []ParamDef{{Name: "resid", Kind: KindString}}},
			{Name: "granted", Direction: ToUser, Params: []ParamDef{{Name: "resid", Kind: KindString}}},
			{Name: "free", Direction: FromUser, Params: []ParamDef{{Name: "resid", Kind: KindString}}},
		},
		Constraints: []Constraint{&Absence{
			ConstraintName: "no-request-while-held",
			ScopeKind:      ScopeLocal,
			Open:           "granted",
			Close:          "free",
			Forbidden:      "request",
			Key:            KeySAPAndParam("resid"),
		}},
	}
	k := sim.NewKernel()
	obs, err := NewObserver(spec, k)
	if err != nil {
		t.Fatal(err)
	}
	params := rec(codec.Record{"resid": "r1"})
	for _, prim := range []string{"request", "granted"} {
		if err := obs.Observe(sap("s1"), prim, params); err != nil {
			t.Fatalf("%s flagged: %v", prim, err)
		}
	}
	// Re-request while held: violation.
	if err := obs.Observe(sap("s1"), "request", params); err == nil {
		t.Fatal("request during held interval not flagged")
	}
	// Different SAP or resource during the interval: allowed (local key).
	if err := obs.Observe(sap("s2"), "request", params); err != nil {
		t.Fatalf("other SAP flagged: %v", err)
	}
	if err := obs.Observe(sap("s1"), "request", rec(codec.Record{"resid": "r2"})); err != nil {
		t.Fatalf("other resource flagged: %v", err)
	}
	// Close the interval; request is fine again.
	if err := obs.Observe(sap("s1"), "free", params); err != nil {
		t.Fatal(err)
	}
	if err := obs.Observe(sap("s1"), "request", params); err != nil {
		t.Fatalf("request after free flagged: %v", err)
	}
}

func TestAbsenceDescriptionAndScope(t *testing.T) {
	a := &Absence{ConstraintName: "a", ScopeKind: ScopeRemote, Open: "o", Close: "c", Forbidden: "f", Key: KeyParam("k")}
	if !strings.Contains(a.Description(), "must not occur") {
		t.Fatalf("Description = %q", a.Description())
	}
	if a.Scope() != ScopeRemote {
		t.Fatal("scope not honoured")
	}
	a.ConstraintDesc = "custom"
	if a.Description() != "custom" {
		t.Fatal("explicit description ignored")
	}
}
