package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/sim"
)

// testSpec returns a floor-control-shaped specification, mirroring the
// paper's Figure 5.
func testSpec() *ServiceSpec {
	return &ServiceSpec{
		Name:        "floor-control",
		Description: "coordinated exclusive access to named resources",
		Roles:       []RoleDef{{Name: "subscriber", Min: 2}},
		Primitives: []PrimitiveDef{
			{Name: "request", Direction: FromUser, Params: []ParamDef{{Name: "resid", Kind: KindString}}},
			{Name: "granted", Direction: ToUser, Params: []ParamDef{{Name: "resid", Kind: KindString}}},
			{Name: "free", Direction: FromUser, Params: []ParamDef{{Name: "resid", Kind: KindString}}},
		},
		Constraints: []Constraint{
			&Precedes{
				ConstraintName: "granted-follows-request",
				ScopeKind:      ScopeLocal,
				Trigger:        "request",
				Enabled:        "granted",
				Key:            KeySAPAndParam("resid"),
			},
			&Precedes{
				ConstraintName: "free-follows-granted",
				ScopeKind:      ScopeLocal,
				Trigger:        "granted",
				Enabled:        "free",
				Key:            KeySAPAndParam("resid"),
			},
			&MutualExclusion{
				ConstraintName: "exclusive-grant",
				Acquire:        "granted",
				Release:        "free",
				Key:            KeyParam("resid"),
			},
			&EventuallyFollows{
				ConstraintName: "request-eventually-granted",
				ScopeKind:      ScopeLocal,
				Trigger:        "request",
				Response:       "granted",
				Key:            KeySAPAndParam("resid"),
			},
		},
	}
}

func sap(id string) SAP { return SAP{Role: "subscriber", ID: id} }

func TestSpecValidate(t *testing.T) {
	if err := testSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestSpecValidateErrors(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*ServiceSpec)
		want   string
	}{
		{"unnamed service", func(s *ServiceSpec) { s.Name = "" }, "must be named"},
		{"no primitives", func(s *ServiceSpec) { s.Primitives = nil }, "no primitives"},
		{"dup primitive", func(s *ServiceSpec) { s.Primitives = append(s.Primitives, s.Primitives[0]) }, "twice"},
		{"unnamed primitive", func(s *ServiceSpec) { s.Primitives[0].Name = "" }, "unnamed primitive"},
		{"bad direction", func(s *ServiceSpec) { s.Primitives[0].Direction = 0 }, "invalid direction"},
		{"dup param", func(s *ServiceSpec) {
			s.Primitives[0].Params = append(s.Primitives[0].Params, s.Primitives[0].Params[0])
		}, "parameter"},
		{"dup role", func(s *ServiceSpec) { s.Roles = append(s.Roles, s.Roles[0]) }, "role"},
		{"unnamed role", func(s *ServiceSpec) { s.Roles[0].Name = "" }, "unnamed role"},
		{"role min>max", func(s *ServiceSpec) { s.Roles[0].Min = 5; s.Roles[0].Max = 2 }, "min 5 > max 2"},
		{"nil constraint", func(s *ServiceSpec) { s.Constraints = append(s.Constraints, nil) }, "nil constraint"},
		{"dup constraint", func(s *ServiceSpec) { s.Constraints = append(s.Constraints, s.Constraints[0]) }, "constraint"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := testSpec()
			tt.mutate(s)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("err = %v, want contains %q", err, tt.want)
			}
		})
	}
}

func TestPrimitiveAndRoleLookup(t *testing.T) {
	s := testSpec()
	if p, ok := s.Primitive("request"); !ok || p.Direction != FromUser {
		t.Fatalf("Primitive(request) = %+v, %v", p, ok)
	}
	if _, ok := s.Primitive("nope"); ok {
		t.Fatal("unknown primitive found")
	}
	if r, ok := s.Role("subscriber"); !ok || r.Min != 2 {
		t.Fatalf("Role(subscriber) = %+v, %v", r, ok)
	}
	if _, ok := s.Role("controller"); ok {
		t.Fatal("unknown role found")
	}
}

func TestCheckEvent(t *testing.T) {
	s := testSpec()
	good := Event{SAP: sap("s1"), Primitive: "request", Params: codec.Record{"resid": "r1"}}
	if err := s.CheckEvent(good); err != nil {
		t.Fatalf("good event rejected: %v", err)
	}
	tests := []struct {
		name string
		e    Event
		want error
	}{
		{"unknown primitive", Event{SAP: sap("s1"), Primitive: "steal", Params: codec.Record{}}, ErrUnknownPrimitive},
		{"unknown role", Event{SAP: SAP{Role: "martian", ID: "m"}, Primitive: "request", Params: codec.Record{"resid": "r"}}, ErrUnknownRole},
		{"missing param", Event{SAP: sap("s1"), Primitive: "request", Params: codec.Record{}}, ErrBadParams},
		{"extra param", Event{SAP: sap("s1"), Primitive: "request", Params: codec.Record{"resid": "r", "x": "y"}}, ErrBadParams},
		{"wrong kind", Event{SAP: sap("s1"), Primitive: "request", Params: codec.Record{"resid": int64(7)}}, ErrBadParams},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := s.CheckEvent(tt.e); !errors.Is(err, tt.want) {
				t.Fatalf("err = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestCheckKindAll(t *testing.T) {
	spec := &ServiceSpec{
		Name: "kinds",
		Primitives: []PrimitiveDef{{
			Name:      "p",
			Direction: FromUser,
			Params: []ParamDef{
				{Name: "s", Kind: KindString},
				{Name: "i", Kind: KindInt},
				{Name: "b", Kind: KindBool},
				{Name: "l", Kind: KindStringList},
			},
		}},
	}
	e := Event{SAP: SAP{Role: "r", ID: "1"}, Primitive: "p", Params: codec.Record{
		"s": "x", "i": int64(3), "b": true, "l": codec.StringList([]string{"a"}),
	}}
	if err := spec.CheckEvent(e); err != nil {
		t.Fatalf("all-kinds event rejected: %v", err)
	}
	e.Params["i"] = "not an int"
	if err := spec.CheckEvent(e); !errors.Is(err, ErrBadParams) {
		t.Fatalf("err = %v, want ErrBadParams", err)
	}
}

func TestEventLabel(t *testing.T) {
	e := Event{
		SAP:       sap("s1"),
		Primitive: "granted",
		Params:    codec.Record{"resid": "r1", "attempt": int64(2)},
	}
	want := "granted@subscriber:s1(attempt=2,resid=r1)"
	if got := e.Label(); got != want {
		t.Fatalf("Label = %q, want %q", got, want)
	}
}

func TestTraceHelpers(t *testing.T) {
	tr := Trace{
		{SAP: sap("s1"), Primitive: "request", Params: codec.Record{"resid": "r1"}},
		{SAP: sap("s2"), Primitive: "request", Params: codec.Record{"resid": "r2"}},
		{SAP: sap("s1"), Primitive: "granted", Params: codec.Record{"resid": "r1"}},
	}
	if got := tr.AtSAP(sap("s1")); len(got) != 2 {
		t.Fatalf("AtSAP = %d events, want 2", len(got))
	}
	labels := tr.Labels()
	if len(labels) != 3 || labels[0] != "request@subscriber:s1(resid=r1)" {
		t.Fatalf("Labels = %v", labels)
	}
	if s := tr.String(); !strings.Contains(s, "granted@subscriber:s1") {
		t.Fatalf("String = %q", s)
	}
}

func TestDirectionScopeKindStrings(t *testing.T) {
	if FromUser.String() != "from-user" || ToUser.String() != "to-user" {
		t.Fatal("direction strings")
	}
	if !strings.Contains(Direction(9).String(), "9") {
		t.Fatal("unknown direction string")
	}
	if ScopeLocal.String() != "local" || ScopeRemote.String() != "remote" {
		t.Fatal("scope strings")
	}
	if !strings.Contains(Scope(7).String(), "7") {
		t.Fatal("unknown scope string")
	}
	if KindString.String() != "string" || KindStringList.String() != "list<string>" {
		t.Fatal("kind strings")
	}
	if !strings.Contains(ParamKind(9).String(), "9") {
		t.Fatal("unknown kind string")
	}
}

func TestSignatureAndDocument(t *testing.T) {
	s := testSpec()
	if sig := s.Primitives[0].Signature(); sig != "request(resid: string)" {
		t.Fatalf("Signature = %q", sig)
	}
	doc := s.Document()
	for _, want := range []string{
		"service floor-control",
		"subscriber [2..∞]",
		"from-user  request(resid: string)",
		"[remote] exclusive-grant",
	} {
		if !strings.Contains(doc, want) {
			t.Fatalf("Document missing %q:\n%s", want, doc)
		}
	}
}

// observe is a test helper driving an observer through a scripted trace.
func observe(t *testing.T, events []Event) (*Observer, error) {
	t.Helper()
	k := sim.NewKernel()
	obs, err := NewObserver(testSpec(), k)
	if err != nil {
		t.Fatalf("NewObserver: %v", err)
	}
	for _, e := range events {
		_ = obs.Observe(e.SAP, e.Primitive, e.Params) //nolint:errcheck // collected via Complete
	}
	return obs, obs.Complete()
}

func ev(sapID, prim, res string) Event {
	return Event{SAP: sap(sapID), Primitive: prim, Params: codec.Record{"resid": res}}
}

func TestObserverConformingRun(t *testing.T) {
	_, err := observe(t, []Event{
		ev("s1", "request", "r1"),
		ev("s2", "request", "r1"),
		ev("s1", "granted", "r1"),
		ev("s1", "free", "r1"),
		ev("s2", "granted", "r1"),
		ev("s2", "free", "r1"),
	})
	if err != nil {
		t.Fatalf("conforming run flagged: %v", err)
	}
}

func TestObserverGrantedWithoutRequest(t *testing.T) {
	obs, err := observe(t, []Event{ev("s1", "granted", "r1")})
	if err == nil {
		t.Fatal("granted without request not flagged")
	}
	v, ok := AsViolation(err)
	if !ok || v.Constraint != "granted-follows-request" {
		t.Fatalf("violation = %v", err)
	}
	if len(obs.Violations()) == 0 {
		t.Fatal("violations list empty")
	}
}

func TestObserverDoubleGrant(t *testing.T) {
	_, err := observe(t, []Event{
		ev("s1", "request", "r1"),
		ev("s2", "request", "r1"),
		ev("s1", "granted", "r1"),
		ev("s2", "granted", "r1"), // while s1 still holds
	})
	v, ok := AsViolation(err)
	if !ok {
		t.Fatalf("err = %v, want violation", err)
	}
	if v.Constraint != "exclusive-grant" {
		t.Fatalf("constraint = %q, want exclusive-grant", v.Constraint)
	}
	if v.Event == nil || v.Event.SAP != sap("s2") {
		t.Fatalf("violating event = %v", v.Event)
	}
}

func TestObserverFreeWithoutGrant(t *testing.T) {
	_, err := observe(t, []Event{
		ev("s1", "request", "r1"),
		ev("s1", "free", "r1"),
	})
	v, ok := AsViolation(err)
	if !ok || v.Constraint != "free-follows-granted" {
		t.Fatalf("violation = %v", err)
	}
}

func TestObserverForeignRelease(t *testing.T) {
	_, err := observe(t, []Event{
		ev("s1", "request", "r1"),
		ev("s1", "granted", "r1"),
		ev("s2", "request", "r1"),
		ev("s2", "granted", "r2"), // wrong resource; fine for mutex on r1
		ev("s2", "free", "r1"),    // s2 releasing s1's resource
	})
	if err == nil {
		t.Fatal("foreign release not flagged")
	}
}

func TestObserverLivenessViolation(t *testing.T) {
	obs, err := observe(t, []Event{ev("s1", "request", "r1")})
	if err == nil {
		t.Fatal("unanswered request not flagged at end of trace")
	}
	v, ok := AsViolation(err)
	if !ok || v.Constraint != "request-eventually-granted" {
		t.Fatalf("violation = %v", err)
	}
	if v.Event != nil {
		t.Fatal("liveness violation should carry no event")
	}
	if obs.Err() == nil {
		t.Fatal("Err should report the violation after Complete")
	}
}

func TestObserverDoubleRequestSameKey(t *testing.T) {
	_, err := observe(t, []Event{
		ev("s1", "request", "r1"),
		ev("s1", "request", "r1"),
		ev("s1", "granted", "r1"),
		ev("s1", "free", "r1"),
	})
	if err == nil {
		t.Fatal("double pending request not flagged")
	}
}

func TestObserverDistinctResourcesIndependent(t *testing.T) {
	_, err := observe(t, []Event{
		ev("s1", "request", "r1"),
		ev("s2", "request", "r2"),
		ev("s1", "granted", "r1"),
		ev("s2", "granted", "r2"), // different resource: allowed
		ev("s1", "free", "r1"),
		ev("s2", "free", "r2"),
	})
	if err != nil {
		t.Fatalf("independent resources flagged: %v", err)
	}
}

func TestObserverTraceRecording(t *testing.T) {
	k := sim.NewKernel()
	var tr Trace
	obs, err := NewObserver(testSpec(), k, WithTrace(&tr))
	if err != nil {
		t.Fatal(err)
	}
	k.Schedule(5*time.Millisecond, func() {
		_ = obs.Observe(sap("s1"), "request", codec.Record{"resid": "r1"}) //nolint:errcheck
	})
	k.Schedule(9*time.Millisecond, func() {
		_ = obs.Observe(sap("s1"), "granted", codec.Record{"resid": "r1"}) //nolint:errcheck
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(tr) != 2 || obs.EventCount() != 2 {
		t.Fatalf("trace = %v", tr)
	}
	if tr[0].At != 5*time.Millisecond || tr[1].At != 9*time.Millisecond {
		t.Fatalf("timestamps = %v, %v", tr[0].At, tr[1].At)
	}
}

func TestObserverKeepsNoTraceByDefault(t *testing.T) {
	obs, err := observe(t, []Event{
		ev("s1", "request", "r1"),
		ev("s1", "granted", "r1"),
		ev("s1", "free", "r1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if obs.trace != nil || obs.EventCount() != 3 {
		t.Fatalf("trace = %v, EventCount = %d; want no trace and 3 events", obs.trace, obs.EventCount())
	}
	// Every key drained, so no monitor retains state for it.
	for _, m := range obs.monitors {
		var n int
		switch m := m.(type) {
		case *precedesMonitor:
			n = len(m.pending)
		case *eventuallyMonitor:
			n = len(m.pending)
		case *mutexMonitor:
			n = len(m.holder)
		}
		if n != 0 {
			t.Fatalf("%T holds %d drained keys", m, n)
		}
	}
}

// TestEndOfTraceReportDeterministic pins that an end-of-trace violation
// names the same key on every run: Go randomizes map iteration per map,
// so twenty fresh observers with many pending keys would otherwise
// disagree.
func TestEndOfTraceReportDeterministic(t *testing.T) {
	var events []Event
	for _, s := range []string{"s7", "s3", "s9", "s1", "s5"} {
		for _, r := range []string{"r2", "r1"} {
			events = append(events, ev(s, "request", r))
		}
	}
	const want = `constraint "request-eventually-granted" violated at end of trace: ` +
		`1 request(s) for key "subscriber:s1/r1" never followed by granted`
	for i := 0; i < 20; i++ {
		_, err := observe(t, events)
		if err == nil || err.Error() != want {
			t.Fatalf("run %d: Complete() = %v\nwant %s", i, err, want)
		}
	}
}

func TestObserverStrictValidation(t *testing.T) {
	k := sim.NewKernel()
	obs, err := NewObserver(testSpec(), k, WithEventValidation())
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Observe(sap("s1"), "bogus", codec.Record{}); !errors.Is(err, ErrUnknownPrimitive) {
		t.Fatalf("err = %v, want ErrUnknownPrimitive", err)
	}
}

func TestObserverConstructorErrors(t *testing.T) {
	k := sim.NewKernel()
	bad := testSpec()
	bad.Name = ""
	if _, err := NewObserver(bad, k); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if _, err := NewObserver(testSpec(), nil); err == nil {
		t.Fatal("nil clock accepted")
	}
}

func TestConstraintDescriptions(t *testing.T) {
	for _, c := range testSpec().Constraints {
		if c.Description() == "" {
			t.Fatalf("constraint %q has empty description", c.Name())
		}
	}
	custom := &Precedes{ConstraintName: "x", ConstraintDesc: "custom text", Trigger: "a", Enabled: "b", Key: KeyParam("k")}
	if custom.Description() != "custom text" {
		t.Fatal("explicit description ignored")
	}
	mx := &MutualExclusion{ConstraintName: "m", ConstraintDesc: "mx text", Acquire: "a", Release: "r", Key: KeyParam("k")}
	if mx.Description() != "mx text" {
		t.Fatal("mutex explicit description ignored")
	}
	ef := &EventuallyFollows{ConstraintName: "e", ConstraintDesc: "ef text", Trigger: "a", Response: "b", Key: KeyParam("k")}
	if ef.Description() != "ef text" {
		t.Fatal("eventually explicit description ignored")
	}
}

func TestKeyFuncs(t *testing.T) {
	e := ev("s1", "request", "r1")
	if k, ok := KeyParam("resid")(e); !ok || k.String() != "r1" {
		t.Fatalf("KeyParam = %q, %v", k, ok)
	}
	if k, ok := KeySAPAndParam("resid")(e); !ok || k.String() != "subscriber:s1/r1" {
		t.Fatalf("KeySAPAndParam = %q, %v", k, ok)
	}
	if a, _ := KeySAPAndParam("resid")(ev("s2", "request", "r1")); a == (Key{Value: "r1"}) {
		t.Fatal("SAP-scoped keys of different SAPs must differ")
	}
	if _, ok := KeyParam("missing")(e); ok {
		t.Fatal("missing param should not produce key")
	}
	if _, ok := KeySAPAndParam("missing")(e); ok {
		t.Fatal("missing param should not produce SAP key")
	}
	e.Params["num"] = int64(3)
	if _, ok := KeyParam("num")(e); ok {
		t.Fatal("non-string param should not produce key")
	}
}

func TestViolationErrorFormatting(t *testing.T) {
	e := ev("s1", "granted", "r1")
	withEvent := &ViolationError{Constraint: "c", Event: &e, Detail: "d"}
	if !strings.Contains(withEvent.Error(), "granted@subscriber:s1") {
		t.Fatalf("Error() = %q", withEvent.Error())
	}
	atEnd := &ViolationError{Constraint: "c", Detail: "d"}
	if !strings.Contains(atEnd.Error(), "end of trace") {
		t.Fatalf("Error() = %q", atEnd.Error())
	}
	if _, ok := AsViolation(errors.New("plain")); ok {
		t.Fatal("plain error treated as violation")
	}
}

func TestNonConsumingPrecedes(t *testing.T) {
	spec := &ServiceSpec{
		Name: "multicast",
		Primitives: []PrimitiveDef{
			{Name: "say", Direction: FromUser, Params: []ParamDef{{Name: "msgid", Kind: KindString}}},
			{Name: "deliver", Direction: ToUser, Params: []ParamDef{{Name: "msgid", Kind: KindString}}},
		},
		Constraints: []Constraint{&Precedes{
			ConstraintName: "no-spurious-delivery",
			ScopeKind:      ScopeRemote,
			Trigger:        "say",
			Enabled:        "deliver",
			Key:            KeyParam("msgid"),
			NonConsuming:   true,
		}},
	}
	k := sim.NewKernel()
	obs, err := NewObserver(spec, k)
	if err != nil {
		t.Fatal(err)
	}
	params := codec.Record{"msgid": "m1"}
	if err := obs.Observe(SAP{Role: "p", ID: "1"}, "say", params); err != nil {
		t.Fatal(err)
	}
	// One say enables arbitrarily many deliveries.
	for i := 0; i < 3; i++ {
		id := SAP{Role: "p", ID: fmt.Sprintf("%d", i+1)}
		if err := obs.Observe(id, "deliver", params); err != nil {
			t.Fatalf("delivery %d flagged: %v", i, err)
		}
	}
	// But an unsaid message may not be delivered.
	if err := obs.Observe(SAP{Role: "p", ID: "1"}, "deliver", codec.Record{"msgid": "ghost"}); err == nil {
		t.Fatal("spurious delivery not flagged")
	}
}
