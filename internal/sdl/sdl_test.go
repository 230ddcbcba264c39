package sdl

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/sim"
)

const floorControlSDL = `
# The floor-control service of the paper's Figure 5.
service floor-control {
  description "coordinated exclusive access to named resources"
  role subscriber [2..*]

  primitive request(resid: string) from-user
  primitive granted(resid: string) to-user
  primitive free(resid: string) from-user

  constraint local granted-follows-request:
    precedes request -> granted key sap+param resid
  constraint local free-follows-granted:
    precedes granted -> free key sap+param resid
  constraint remote exclusive-grant:
    mutex acquire granted release free key param resid
  constraint local request-eventually-granted:
    eventually request -> granted key sap+param resid
}
`

// rec encodes a params record through the generic codec.
func rec(r codec.Record) []byte {
	b, err := codec.Append(nil, r)
	if err != nil {
		panic(err)
	}
	return b
}

func parseFloorControl(t *testing.T) (*Document, *core.ServiceSpec) {
	t.Helper()
	doc, spec, err := Parse(floorControlSDL)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return doc, spec
}

func TestParseFloorControl(t *testing.T) {
	doc, spec := parseFloorControl(t)
	if doc.Name != "floor-control" || spec.Name != "floor-control" {
		t.Fatalf("name = %q/%q", doc.Name, spec.Name)
	}
	if len(doc.Roles) != 1 || doc.Roles[0].Min != 2 || doc.Roles[0].Max != -1 {
		t.Fatalf("roles = %+v", doc.Roles)
	}
	if len(doc.Primitives) != 3 || len(doc.Constraints) != 4 {
		t.Fatalf("primitives=%d constraints=%d", len(doc.Primitives), len(doc.Constraints))
	}
	if p, ok := spec.Primitive("granted"); !ok || p.Direction != core.ToUser {
		t.Fatalf("granted = %+v, %v", p, ok)
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("compiled spec invalid: %v", err)
	}
}

func TestParsedSpecEnforcesConstraints(t *testing.T) {
	_, spec := parseFloorControl(t)
	k := sim.NewKernel()
	obs, err := core.NewObserver(spec, k)
	if err != nil {
		t.Fatal(err)
	}
	sap := core.SAP{Role: "subscriber", ID: "s1"}
	// Violation: granted with no request.
	if verr := obs.Observe(sap, "granted", rec(codec.Record{"resid": "r1"})); verr == nil {
		t.Fatal("parsed constraint did not fire")
	}
	v, ok := core.AsViolation(obs.Err())
	if !ok || v.Constraint != "granted-follows-request" {
		t.Fatalf("violation = %v", obs.Err())
	}
}

func TestParsedMutexConstraint(t *testing.T) {
	_, spec := parseFloorControl(t)
	k := sim.NewKernel()
	obs, err := core.NewObserver(spec, k)
	if err != nil {
		t.Fatal(err)
	}
	s1 := core.SAP{Role: "subscriber", ID: "s1"}
	s2 := core.SAP{Role: "subscriber", ID: "s2"}
	params := rec(codec.Record{"resid": "r1"})
	_ = obs.Observe(s1, "request", params) //nolint:errcheck
	_ = obs.Observe(s2, "request", params) //nolint:errcheck
	_ = obs.Observe(s1, "granted", params) //nolint:errcheck
	if verr := obs.Observe(s2, "granted", params); verr == nil {
		t.Fatal("parsed mutex constraint did not fire on double grant")
	}
}

func TestRoundTrip(t *testing.T) {
	doc, _ := parseFloorControl(t)
	formatted := Format(doc)
	doc2, spec2, err := Parse(formatted)
	if err != nil {
		t.Fatalf("reparse formatted output: %v\n%s", err, formatted)
	}
	if !reflect.DeepEqual(doc, doc2) {
		t.Fatalf("round trip changed document:\nfirst:  %+v\nsecond: %+v", doc, doc2)
	}
	if err := spec2.Validate(); err != nil {
		t.Fatal(err)
	}
	// Format is canonical: formatting again is a fixed point.
	if Format(doc2) != formatted {
		t.Fatal("Format is not a fixed point")
	}
}

func TestParseAllParamKindsAndOptions(t *testing.T) {
	src := `
service kinds {
  role user [0..3]
  primitive p(a: string, b: int, c: bool, d: list) from-user
  primitive q(a: string) to-user
  constraint local pq: precedes p -> q key param a allow-multiple
}
`
	doc, spec, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Primitives[0].Params) != 4 {
		t.Fatalf("params = %+v", doc.Primitives[0].Params)
	}
	if doc.Roles[0].Max != 3 {
		t.Fatalf("bounded role max = %d", doc.Roles[0].Max)
	}
	if !doc.Constraints[0].AllowMultiple {
		t.Fatal("allow-multiple not parsed")
	}
	r, ok := spec.Role("user")
	if !ok || r.Max != 3 {
		t.Fatalf("compiled role = %+v", r)
	}
	// Round-trip the exotic bits too.
	if _, _, err := Parse(Format(doc)); err != nil {
		t.Fatalf("round trip: %v", err)
	}
}

func TestParseRoleWithoutCardinality(t *testing.T) {
	src := `service s { role r primitive p() from-user }`
	doc, _, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Roles[0].Min != 0 || doc.Roles[0].Max != -1 {
		t.Fatalf("default cardinality = %+v", doc.Roles[0])
	}
}

func TestParseComments(t *testing.T) {
	src := `
// line comment
service s { # trailing comment
  primitive p() from-user // another
}
`
	if _, _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestParseStringEscapes(t *testing.T) {
	src := `service s { description "say \"hi\"\nplease" primitive p() from-user }`
	doc, _, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Description != "say \"hi\"\nplease" {
		t.Fatalf("description = %q", doc.Description)
	}
	// Escapes survive the round trip.
	doc2, _, err := Parse(Format(doc))
	if err != nil {
		t.Fatal(err)
	}
	if doc2.Description != doc.Description {
		t.Fatalf("round trip lost escapes: %q", doc2.Description)
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want string
	}{
		{"missing service", `role r`, `expected "service"`},
		{"missing brace", `service s primitive`, "'{'"},
		{"unterminated body", `service s {`, "unterminated"},
		{"unknown decl", `service s { banana }`, "expected declaration"},
		{"bad direction", `service s { primitive p() sideways }`, "from-user or to-user"},
		{"bad kind", `service s { primitive p(a: float) from-user }`, "unknown parameter kind"},
		{"bad scope", `service s { primitive p() from-user constraint global x: precedes p -> p key param a }`, "local or remote"},
		{"bad form", `service s { primitive p() from-user constraint local x: until p -> p key param a }`, "precedes, eventually, mutex, capacity, deadline or absent"},
		{"bad key", `service s { primitive p() from-user constraint local x: precedes p -> p key node a }`, "'param' or 'sap+param'"},
		{"missing arrow", `service s { primitive p() from-user constraint local x: precedes p p key param a }`, "'->'"},
		{"allow-multiple on mutex", `service s { primitive p() from-user primitive q() to-user constraint local x: mutex acquire p release q key param a allow-multiple }`, "allow-multiple applies only to precedes"},
		{"unterminated string", `service s { description "oops`, "unterminated string"},
		{"bad escape", `service s { description "a\q" }`, "unknown escape"},
		{"stray dash", `service s { - }`, "unexpected '-'"},
		{"stray dot", `service s { . }`, "unexpected '.'"},
		{"stray char", `service s { % }`, "unexpected character"},
		{"trailing garbage", `service s { primitive p() from-user } extra`, "after service body"},
		{"bad cardinality", `service s { role r [1..x] primitive p() from-user }`, "number or '*'"},
		{"undeclared primitive in constraint", `service s { primitive p() from-user constraint local x: precedes p -> ghost key param a }`, "undeclared primitive"},
		{"duplicate primitive (core validation)", `service s { primitive p() from-user primitive p() from-user }`, "twice"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, _, err := Parse(tt.src)
			if err == nil {
				t.Fatalf("accepted %q", tt.src)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("err = %v, want contains %q", err, tt.want)
			}
		})
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, _, err := Parse("service s {\n  banana\n}")
	var serr *SyntaxError
	if !errors.As(err, &serr) {
		t.Fatalf("err = %T, want *SyntaxError", err)
	}
	if serr.Line != 2 {
		t.Fatalf("line = %d, want 2", serr.Line)
	}
	if !strings.Contains(serr.Error(), "2:") {
		t.Fatalf("Error() = %q missing position", serr.Error())
	}
}

// Property: the lexer never panics and always terminates on arbitrary
// input.
func TestPropertyLexerTotal(t *testing.T) {
	prop := func(src string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = lexAll(src)   //nolint:errcheck
		_, _, _ = Parse(src) //nolint:errcheck
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Format∘Parse is the identity on documents produced by the
// parser (tested over a generated family of specs).
func TestPropertyRoundTripGenerated(t *testing.T) {
	prop := func(nPrims uint8, withSAP bool, scope bool, desc string) bool {
		n := int(nPrims%4) + 2
		var sb strings.Builder
		sb.WriteString("service generated {\n  role r [1..*]\n")
		for i := 0; i < n; i++ {
			dir := "from-user"
			if i%2 == 1 {
				dir = "to-user"
			}
			name := "p" + string(rune('a'+i))
			sb.WriteString("  primitive " + name + "(k: string) " + dir + "\n")
		}
		key := "param k"
		if withSAP {
			key = "sap+param k"
		}
		sc := "local"
		if scope {
			sc = "remote"
		}
		sb.WriteString("  constraint " + sc + " c1")
		if desc != "" {
			sb.WriteString(" " + quoteSDL(desc))
		}
		sb.WriteString(": precedes pa -> pb key " + key + "\n}\n")
		doc, _, err := Parse(sb.String())
		if err != nil {
			return false
		}
		doc2, _, err := Parse(Format(doc))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(doc, doc2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestConstraintDescription: the optional quoted text after a
// constraint's name becomes its description, on every form; without one
// the constraint describes itself from its clause.
func TestConstraintDescription(t *testing.T) {
	src := `service described {
  primitive a(id: string) from-user
  primitive b(id: string) to-user
  constraint local p "p text": precedes a -> b key param id
  constraint local e "e text": eventually a -> b key param id
  constraint remote m "m text": mutex acquire a release b key param id
  constraint remote c "c text": capacity 2 acquire a release b key param id
  constraint local d "d text": deadline a -> b within 5 ms key param id
  constraint local x "x text": absent b between a and b key param id
  constraint local plain: precedes a -> b key param id
}
`
	doc, spec, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"p text", "e text", "m text", "c text", "d text", "x text"} {
		if got := doc.Constraints[i].Description; got != want {
			t.Errorf("constraint %d: Description = %q, want %q", i, got, want)
		}
		if got := spec.Constraints[i].Description(); got != want {
			t.Errorf("constraint %d: compiled description %q, want %q", i, got, want)
		}
	}
	if got := spec.Constraints[6].Description(); got != "b may only occur after an unmatched a (same key)" {
		t.Errorf("undescribed constraint reads %q", got)
	}
	if !strings.Contains(Format(doc), `constraint local p "p text":`) {
		t.Errorf("Format drops the description:\n%s", Format(doc))
	}
	if _, _, err := Parse(strings.Replace(src, `"p text":`, `"p text" "again":`, 1)); err == nil {
		t.Error("two descriptions accepted")
	}
}

func TestNonConsumingOption(t *testing.T) {
	src := `
service multicast {
  primitive say(msgid: string) from-user
  primitive deliver(msgid: string) to-user
  constraint remote no-spurious:
    precedes say -> deliver key param msgid allow-multiple non-consuming
}
`
	doc, spec, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if !doc.Constraints[0].NonConsuming || !doc.Constraints[0].AllowMultiple {
		t.Fatalf("options = %+v", doc.Constraints[0])
	}
	// Round trip preserves both options.
	doc2, _, err := Parse(Format(doc))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc, doc2) {
		t.Fatal("options lost in round trip")
	}
	// Compiled semantics: one say, many delivers.
	k := sim.NewKernel()
	obs, err := core.NewObserver(spec, k)
	if err != nil {
		t.Fatal(err)
	}
	p1 := core.SAP{Role: "p", ID: "1"}
	_ = obs.Observe(p1, "say", rec(codec.Record{"msgid": "m"})) //nolint:errcheck
	for i := 0; i < 3; i++ {
		if err := obs.Observe(p1, "deliver", rec(codec.Record{"msgid": "m"})); err != nil {
			t.Fatalf("non-consuming delivery %d flagged: %v", i, err)
		}
	}
	if err := obs.Observe(p1, "deliver", rec(codec.Record{"msgid": "other"})); err == nil {
		t.Fatal("spurious delivery accepted")
	}
}

func TestOptionOnMutexRejected(t *testing.T) {
	src := `service s { primitive p() from-user primitive q() to-user
	  constraint local x: mutex acquire p release q key param a non-consuming }`
	if _, _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "applies only to precedes") {
		t.Fatalf("err = %v", err)
	}
}

func TestParseCapacityAndDeadline(t *testing.T) {
	src := `
service timed-pool {
  role client [1..*]
  primitive request(resid: string) from-user
  primitive granted(resid: string) to-user
  primitive free(resid: string) from-user

  constraint remote pool-capacity:
    capacity 3 acquire granted release free key param resid
  constraint local grant-deadline:
    deadline request -> granted within 50 ms key sap+param resid
}
`
	doc, spec, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Constraints[0].Form != FormCapacity || doc.Constraints[0].Limit != 3 {
		t.Fatalf("capacity decl = %+v", doc.Constraints[0])
	}
	if doc.Constraints[1].Form != FormDeadline || doc.Constraints[1].Within != 50*time.Millisecond {
		t.Fatalf("deadline decl = %+v", doc.Constraints[1])
	}
	// Round trip.
	doc2, _, err := Parse(Format(doc))
	if err != nil {
		t.Fatalf("round trip: %v\n%s", err, Format(doc))
	}
	if !reflect.DeepEqual(doc, doc2) {
		t.Fatal("capacity/deadline lost in round trip")
	}
	// Compiled semantics: capacity 3 admits three holders, not four.
	k := sim.NewKernel()
	obs, err := core.NewObserver(spec, k)
	if err != nil {
		t.Fatal(err)
	}
	params := rec(codec.Record{"resid": "r"})
	for i := 1; i <= 3; i++ {
		id := core.SAP{Role: "client", ID: fmt.Sprintf("c%d", i)}
		_ = obs.Observe(id, "request", params) //nolint:errcheck
		if err := obs.Observe(id, "granted", params); err != nil {
			t.Fatalf("holder %d flagged: %v", i, err)
		}
	}
	id4 := core.SAP{Role: "client", ID: "c4"}
	_ = obs.Observe(id4, "request", params) //nolint:errcheck
	if err := obs.Observe(id4, "granted", params); err == nil {
		t.Fatal("fourth holder not flagged by parsed capacity constraint")
	}
}

func TestParseDurationUnits(t *testing.T) {
	for unit, want := range map[string]time.Duration{
		"us": 7 * time.Microsecond,
		"ms": 7 * time.Millisecond,
		"s":  7 * time.Second,
	} {
		src := `service s { primitive a() from-user primitive b() to-user
		  constraint local d: deadline a -> b within 7 ` + unit + ` key param k }`
		doc, _, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", unit, err)
		}
		if doc.Constraints[0].Within != want {
			t.Fatalf("%s: Within = %v, want %v", unit, doc.Constraints[0].Within, want)
		}
	}
	bad := `service s { primitive a() from-user primitive b() to-user
	  constraint local d: deadline a -> b within 7 weeks key param k }`
	if _, _, err := Parse(bad); err == nil || !strings.Contains(err.Error(), "duration unit") {
		t.Fatalf("err = %v", err)
	}
	zeroCap := `service s { primitive a() from-user primitive b() to-user
	  constraint remote c: capacity 0 acquire a release b key param k }`
	if _, _, err := Parse(zeroCap); err == nil || !strings.Contains(err.Error(), "at least 1") {
		t.Fatalf("err = %v", err)
	}
}

func TestParseAbsent(t *testing.T) {
	src := `
service held {
  primitive request(resid: string) from-user
  primitive granted(resid: string) to-user
  primitive free(resid: string) from-user
  constraint local no-rerequest:
    absent request between granted and free key sap+param resid
}
`
	doc, spec, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Constraints[0].Form != FormAbsent || doc.Constraints[0].Forbidden != "request" {
		t.Fatalf("decl = %+v", doc.Constraints[0])
	}
	doc2, _, err := Parse(Format(doc))
	if err != nil {
		t.Fatalf("round trip: %v\n%s", err, Format(doc))
	}
	if !reflect.DeepEqual(doc, doc2) {
		t.Fatal("absent clause lost in round trip")
	}
	// Semantics: request while held is flagged.
	k := sim.NewKernel()
	obs, err := core.NewObserver(spec, k)
	if err != nil {
		t.Fatal(err)
	}
	s1 := core.SAP{Role: "p", ID: "1"}
	params := rec(codec.Record{"resid": "r"})
	_ = obs.Observe(s1, "request", params) //nolint:errcheck
	_ = obs.Observe(s1, "granted", params) //nolint:errcheck
	if err := obs.Observe(s1, "request", params); err == nil {
		t.Fatal("parsed absent constraint did not fire")
	}
	// Undeclared forbidden primitive is rejected at compile time.
	bad := `service s { primitive a() from-user primitive b() to-user
	  constraint local x: absent ghost between a and b key param k }`
	if _, _, err := Parse(bad); err == nil || !strings.Contains(err.Error(), "undeclared") {
		t.Fatalf("err = %v", err)
	}
}
