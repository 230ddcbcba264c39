package core

import (
	"fmt"
	"strings"
	"testing"
)

// strPrims declares primitives of one string parameter each.
func strPrims(param string, names ...string) []PrimitiveDef {
	out := make([]PrimitiveDef, len(names))
	for i, n := range names {
		out[i] = PrimitiveDef{Name: n, Direction: FromUser, Params: []ParamDef{{Name: param, Kind: KindString}}}
	}
	return out
}

func users(n int) []SAP {
	out := make([]SAP, n)
	for i := range out {
		out[i] = SAP{Role: "user", ID: fmt.Sprintf("u%d", i+1)}
	}
	return out
}

// TestSafetyLTSAgreesWithMonitors checks the compiler against the
// monitors for every constraint kind it encodes: every label of the
// deployment's alphabet is appended to every sequence both accept, up to
// a length, and the two verdicts on the result must be equal.
func TestSafetyLTSAgreesWithMonitors(t *testing.T) {
	sharing := &ServiceSpec{
		Name:       "sharing",
		Roles:      []RoleDef{{Name: "user"}},
		Primitives: strPrims("res", "acq", "rel", "ping"),
		Constraints: []Constraint{
			&Capacity{ConstraintName: "two-holders", Acquire: "acq", Release: "rel", Key: KeyParam("res"), Limit: 2},
			&Absence{ConstraintName: "quiet-while-held", Open: "acq", Close: "rel", Forbidden: "ping", Key: KeySAPAndParam("res")},
		},
	}
	messaging := &ServiceSpec{
		Name:       "messaging",
		Roles:      []RoleDef{{Name: "user"}},
		Primitives: strPrims("id", "say", "hear", "lock", "unlock"),
		Constraints: []Constraint{
			&Precedes{ConstraintName: "heard-after-said", Trigger: "say", Enabled: "hear", Key: KeyParam("id"), AllowPendingMany: true, NonConsuming: true},
			&MutualExclusion{ConstraintName: "one-lock", Acquire: "lock", Release: "unlock", Key: KeyParam("id")},
			&EventuallyFollows{ConstraintName: "heard", Trigger: "say", Response: "hear", Key: KeySAPAndParam("id")},
			&Deadline{ConstraintName: "soon", Trigger: "lock", Response: "unlock", Key: KeySAPAndParam("id"), Within: 1},
		},
	}
	for _, tc := range []struct {
		spec   *ServiceSpec
		saps   []SAP
		values map[string][]string
		maxLen int
	}{
		{sharing, users(3), map[string][]string{"res": {"r1"}}, 5},
		{messaging, users(2), map[string][]string{"id": {"m1", "m2"}}, 4},
		{testSpec(), []SAP{sap("s1"), sap("s2")}, map[string][]string{"resid": {"r1", "r2"}}, 4},
	} {
		l, err := tc.spec.SafetyLTS(tc.spec.Name, tc.saps, tc.values)
		if err != nil {
			t.Fatal(err)
		}
		alphabet, err := tc.spec.alphabet(tc.saps, tc.values)
		if err != nil {
			t.Fatal(err)
		}
		monitorsAccept := func(seq []Event) bool {
			obs, err := NewObserver(tc.spec, zeroClock{})
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range seq {
				if obs.Observe(e.SAP, e.Primitive, e.Params) != nil {
					return false
				}
			}
			return true
		}
		var (
			seq     []Event
			labels  []string
			checked int
		)
		var extend func()
		extend = func() {
			for _, e := range alphabet {
				seq, labels = append(seq, e), append(labels, e.Label())
				checked++
				ok := l.Accepts(labels)
				if m := monitorsAccept(seq); ok != m {
					t.Fatalf("%s: LTS %v, monitors %v on\n%s", tc.spec.Name, ok, m, Trace(seq))
				}
				if ok && len(seq) < tc.maxLen {
					extend()
				}
				seq, labels = seq[:len(seq)-1], labels[:len(labels)-1]
			}
		}
		extend()
		t.Logf("%s: %d states, %d transitions; %d sequences agree", tc.spec.Name, l.NumStates(), l.NumTransitions(), checked)
	}
}

type opaque struct{ Absence }

func TestSafetyLTSErrors(t *testing.T) {
	one := map[string][]string{"res": {"r1"}}
	spec := func(cs ...Constraint) *ServiceSpec {
		return &ServiceSpec{Name: "x", Roles: []RoleDef{{Name: "user"}}, Primitives: strPrims("res", "a", "b"), Constraints: cs}
	}
	ints := spec()
	ints.Primitives = []PrimitiveDef{{Name: "n", Direction: FromUser, Params: []ParamDef{{Name: "res", Kind: KindInt}}}}
	for _, tc := range []struct {
		spec   *ServiceSpec
		saps   []SAP
		values map[string][]string
		want   string
	}{
		{spec(&opaque{}), users(1), one, "no safety LTS encoding"},
		{spec(&Precedes{ConstraintName: "p", Trigger: "a", Enabled: "b", Key: KeyParam("res"), AllowPendingMany: true}), users(1), one, "not bounded"},
		{spec(&Absence{ConstraintName: "open", Open: "a", Close: "b", Forbidden: "b", Key: KeyParam("res")}), users(1), one, "passes 254"},
		{ints, users(1), one, "int has no values"},
		{spec(), users(1), nil, "no values given"},
		{spec(), []SAP{{Role: "admin", ID: "1"}}, one, "unknown role"},
		{spec(), users(255), one, "at most 254"},
	} {
		if _, err := tc.spec.SafetyLTS("x", tc.saps, tc.values); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("error %v, want one containing %q", err, tc.want)
		}
	}
}
