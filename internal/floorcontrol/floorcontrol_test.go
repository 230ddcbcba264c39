package floorcontrol

import (
	"strings"
	"testing"

	"repro/internal/lts"
	"repro/internal/middleware"
)

func TestSpecIsValid(t *testing.T) {
	if err := Spec().Validate(); err != nil {
		t.Fatalf("Spec invalid: %v", err)
	}
}

func TestSpecDocumentMatchesFigure5(t *testing.T) {
	doc := Spec().Document()
	for _, want := range []string{
		"request(resid: string)",
		"granted(resid: string)",
		"free(resid: string)",
		"a resource is only granted to one subscriber at a time",
		"[local]",
		"[remote]",
	} {
		if !strings.Contains(doc, want) {
			t.Fatalf("spec document missing %q:\n%s", want, doc)
		}
	}
}

func TestSubscriberSAP(t *testing.T) {
	sap := SubscriberSAP("s1")
	if sap.Role != RoleSubscriber || sap.ID != "s1" {
		t.Fatalf("SAP = %+v", sap)
	}
}

func TestServiceLTSSmallDeployment(t *testing.T) {
	l := ServiceLTS([]string{"s1", "s2"}, []string{"r1"})
	// 2 subscribers × 1 resource: each sub has 3 states, minus double-held.
	// 3*3 - 1 = 8 states.
	if l.NumStates() != 8 {
		t.Fatalf("NumStates = %d, want 8", l.NumStates())
	}
	if dl := l.Deadlocks(); len(dl) != 0 {
		t.Fatalf("service LTS has deadlocks: %v", dl)
	}
	ok := []string{
		eventLabel(PrimRequest, "s1", "r1"),
		eventLabel(PrimRequest, "s2", "r1"),
		eventLabel(PrimGranted, "s1", "r1"),
		eventLabel(PrimFree, "s1", "r1"),
		eventLabel(PrimGranted, "s2", "r1"),
		eventLabel(PrimFree, "s2", "r1"),
	}
	if !l.Accepts(ok) {
		t.Fatal("valid interleaving rejected")
	}
	bad := []string{
		eventLabel(PrimRequest, "s1", "r1"),
		eventLabel(PrimRequest, "s2", "r1"),
		eventLabel(PrimGranted, "s1", "r1"),
		eventLabel(PrimGranted, "s2", "r1"), // double grant
	}
	if l.Accepts(bad) {
		t.Fatal("double grant accepted by service LTS")
	}
}

func TestServiceLTSGrantRequiresRequest(t *testing.T) {
	l := ServiceLTS([]string{"s1"}, []string{"r1"})
	if l.Accepts([]string{eventLabel(PrimGranted, "s1", "r1")}) {
		t.Fatal("grant without request accepted")
	}
	if !l.Accepts([]string{
		eventLabel(PrimRequest, "s1", "r1"),
		eventLabel(PrimGranted, "s1", "r1"),
		eventLabel(PrimFree, "s1", "r1"),
		eventLabel(PrimRequest, "s1", "r1"),
	}) {
		t.Fatal("valid cycle rejected")
	}
}

func TestServiceLTSIndependentResources(t *testing.T) {
	l := ServiceLTS([]string{"s1", "s2"}, []string{"r1", "r2"})
	ok := []string{
		eventLabel(PrimRequest, "s1", "r1"),
		eventLabel(PrimRequest, "s2", "r2"),
		eventLabel(PrimGranted, "s1", "r1"),
		eventLabel(PrimGranted, "s2", "r2"),
	}
	if !l.Accepts(ok) {
		t.Fatal("concurrent holds of distinct resources rejected")
	}
}

func TestSolutionsRegistry(t *testing.T) {
	sols := Solutions()
	if len(sols) != 6 {
		t.Fatalf("Solutions() = %d, want 6", len(sols))
	}
	seen := map[string]bool{}
	for _, s := range sols {
		if seen[s.Name()] {
			t.Fatalf("duplicate solution %q", s.Name())
		}
		seen[s.Name()] = true
		if s.Figure() == "" {
			t.Fatalf("%s has no figure reference", s.Name())
		}
		got, ok := SolutionByName(s.Name())
		if !ok || got.Name() != s.Name() {
			t.Fatalf("SolutionByName(%q) failed", s.Name())
		}
	}
	if _, ok := SolutionByName("nope"); ok {
		t.Fatal("unknown solution found")
	}
	// Exactly three per paradigm, one per style.
	for _, paradigm := range []Paradigm{ParadigmMiddleware, ParadigmProtocol} {
		styles := map[Style]bool{}
		for _, s := range sols {
			if s.Paradigm() == paradigm {
				styles[s.Style()] = true
			}
		}
		if len(styles) != 3 {
			t.Fatalf("paradigm %s has styles %v, want 3", paradigm, styles)
		}
	}
}

func TestRunWorkloadAllSolutionsConform(t *testing.T) {
	for _, s := range Solutions() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			res, tr, err := runTraced(Config{Solution: s.Name(), Seed: 42})
			if err != nil {
				t.Fatalf("RunWorkload: %v", err)
			}
			if res.Completed != res.Expected {
				t.Fatalf("completed %d of %d", res.Completed, res.Expected)
			}
			if res.ConformanceErr != nil {
				t.Fatalf("conformance violation: %v\ntrace:\n%s", res.ConformanceErr, tr)
			}
			if res.AcquireLatency.Count() != res.Expected {
				t.Fatalf("latency samples %d, want %d", res.AcquireLatency.Count(), res.Expected)
			}
			if res.NetMessages == 0 || res.ParadigmMessages == 0 {
				t.Fatalf("no traffic counted: %+v", res)
			}
			if res.Paradigm != s.Paradigm() || res.Style != s.Style() {
				t.Fatalf("result identity mismatch: %+v", res)
			}
		})
	}
}

func TestRunWorkloadUnknownSolution(t *testing.T) {
	if _, err := RunWorkload(Config{Solution: "nope"}); err == nil {
		t.Fatal("unknown solution accepted")
	}
}

func TestRunWorkloadDeterminism(t *testing.T) {
	for _, name := range []string{"mw-callback", "proto-token"} {
		a, ta, err := runTraced(Config{Solution: name, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		b, tb, err := runTraced(Config{Solution: name, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		la, lb := ta.Labels(), tb.Labels()
		if len(la) != len(lb) {
			t.Fatalf("%s: trace lengths differ: %d vs %d", name, len(la), len(lb))
		}
		for i := range la {
			if la[i] != lb[i] {
				t.Fatalf("%s: traces diverge at %d: %q vs %q", name, i, la[i], lb[i])
			}
		}
		if a.NetMessages != b.NetMessages || a.VirtualDuration != b.VirtualDuration {
			t.Fatalf("%s: metrics differ across identical runs", name)
		}
	}
}

func TestRunWorkloadSeedsDiffer(t *testing.T) {
	a, err := RunWorkload(Config{Solution: "proto-callback", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWorkload(Config{Solution: "proto-callback", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.VirtualDuration == b.VirtualDuration && a.NetMessages == b.NetMessages {
		t.Log("note: different seeds produced identical aggregate metrics (possible but unlikely)")
	}
}

// TestTraceRefinesServiceLTS closes the formal loop: the recorded
// execution trace of every solution is a trace of the service LTS.
func TestTraceRefinesServiceLTS(t *testing.T) {
	subs, ress := 2, 1
	spec := ServiceLTS(SubscriberNames(subs), ResourceNames(ress))
	for _, s := range Solutions() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			res, tr, err := runTraced(Config{
				Solution:    s.Name(),
				Subscribers: subs,
				Resources:   ress,
				Cycles:      3,
				Seed:        13,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.ConformanceErr != nil {
				t.Fatalf("online conformance: %v", res.ConformanceErr)
			}
			labels := tr.Labels()
			if !spec.Accepts(labels) {
				t.Fatalf("trace rejected by service LTS:\n%s", strings.Join(labels, "\n"))
			}
		})
	}
}

// TestProtocolSwapLeavesAppPartUnchanged is Figure 9: the three protocol
// solutions share one application-part implementation, and every SAP-local
// trace follows the same request→granted→free discipline.
func TestProtocolSwapLeavesAppPartUnchanged(t *testing.T) {
	for _, name := range []string{"proto-callback", "proto-polling", "proto-token"} {
		_, tr, err := runTraced(Config{Solution: name, Subscribers: 2, Resources: 1, Cycles: 2, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, sub := range SubscriberNames(2) {
			local := tr.AtSAP(SubscriberSAP(sub))
			if len(local)%3 != 0 {
				t.Fatalf("%s/%s: local trace not whole cycles:\n%s", name, sub, local)
			}
			for i := 0; i < len(local); i += 3 {
				if local[i].Primitive != PrimRequest || local[i+1].Primitive != PrimGranted || local[i+2].Primitive != PrimFree {
					t.Fatalf("%s/%s: cycle %d malformed:\n%s", name, sub, i/3, local)
				}
			}
		}
	}
}

func TestScatteringContrast(t *testing.T) {
	const n = 4
	for _, s := range Solutions() {
		sc := s.Scattering(n)
		idx := sc.Index()
		switch s.Paradigm() {
		case ParadigmMiddleware:
			if idx != 1.0 {
				t.Errorf("%s: scattering index = %.2f, want 1.0 (all in app parts)", s.Name(), idx)
			}
		case ParadigmProtocol:
			if idx != 0.0 {
				t.Errorf("%s: scattering index = %.2f, want 0.0 (all in interaction system)", s.Name(), idx)
			}
			if sc.InteractionSystemOps == 0 {
				t.Errorf("%s: interaction system empty", s.Name())
			}
		}
	}
	if (Scattering{}).Index() != 0 {
		t.Error("zero scattering should index 0")
	}
}

func TestWorkloadUnderLoss(t *testing.T) {
	// The reliable transport must keep every solution conformant and
	// complete under 20% datagram loss.
	for _, name := range []string{"mw-callback", "proto-callback", "proto-token"} {
		res, err := RunWorkload(Config{Solution: name, Seed: 9, LossRate: 0.2, Cycles: 3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Completed != res.Expected {
			t.Fatalf("%s: completed %d of %d under loss", name, res.Completed, res.Expected)
		}
		if res.ConformanceErr != nil {
			t.Fatalf("%s: conformance under loss: %v", name, res.ConformanceErr)
		}
	}
}

func TestWorkloadHighContention(t *testing.T) {
	// Many subscribers, one resource: the paper's mutual-exclusion core.
	for _, s := range Solutions() {
		res, err := RunWorkload(Config{
			Solution:    s.Name(),
			Subscribers: 6,
			Resources:   1,
			Cycles:      3,
			Seed:        21,
		})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.Completed != res.Expected || res.ConformanceErr != nil {
			t.Fatalf("%s under contention: completed=%d/%d err=%v",
				s.Name(), res.Completed, res.Expected, res.ConformanceErr)
		}
	}
}

func TestNamesHelpers(t *testing.T) {
	subs := SubscriberNames(3)
	if len(subs) != 3 || subs[0] != "s1" || subs[2] != "s3" {
		t.Fatalf("SubscriberNames = %v", subs)
	}
	ress := ResourceNames(2)
	if len(ress) != 2 || ress[1] != "r2" {
		t.Fatalf("ResourceNames = %v", ress)
	}
}

func TestBuildRequiresSubstrate(t *testing.T) {
	env := &Env{} // no platform, no lower service
	if _, err := (&MWCallback{}).Build(env); err == nil {
		t.Fatal("mw solution built without platform")
	}
	if _, err := (&ProtoCallback{}).Build(env); err == nil {
		t.Fatal("protocol solution built without lower service")
	}
}

func TestResourceQueue(t *testing.T) {
	q := newResourceQueue([]string{"r1"})
	if !q.known("r1") || q.known("r2") {
		t.Fatal("known() wrong")
	}
	if !q.tryAcquire("s1", "r1") {
		t.Fatal("acquire of free resource failed")
	}
	if q.tryAcquire("s2", "r1") {
		t.Fatal("double acquire succeeded")
	}
	q.enqueue("s2", "r1")
	q.enqueue("s3", "r1")
	next, ok, err := q.release("s1", "r1")
	if err != nil || !ok || next != "s2" {
		t.Fatalf("release = %q, %v, %v", next, ok, err)
	}
	if _, _, err := q.release("s1", "r1"); err == nil {
		t.Fatal("foreign release accepted")
	}
	next, ok, err = q.release("s2", "r1")
	if err != nil || !ok || next != "s3" {
		t.Fatalf("second release = %q, %v, %v", next, ok, err)
	}
	next, ok, err = q.release("s3", "r1")
	if err != nil || ok || next != "" {
		t.Fatalf("final release = %q, %v, %v", next, ok, err)
	}
}

// TestObserveProviderReportsBothDirections ensures the SAP decorator
// (core.Observer.Provider) observes submissions and deliveries.
func TestObserveProviderReportsBothDirections(t *testing.T) {
	_, tr, err := runTraced(Config{Solution: "proto-callback", Subscribers: 2, Resources: 1, Cycles: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var from, to int
	for _, e := range tr {
		switch e.Primitive {
		case PrimRequest, PrimFree:
			from++
		case PrimGranted:
			to++
		}
	}
	if from != 4 || to != 2 {
		t.Fatalf("from-user=%d to-user=%d, want 4/2", from, to)
	}
}

func TestMiddlewareSolutionsRequireMatchingProfile(t *testing.T) {
	// The middleware solutions assume remote invocation (§4.1); an
	// MQ-like profile cannot build them.
	_, err := RunWorkload(Config{Solution: "mw-callback", Seed: 1, Profile: middleware.ProfileMQLike})
	if err == nil {
		t.Fatal("mw-callback built on a queue-only platform")
	}
}

func TestTraceRefinementViaLTSRefines(t *testing.T) {
	// Build a linear LTS from an executed trace and check full trace
	// refinement (not just membership) against the service LTS.
	_, tr, err := runTraced(Config{Solution: "proto-polling", Subscribers: 2, Resources: 1, Cycles: 2, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	b := lts.NewBuilder("executed-trace")
	prev := b.State("t0")
	for i, label := range tr.Labels() {
		next := b.State("t" + string(rune('a'+i%26)) + SubscriberNames(1)[0] + fmtInt(i))
		b.Transition(prev, label, next)
		prev = next
	}
	b.Final(prev)
	impl := b.MustBuild()
	spec := ServiceLTS(SubscriberNames(2), ResourceNames(1))
	r := lts.TraceRefines(impl, spec)
	if !r.Holds {
		t.Fatalf("trace refinement failed: %v", r.Counterexample)
	}
}

// fmtInt avoids importing strconv in tests for one call site.
func fmtInt(i int) string {
	if i == 0 {
		return "0"
	}
	var digits []byte
	for i > 0 {
		digits = append([]byte{byte('0' + i%10)}, digits...)
		i /= 10
	}
	return string(digits)
}
