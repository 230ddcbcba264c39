package floorcontrol

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/lts"
	"repro/internal/sim"
)

// safetySpec is Spec() with the liveness constraint removed: the LTS
// encodes safety only (any prefix of a legal behaviour is a legal trace),
// so the cross-check below must compare against safety monitors only.
func safetySpec() *core.ServiceSpec {
	s := Spec()
	var kept []core.Constraint
	for _, c := range s.Constraints {
		if _, isLive := c.(*core.EventuallyFollows); !isLive {
			kept = append(kept, c)
		}
	}
	s.Constraints = kept
	return s
}

// eventLabel renders an event label in the same form core.Event.Label
// produces, for the oracle's construction.
func eventLabel(prim, sub, res string) string {
	return fmt.Sprintf("%s@%s:%s(%s=%s)", prim, RoleSubscriber, sub, ParamResource, res)
}

// ServiceLTS is the test oracle for SafetyLTS and the monitors: the
// floor-control service's behaviour LTS built by hand for a concrete
// deployment (subscriber ids × resource ids), the state space of all
// constraint-respecting interleavings, written apart from the .svc
// constraints that SafetyLTS compiles.
func ServiceLTS(subscribers, resources []string) *lts.LTS {
	b := lts.NewBuilder("floor-control-service")

	// A subscriber's state per resource: 0 idle, 1 requested, 2 held;
	// index = sub*len(resources)+res.
	idle := strings.Repeat("0", len(subscribers)*len(resources))
	b.State(idle)
	work, created := []string{idle}, 1
	heldBy := func(c string, res int) int {
		for s := range subscribers {
			if c[s*len(resources)+res] == '2' {
				return s
			}
		}
		return -1
	}
	for len(work) > 0 {
		c := work[0]
		work = work[1:]
		from := b.State(c)
		step := func(label string, i int, state byte) {
			next := []byte(c)
			next[i] = state
			to := b.State(string(next))
			if int(to) == created {
				created++
				work = append(work, string(next))
			}
			b.Transition(from, label, to)
		}
		for s, sub := range subscribers {
			for r, res := range resources {
				i := s*len(resources) + r
				switch c[i] {
				case '0': // idle: may request
					step(eventLabel(PrimRequest, sub, res), i, '1')
				case '1': // requested: may be granted if nobody holds res
					if heldBy(c, r) == -1 {
						step(eventLabel(PrimGranted, sub, res), i, '2')
					}
				case '2': // held: may free
					step(eventLabel(PrimFree, sub, res), i, '0')
				}
			}
		}
	}
	l, err := b.Build()
	if err != nil {
		panic(err)
	}
	return l
}

// safetyLTS is SafetyLTS for a test deployment of the named sizes.
func safetyLTS(t testing.TB, subs, ress int) *lts.LTS {
	t.Helper()
	l, err := SafetyLTS(SubscriberNames(subs), ResourceNames(ress))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestSafetyLTSMatchesOracle pins the compiled LTS to the oracle's size
// at three deployments; the exhaustive check below pins their behaviour.
func TestSafetyLTSMatchesOracle(t *testing.T) {
	for _, tc := range []struct{ subs, ress, states, transitions int }{
		{2, 1, 8, 14},
		{2, 2, 64, 224},
		{3, 2, 400, 1920},
	} {
		compiled := safetyLTS(t, tc.subs, tc.ress)
		oracle := ServiceLTS(SubscriberNames(tc.subs), ResourceNames(tc.ress))
		for _, l := range []*lts.LTS{compiled, oracle} {
			if l.NumStates() != tc.states || l.NumTransitions() != tc.transitions {
				t.Errorf("%d×%d: %d states, %d transitions, want %d, %d\n%s",
					tc.subs, tc.ress, l.NumStates(), l.NumTransitions(), tc.states, tc.transitions, l)
			}
		}
	}
}

// TestPropertyLTSAgreesWithMonitors is the formal cross-validation, made
// exhaustive at small scope: three independent checkers of the
// floor-control service — the LTS compiled from the spec, the
// hand-built ServiceLTS oracle and the online monitors of safetySpec —
// must agree on every event sequence up to a length. Starting from the
// empty sequence, every label of the alphabet is appended to every
// sequence all three accept, and the three verdicts on the result must
// be equal. It checks 2×1 up to length 7 and 2×2 up to length 5 in well
// under a second.
func TestPropertyLTSAgreesWithMonitors(t *testing.T) {
	spec := safetySpec()
	for _, tc := range []struct{ subs, ress, maxLen int }{{2, 1, 7}, {2, 2, 5}} {
		compiled := safetyLTS(t, tc.subs, tc.ress)
		oracle := ServiceLTS(SubscriberNames(tc.subs), ResourceNames(tc.ress))
		var alphabet []core.Event
		for _, prim := range []string{PrimRequest, PrimGranted, PrimFree} {
			for _, sub := range SubscriberNames(tc.subs) {
				for _, res := range ResourceNames(tc.ress) {
					var params paramBuf
					alphabet = append(alphabet, core.Event{SAP: SubscriberSAP(sub), Primitive: prim, Params: params.of(res)})
				}
			}
		}
		monitorsAccept := func(seq []core.Event) bool {
			obs, err := core.NewObserver(spec, sim.NewKernel())
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
			seq     []core.Event
			labels  []string
			checked int
		)
		var extend func()
		extend = func() {
			for _, e := range alphabet {
				seq, labels = append(seq, e), append(labels, e.Label())
				c, o, m := compiled.Accepts(labels), oracle.Accepts(labels), monitorsAccept(seq)
				checked++
				if c != o || c != m {
					t.Fatalf("%d×%d: compiled LTS %v, oracle %v, monitors %v on\n%s",
						tc.subs, tc.ress, c, o, m, core.Trace(seq))
				}
				if c && len(seq) < tc.maxLen {
					extend()
				}
				seq, labels = seq[:len(seq)-1], labels[:len(labels)-1]
			}
		}
		extend()
		t.Logf("%d×%d up to length %d: %d sequences agree", tc.subs, tc.ress, tc.maxLen, checked)
	}
}

// TestPropertyExecutedTracesAlwaysAccepted drives random small workloads
// through random solutions and requires LTS acceptance every time — the
// fuzzing face of the conformance result.
func TestPropertyExecutedTracesAlwaysAccepted(t *testing.T) {
	names := []string{
		"mw-callback", "mw-polling", "mw-token",
		"proto-callback", "proto-polling", "proto-token",
		"mda-rpc-rmi-like", "mda-queue-mq-like",
	}
	spec := safetyLTS(t, 2, 1)
	prop := func(seed int64, which uint8, cycles uint8) bool {
		res, tr, err := runTraced(Config{
			Solution:    names[int(which)%len(names)],
			Subscribers: 2,
			Resources:   1,
			Cycles:      int(cycles%3) + 1,
			Seed:        seed,
		})
		if err != nil {
			return false
		}
		if res.ConformanceErr != nil {
			return false
		}
		return spec.Accepts(tr.Labels())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyChurnedTracesRefineSafetyLTS extends the cross-check to
// the churn engine: random crash/heal schedules over random solutions
// must still produce traces the safety LTS accepts, with zero safety
// violations from the online monitors. Liveness is deliberately out of
// scope — a crash may orphan a request forever, and the safety LTS
// accepts that prefix; what may never appear is a grant that breaks
// mutual exclusion or a free without a grant (the failure modes a buggy
// retry/dedup scheme would introduce).
func TestPropertyChurnedTracesRefineSafetyLTS(t *testing.T) {
	names := []string{
		"mw-callback", "mw-polling", "mw-token",
		"proto-callback", "proto-polling", "proto-token",
		"mda-rpc-corba-like", "mda-msg-jms-like",
	}
	spec := safetyLTS(t, 3, 2)
	prop := func(seed int64, which, sev uint8) bool {
		res, tr, err := runTraced(Config{
			Solution:    names[int(which)%len(names)],
			Subscribers: 3,
			Resources:   2,
			Cycles:      2,
			Seed:        seed,
			Deadline:    6 * time.Second,
			CrashRate:   0.5 + float64(sev%8),
			MTTR:        time.Duration(sev%4+1) * 100 * time.Millisecond,
		})
		if err != nil {
			return false
		}
		if !res.SafetyOK {
			return false
		}
		return spec.Accepts(tr.Labels())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
