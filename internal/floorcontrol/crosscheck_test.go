package floorcontrol

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
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

// TestPropertyLTSAgreesWithMonitors is the formal cross-validation: two
// independent encodings of the floor-control service — the generated
// behaviour LTS and the online constraint monitors — must accept exactly
// the same event sequences. Random traces (valid and invalid alike)
// exercise both.
func TestPropertyLTSAgreesWithMonitors(t *testing.T) {
	subs := SubscriberNames(2)
	ress := ResourceNames(2)
	spec := ServiceLTS(subs, ress)

	prop := func(seed int64, length uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(length%20) + 1

		kernel := sim.NewKernel()
		obs, err := core.NewObserver(safetySpec(), kernel)
		if err != nil {
			return false
		}
		var labels []string
		monitorsOK := true
		for i := 0; i < n; i++ {
			sub := subs[rng.Intn(len(subs))]
			res := ress[rng.Intn(len(ress))]
			prim := []string{PrimRequest, PrimGranted, PrimFree}[rng.Intn(3)]
			e := core.Event{
				SAP:       SubscriberSAP(sub),
				Primitive: prim,
				Params:    codec.Record{ParamResource: res},
			}
			labels = append(labels, e.Label())
			if obs.Observe(e.SAP, e.Primitive, e.Params) != nil {
				monitorsOK = false
				break // monitors reject at first violation; LTS must reject the same prefix
			}
		}
		ltsOK := spec.Accepts(labels)
		return ltsOK == monitorsOK
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
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
	spec := ServiceLTS(SubscriberNames(2), ResourceNames(1))
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
	spec := ServiceLTS(SubscriberNames(3), ResourceNames(2))
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
