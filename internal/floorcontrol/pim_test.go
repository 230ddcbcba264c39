package floorcontrol

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/mda"
)

func TestPIMValidates(t *testing.T) {
	if err := PIM(ResourceNames(2)).Validate(); err != nil {
		t.Fatalf("floor-control PIM invalid: %v", err)
	}
}

// TestPIMSharesRunSpec checks that the PIM carries the one spec compile
// every run shares, and that deploying through it on every concrete
// platform leaves that spec as compiled.
func TestPIMSharesRunSpec(t *testing.T) {
	if got := PIM(ResourceNames(2)).Service; got != runSpec {
		t.Fatal("PIM(...).Service is not the shared runSpec")
	}
	doc, constraints := runSpec.Document(), slices.Clone(runSpec.Constraints)
	for _, s := range MDASolutions() {
		res, err := RunWorkload(Config{Solution: s.Name(), Subscribers: 3, Resources: 2, Cycles: 2, Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.ConformanceErr != nil {
			t.Fatalf("%s: %v", s.Name(), res.ConformanceErr)
		}
	}
	fresh := Spec()
	if runSpec.Document() != doc || !slices.Equal(runSpec.Constraints, constraints) ||
		!reflect.DeepEqual(runSpec.Primitives, fresh.Primitives) || !reflect.DeepEqual(runSpec.Roles, fresh.Roles) {
		t.Fatal("deploying through the PIM changed the shared spec")
	}
}

func TestPIMTrajectoryOnAllPlatforms(t *testing.T) {
	pim := PIM(ResourceNames(2))
	for _, target := range mda.ConcretePlatforms() {
		steps, real, err := mda.PlanTrajectory(pim, target)
		if err != nil {
			t.Fatalf("%s: %v", target.Name, err)
		}
		if len(steps) != 5 {
			t.Fatalf("%s: %d steps", target.Name, len(steps))
		}
		switch target.Name {
		case "rpc-corba-like", "msg-jms-like":
			if !real.Direct {
				t.Fatalf("%s: want direct realization", target.Name)
			}
		case "rpc-rmi-like", "queue-mq-like":
			if real.Direct {
				t.Fatalf("%s: want recursive realization", target.Name)
			}
		}
	}
}

func TestMDASolutionsRegistry(t *testing.T) {
	sols := MDASolutions()
	if len(sols) != 4 {
		t.Fatalf("MDASolutions = %d, want 4", len(sols))
	}
	for _, s := range sols {
		if !strings.HasPrefix(s.Name(), "mda-") {
			t.Fatalf("name = %q", s.Name())
		}
		if s.Paradigm() != ParadigmMDA {
			t.Fatalf("%s paradigm = %q", s.Name(), s.Paradigm())
		}
		byName, ok := SolutionByName(s.Name())
		if !ok || byName.Name() != s.Name() {
			t.Fatalf("SolutionByName(%q) failed", s.Name())
		}
		sc := s.Scattering(5)
		if sc.Index() != 0 {
			t.Fatalf("%s: MDA solutions keep app parts clean, index = %v", s.Name(), sc.Index())
		}
	}
	if _, ok := SolutionByName("mda-unknown-platform"); ok {
		t.Fatal("bogus MDA solution resolved")
	}
	if _, err := NewMDASolution("nope"); err == nil {
		t.Fatal("NewMDASolution accepted unknown platform")
	}
}

func TestMDAWorkloadsConformOnAllPlatforms(t *testing.T) {
	spec := safetyLTS(t, 2, 1)
	for _, s := range MDASolutions() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			res, tr, err := runTraced(Config{
				Solution:    s.Name(),
				Subscribers: 2,
				Resources:   1,
				Cycles:      3,
				Seed:        11,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed != res.Expected {
				t.Fatalf("completed %d of %d", res.Completed, res.Expected)
			}
			if res.ConformanceErr != nil {
				t.Fatalf("conformance: %v", res.ConformanceErr)
			}
			if !spec.Accepts(tr.Labels()) {
				t.Fatal("trace rejected by service LTS")
			}
		})
	}
}

func TestMDAAdapterOverheadShape(t *testing.T) {
	// Figure 12's measurable claim: recursive realizations cost more wire
	// messages than direct ones, while remaining conformant.
	run := func(name string) *Result {
		res, err := RunWorkload(Config{Solution: name, Seed: 5, Cycles: 4})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.ConformanceErr != nil {
			t.Fatalf("%s: %v", name, res.ConformanceErr)
		}
		return res
	}
	direct := run("mda-rpc-corba-like")
	recursive := run("mda-rpc-rmi-like")
	queued := run("mda-queue-mq-like")
	if recursive.NetMessages <= direct.NetMessages {
		t.Fatalf("async-over-sync (%d msgs) should exceed direct oneway (%d msgs)",
			recursive.NetMessages, direct.NetMessages)
	}
	if queued.NetMessages <= direct.NetMessages {
		t.Fatalf("async-over-queue (%d msgs) should exceed direct oneway (%d msgs)",
			queued.NetMessages, direct.NetMessages)
	}
	if queued.AcquireLatency.Mean() <= direct.AcquireLatency.Mean() {
		t.Fatalf("broker indirection should add latency: %v vs %v",
			queued.AcquireLatency.Mean(), direct.AcquireLatency.Mean())
	}
}

func TestMDADeploymentIntrospection(t *testing.T) {
	s, err := NewMDASolution("queue-mq-like")
	if err != nil {
		t.Fatal(err)
	}
	if s.Deployment() != nil {
		t.Fatal("deployment set before Build")
	}
	if _, err := RunWorkloadWith(s, Config{Seed: 2, Cycles: 1}); err != nil {
		t.Fatal(err)
	}
	dep := s.Deployment()
	if dep == nil {
		t.Fatal("deployment not recorded")
	}
	if dep.MessagingName() != "async-over-queue" {
		t.Fatalf("messaging = %q", dep.MessagingName())
	}
}
