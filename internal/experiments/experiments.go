// Package experiments regenerates every figure of the paper as a printed,
// measured artifact, plus three ablations. The paper is conceptual — its
// figures are structural diagrams and design alternatives, not measurement
// plots — so each experiment executes the structure the figure depicts and
// reports the quantities that substantiate the paper's qualitative claims
// (see DESIGN.md §3 for the full index and EXPERIMENTS.md for recorded
// outcomes).
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/floorcontrol"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/sim"
)

// Report is the printed outcome of one experiment.
type Report struct {
	ID    string
	Title string
	Table *metrics.Table
	Notes []string
}

// String renders the report.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s: %s ===\n", r.ID, r.Title)
	sb.WriteString(r.Table.String())
	for _, n := range r.Notes {
		sb.WriteString("note: ")
		sb.WriteString(n)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Generator produces one report deterministically from a seed.
type Generator func(seed int64) (*Report, error)

// Descriptor is the scenario descriptor of one experiment: a stable ID, a
// short title for listings, and the generator. Sweep harnesses (see
// internal/runner) consume descriptors rather than bare generator
// functions.
type Descriptor struct {
	ID    string
	Title string
	Gen   Generator
}

// All returns every experiment descriptor in DESIGN.md order.
func All() []Descriptor {
	return []Descriptor{
		{"F1", "model of a distributed system", Fig1DistributedSystem},
		{"F2", "protocol-centred paradigm, traffic per boundary", Fig2ProtocolParadigm},
		{"F3", "middleware-centred paradigm, interaction patterns", Fig3MiddlewareParadigm},
		{"F4", "middleware-centred floor-control solutions", Fig4MiddlewareSolutions},
		{"F5", "floor-control service conformance", Fig5ServiceConformance},
		{"F6", "protocol-centred floor-control solutions", Fig6ProtocolSolutions},
		{"F7", "scattering of interaction functionality", Fig7Scattering},
		{"F8", "middleware view: swapping the interaction system", Fig8MiddlewareView},
		{"F9", "application-dependent interaction system view", Fig9InteractionSystemView},
		{"F10", "MDA trajectory: one PIM, four platforms", Fig10Trajectory},
		{"F11", "service milestones in the design trajectory", Fig11Milestones},
		{"F12", "recursive abstract-platform realization", Fig12Recursion},
		{"A1", "ablation: polling interval sweep", AblationPollingSweep},
		{"A2", "ablation: subscriber scaling", AblationScaling},
		{"A3", "ablation: loss tolerance", AblationLoss},
		{"C1", "case study: ordered chat", CaseStudyChat},
	}
}

// ByID finds a generator.
func ByID(id string) (Generator, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e.Gen, true
		}
	}
	return nil, false
}

// Fig1DistributedSystem reproduces Figure 1: a distributed system as
// interacting application parts. Each part sends one message to every
// other part over the simulated network.
func Fig1DistributedSystem(seed int64) (*Report, error) {
	kernel := sim.NewKernel(sim.WithSeed(seed))
	net := network.New(kernel, network.WithDefaultLink(network.LinkConfig{Latency: time.Millisecond}))
	const parts = 4
	received := make([]int, parts)
	nodes := make([]network.NodeID, parts)
	slots := make([]network.Slot, parts)
	for i := range nodes {
		nodes[i] = network.NodeID(fmt.Sprintf("app-part-%d", i+1))
		s, err := net.Register(nodes[i], func(network.Slot, []byte) { received[i]++ })
		if err != nil {
			return nil, err
		}
		slots[i] = s
	}
	for i, src := range slots {
		for _, dst := range slots {
			if src != dst {
				if err := net.SendSlot(src, dst, []byte("hello from "+nodes[i])); err != nil {
					return nil, err
				}
			}
		}
	}
	if _, err := kernel.Run(); err != nil {
		return nil, err
	}
	table := metrics.NewTable("Figure 1 — model of a distributed system (application)",
		"app part", "messages received")
	for i, id := range nodes {
		table.AddRow(string(id), fmt.Sprintf("%d", received[i]))
	}
	st := net.Stats()
	return &Report{
		ID:    "F1",
		Title: "distributed application parts interacting over the simulated network",
		Table: table,
		Notes: []string{fmt.Sprintf("network totals: sent=%d delivered=%d bytes=%d", st.Sent, st.Delivered, st.BytesSent)},
	}, nil
}

// Fig5ServiceConformance reproduces Figure 5: the floor-control service
// definition, shown with the conformance machinery accepting a valid run
// and rejecting each class of violation.
func Fig5ServiceConformance(seed int64) (*Report, error) {
	kernel := sim.NewKernel(sim.WithSeed(seed))
	spec := floorcontrol.Spec()
	scenarios := []struct {
		name   string
		events [][3]string // sub, primitive, resource
		wantOK bool
	}{
		{"conforming cycle", [][3]string{
			{"s1", "request", "r1"}, {"s1", "granted", "r1"}, {"s1", "free", "r1"},
		}, true},
		{"granted without request", [][3]string{
			{"s1", "granted", "r1"},
		}, false},
		{"double grant (remote constraint)", [][3]string{
			{"s1", "request", "r1"}, {"s2", "request", "r1"},
			{"s1", "granted", "r1"}, {"s2", "granted", "r1"},
		}, false},
		{"free before granted", [][3]string{
			{"s1", "request", "r1"}, {"s1", "free", "r1"},
		}, false},
		{"request never granted (liveness)", [][3]string{
			{"s1", "request", "r1"},
		}, false},
	}
	table := metrics.NewTable("Figure 5 — the floor-control service, checked",
		"scenario", "verdict", "violated constraint")
	request, _ := spec.Primitive(floorcontrol.PrimRequest)
	params := request.Schema() // every primitive carries {resid}
	for _, sc := range scenarios {
		obs, err := core.NewObserver(spec, kernel)
		if err != nil {
			return nil, err
		}
		for _, e := range sc.events {
			enc := params.Encoder(nil)
			enc.Str(floorcontrol.ParamResource, e[2])
			rec, _ := enc.Finish()
			_ = obs.Observe(floorcontrol.SubscriberSAP(e[0]), e[1], rec) //nolint:errcheck
		}
		verr := obs.Complete()
		verdict := "conforms"
		constraint := "-"
		if verr != nil {
			verdict = "violation"
			if v, ok := core.AsViolation(verr); ok {
				constraint = v.Constraint
			}
		}
		if (verr == nil) != sc.wantOK {
			return nil, fmt.Errorf("scenario %q: verdict %v, want ok=%v", sc.name, verr, sc.wantOK)
		}
		table.AddRow(sc.name, verdict, constraint)
	}
	return &Report{
		ID:    "F5",
		Title: "floor-control service definition with machine-checked constraints",
		Table: table,
		Notes: []string{"service document:\n" + spec.Document()},
	}, nil
}

// solutionRow renders the standard measurement row for one workload run.
func solutionRow(table *metrics.Table, res *floorcontrol.Result) {
	conf := "conforms"
	if res.ConformanceErr != nil {
		conf = "VIOLATION: " + res.ConformanceErr.Error()
	}
	table.AddRow(
		res.Solution,
		res.Figure,
		fmt.Sprintf("%d/%d", res.Completed, res.Expected),
		fmt.Sprintf("%d", res.ParadigmMessages),
		fmt.Sprintf("%d", res.NetMessages),
		fmt.Sprintf("%d", res.NetBytes),
		res.AcquireLatency.Mean().Round(10*time.Microsecond).String(),
		res.AcquireLatency.P95().Round(10*time.Microsecond).String(),
		conf,
	)
}

func solutionTable(title string) *metrics.Table {
	return metrics.NewTable(title,
		"solution", "figure", "cycles", "paradigm msgs", "net msgs", "net bytes", "lat mean", "lat p95", "conformance")
}

// fig46 runs a set of solutions under the standard comparison workload.
func fig46(id, title string, names []string, seed int64) (*Report, error) {
	table := solutionTable(title)
	cfg := floorcontrol.Config{
		Subscribers: 4,
		Resources:   2,
		Cycles:      6,
		Seed:        seed,
	}
	for _, name := range names {
		cfg.Solution = name
		res, err := floorcontrol.RunWorkload(cfg)
		if err != nil {
			return nil, err
		}
		solutionRow(table, res)
	}
	return &Report{
		ID:    id,
		Title: title,
		Table: table,
		Notes: []string{"workload: 4 subscribers × 6 cycles over 2 resources; 1ms links; identical seed per solution"},
	}, nil
}

// Fig4MiddlewareSolutions reproduces Figure 4: the three middleware-centred
// floor-control solutions under identical load.
func Fig4MiddlewareSolutions(seed int64) (*Report, error) {
	return fig46("F4", "Figure 4 — middleware-centred solutions (callback, polling, token)",
		[]string{"mw-callback", "mw-polling", "mw-token"}, seed)
}

// Fig6ProtocolSolutions reproduces Figure 6: the three protocol-centred
// solutions under the same load as Figure 4.
func Fig6ProtocolSolutions(seed int64) (*Report, error) {
	return fig46("F6", "Figure 6 — protocol-centred solutions (callback, polling, token)",
		[]string{"proto-callback", "proto-polling", "proto-token"}, seed)
}

// Fig7Scattering reproduces Figure 7: where the interaction functionality
// resides, per solution.
func Fig7Scattering(seed int64) (*Report, error) {
	const subs = 4
	table := metrics.NewTable("Figure 7 — interaction functionality scattered across application parts (4 subscribers)",
		"solution", "paradigm", "ops in app parts", "ops in controller part", "ops in interaction system", "scattering index")
	sols := floorcontrol.Solutions()
	for _, m := range floorcontrol.MDASolutions() {
		sols = append(sols, m)
	}
	for _, s := range sols {
		sc := s.Scattering(subs)
		table.AddRow(
			s.Name(),
			string(s.Paradigm()),
			fmt.Sprintf("%d", sc.AppPartOps),
			fmt.Sprintf("%d", sc.ControllerOps),
			fmt.Sprintf("%d", sc.InteractionSystemOps),
			fmt.Sprintf("%.2f", sc.Index()),
		)
	}
	return &Report{
		ID:    "F7",
		Title: "structural residence of interaction functionality",
		Table: table,
		Notes: []string{
			"index 1.00 = fully scattered into application parts (middleware paradigm)",
			"index 0.00 = fully concentrated behind the service boundary (protocol paradigm and MDA trajectory)",
			fmt.Sprintf("(seed %d unused: the metric is structural, not stochastic)", seed),
		},
	}, nil
}
