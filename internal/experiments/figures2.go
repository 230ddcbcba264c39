package experiments

import (
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/floorcontrol"
	"repro/internal/mda"
	"repro/internal/metrics"
	"repro/internal/middleware"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/svc"
)

// Fig2ProtocolParadigm reproduces Figure 2: user parts over protocol
// entities over a lower-level service. A two-layer stack is assembled —
// the floor-control callback protocol over the reliable-datagram protocol
// over a lossy physical network — and the traffic at each boundary is
// reported.
func Fig2ProtocolParadigm(seed int64) (*Report, error) {
	kernel := sim.NewKernel(sim.WithSeed(seed))
	net := network.New(kernel, network.WithDefaultLink(network.LinkConfig{
		Latency:  time.Millisecond,
		LossRate: 0.2,
	}))
	observer, err := core.NewObserver(floorcontrol.Spec(), kernel)
	if err != nil {
		return nil, err
	}
	reliable := protocol.NewReliableDatagram(kernel, protocol.NewUnreliableDatagram(net), protocol.ReliableDatagramConfig{})
	env := &floorcontrol.Env{
		Time:        kernel,
		Net:         net,
		Observer:    observer,
		Subscribers: floorcontrol.SubscriberNames(3),
		Resources:   floorcontrol.ResourceNames(1),
		Lower:       reliable,
	}
	parts, err := (&floorcontrol.ProtoCallback{}).Build(env)
	if err != nil {
		return nil, err
	}
	done := 0
	for _, sub := range env.Subscribers {
		part := parts[sub]
		res := "r1"
		part.Acquire(res, func(p floorcontrol.AppPart, r string) func() {
			return func() {
				kernel.Schedule(2*time.Millisecond, func() {
					p.Release(r)
					done++
				})
			}
		}(part, res))
	}
	if _, err := kernel.Run(); err != nil {
		return nil, err
	}
	if verr := observer.Complete(); verr != nil {
		return nil, fmt.Errorf("fig2: conformance: %w", verr)
	}
	table := metrics.NewTable("Figure 2 — protocol-centred structure, traffic per boundary",
		"boundary", "unit", "count")
	table.AddRow("service (SAP primitives)", "primitives", fmt.Sprintf("%d", observer.EventCount()))
	layerStats := env.Layer.Stats()
	table.AddRow("application protocol", "PDUs sent", fmt.Sprintf("%d", layerStats.PDUsSent))
	rs := reliable.Stats()
	table.AddRow("reliable-datagram layer", "data+acks sent", fmt.Sprintf("%d", rs.DataSent+rs.AcksSent))
	table.AddRow("reliable-datagram layer", "retransmits", fmt.Sprintf("%d", rs.Retransmits))
	ns := net.Stats()
	table.AddRow("physical network (20% loss)", "datagrams sent", fmt.Sprintf("%d", ns.Sent))
	table.AddRow("physical network (20% loss)", "datagrams dropped", fmt.Sprintf("%d", ns.Dropped))
	return &Report{
		ID:    "F2",
		Title: "layered protocol structure: each layer's service visible at its boundary",
		Table: table,
		Notes: []string{fmt.Sprintf("%d/%d acquire cycles completed; conformance verified at the service boundary", done, 3)},
	}, nil
}

// Fig3MiddlewareParadigm reproduces Figure 3: components interacting
// through the interaction patterns a middleware platform offers, one row
// per pattern — all of them driven through typed svc ports, the
// application-facing face of the platform.
func Fig3MiddlewareParadigm(seed int64) (*Report, error) {
	kernel := sim.NewKernel(sim.WithSeed(seed))
	net := network.New(kernel, network.WithDefaultLink(network.LinkConfig{Latency: time.Millisecond}))
	transport := protocol.NewReliableDatagram(kernel, protocol.NewUnreliableDatagram(net), protocol.ReliableDatagramConfig{})
	platform := middleware.New(kernel, transport, middleware.ProfileCORBALike, "broker")

	service, err := svc.New(&core.ServiceSpec{
		Name:        "fig3-patterns",
		Description: "one operation per middleware interaction pattern",
		Primitives: []core.PrimitiveDef{
			{Name: "echo", Direction: core.FromUser, Params: []core.ParamDef{{Name: "i", Kind: core.KindInt}}},
			{Name: "put", Direction: core.FromUser, Params: []core.ParamDef{{Name: "i", Kind: core.KindInt}}},
			{Name: "flash", Direction: core.ToUser},
		},
	})
	if err != nil {
		return nil, err
	}
	b, err := service.Bind(platform,
		middleware.PatternRPC, middleware.PatternOneway, middleware.PatternPubSub)
	if err != nil {
		return nil, err
	}

	// The server component: a typed export echoing its argument record,
	// marshalled through the generic Record adapters.
	enc := svc.RecordEncoder(func(r codec.Record) codec.Record { return r })
	dec := svc.RecordDecoder(func(r codec.Record) (codec.Record, error) { return r, nil })
	e, err := b.NewExport("server", "node-s")
	if err != nil {
		return nil, err
	}
	err = svc.HandleOp(e, "echo", dec, enc,
		func(req codec.Record, respond func(codec.Record, error)) { respond(req, nil) })
	if err != nil {
		return nil, err
	}
	err = svc.HandleOp(e, "put", dec, enc,
		func(req codec.Record, respond func(codec.Record, error)) { respond(req, nil) })
	if err != nil {
		return nil, err
	}
	if err := e.Register(); err != nil {
		return nil, err
	}

	rpcDone, onewayDone, eventsDone := 0, 0, 0
	for _, node := range []middleware.Addr{"node-a", "node-b"} {
		if _, err := svc.NewTopicSource(b, "news", node,
			func(codec.MsgView) (struct{}, error) { return struct{}{}, nil },
			func(struct{}) { eventsDone++ }); err != nil {
			return nil, err
		}
	}
	echoPort, err := svc.NewPort(b, "server", "echo", enc, dec)
	if err != nil {
		return nil, err
	}
	putSink, err := svc.NewOnewaySink(b, "server", "put", enc)
	if err != nil {
		return nil, err
	}
	newsSink, err := svc.NewTopicSink(b, "news", func(struct{}) codec.Message { return codec.NewMessage("flash", nil) })
	if err != nil {
		return nil, err
	}
	const rounds = 5
	for i := 0; i < rounds; i++ {
		if err := echoPort.Call("node-c", codec.Record{"i": int64(i)},
			func(codec.Record, error) { rpcDone++ }); err != nil {
			return nil, err
		}
		if err := putSink.Send("node-c", codec.Record{"i": int64(i)}); err != nil {
			return nil, err
		}
		onewayDone++
		if err := newsSink.Send("node-c", struct{}{}); err != nil {
			return nil, err
		}
	}
	if _, err := kernel.Run(); err != nil {
		return nil, err
	}
	st := platform.Stats()
	table := metrics.NewTable("Figure 3 — middleware-centred structure, one row per interaction pattern",
		"pattern", "interactions", "wire messages (implicit protocol)")
	table.AddRow("request/response", fmt.Sprintf("%d calls, %d replies", st.Calls, st.Replies), fmt.Sprintf("%d", 2*st.Calls))
	table.AddRow("message passing (oneway)", fmt.Sprintf("%d", st.Oneways), fmt.Sprintf("%d", st.Oneways))
	table.AddRow("events (pub/sub)", fmt.Sprintf("%d published, %d delivered", st.Publishes, st.EventDeliver), fmt.Sprintf("%d", st.Publishes+st.EventDeliver))
	if rpcDone != rounds {
		return nil, fmt.Errorf("fig3: rpc completed %d of %d", rpcDone, rounds)
	}
	return &Report{
		ID:    "F3",
		Title: "components interacting through middleware interaction patterns",
		Table: table,
		Notes: []string{
			fmt.Sprintf("total wire messages %d, bytes %d — the middleware 'transforms' the interactions into (implicit) protocols (§3)", st.WireMessages, st.WireBytes),
		},
	}, nil
}

// Fig8MiddlewareView reproduces Figure 8: the interaction system *provided
// by the middleware* as a separate object of design. The middleware's
// internal transport is swapped (reliable-datagram protocol vs raw
// datagrams) under the same components; the application-level trace is
// unchanged.
func Fig8MiddlewareView(seed int64) (*Report, error) {
	base := floorcontrol.Config{
		Solution:    "mw-callback",
		Subscribers: 3,
		Resources:   2,
		Cycles:      4,
		Seed:        seed,
	}
	var reliableTrace, rawTrace core.Trace
	base.Trace = &reliableTrace
	overReliable, err := floorcontrol.RunWorkload(base)
	if err != nil {
		return nil, err
	}
	raw := base
	raw.RawTransport = true
	raw.Trace = &rawTrace
	overRaw, err := floorcontrol.RunWorkload(raw)
	if err != nil {
		return nil, err
	}
	same := traceLabelsEqual(reliableTrace, rawTrace)
	table := metrics.NewTable("Figure 8 — middleware transport swapped beneath unchanged components",
		"middleware internal transport", "net msgs", "net bytes", "app-level trace")
	table.AddRow("reliable-datagram protocol", fmt.Sprintf("%d", overReliable.NetMessages), fmt.Sprintf("%d", overReliable.NetBytes), "baseline")
	verdict := "identical to baseline"
	if !same {
		verdict = "DIFFERS (unexpected)"
	}
	table.AddRow("raw datagrams (lossless)", fmt.Sprintf("%d", overRaw.NetMessages), fmt.Sprintf("%d", overRaw.NetBytes), verdict)
	if !same {
		return nil, fmt.Errorf("fig8: app-level traces differ across middleware transports")
	}
	return &Report{
		ID:    "F8",
		Title: "the middleware-provided interaction system as a separate object of design",
		Table: table,
		Notes: []string{"identical primitive sequences at every SAP: components are insulated from the middleware's internal protocol choice"},
	}, nil
}

func traceLabelsEqual(a, b core.Trace) bool {
	la, lb := a.Labels(), b.Labels()
	if len(la) != len(lb) {
		return false
	}
	for i := range la {
		if la[i] != lb[i] {
			return false
		}
	}
	return true
}

// Fig9InteractionSystemView reproduces Figure 9: the application-dependent
// interaction system as a separate object of design. The three protocol
// solutions are swapped behind the same service boundary; the user parts
// (one shared implementation) and their SAP-local disciplines are
// unchanged, and every run satisfies the same service.
func Fig9InteractionSystemView(seed int64) (*Report, error) {
	spec := floorcontrol.ServiceLTS(floorcontrol.SubscriberNames(2), floorcontrol.ResourceNames(1))
	table := metrics.NewTable("Figure 9 — protocol swapped behind the same floor-control service",
		"interaction system", "PDU types", "net msgs", "service trace in service LTS", "app part impl")
	for _, name := range []string{"proto-callback", "proto-polling", "proto-token"} {
		var tr core.Trace
		res, err := floorcontrol.RunWorkload(floorcontrol.Config{
			Solution:    name,
			Subscribers: 2,
			Resources:   1,
			Cycles:      3,
			Seed:        seed,
			Trace:       &tr,
		})
		if err != nil {
			return nil, err
		}
		accepted := spec.Accepts(tr.Labels())
		verdict := "accepted"
		if !accepted {
			return nil, fmt.Errorf("fig9: %s trace rejected by service LTS", name)
		}
		pduTypes := map[string]int{
			"proto-callback": 3, // request, granted, free
			"proto-polling":  3, // is_available_req, is_available_resp, free
			"proto-token":    1, // pass
		}
		table.AddRow(name, fmt.Sprintf("%d", pduTypes[name]), fmt.Sprintf("%d", res.NetMessages), verdict, "serviceAppPart (shared)")
	}
	return &Report{
		ID:    "F9",
		Title: "the application-dependent interaction system as a separate object of design",
		Table: table,
		Notes: []string{"all three protocols implement the same service: user parts are written once against core.Provider"},
	}, nil
}

// Fig10Trajectory reproduces Figure 10: one platform-independent design
// realized down both branches of the platform-selection tree, executed and
// verified on all four concrete platforms.
func Fig10Trajectory(seed int64) (*Report, error) {
	table := metrics.NewTable("Figure 10 — MDA design trajectory: one PIM, four concrete platforms",
		"concrete platform", "class", "realization", "net msgs", "lat mean", "conformance")
	for _, target := range mda.ConcretePlatforms() {
		sol := &floorcontrol.MDASolution{Target: target}
		res, err := floorcontrol.RunWorkloadWith(sol, floorcontrol.Config{
			Subscribers: 3,
			Resources:   2,
			Cycles:      5,
			Seed:        seed,
		})
		if err != nil {
			return nil, err
		}
		conf := "conforms"
		if res.ConformanceErr != nil {
			return nil, fmt.Errorf("fig10: %s: %w", target.Name, res.ConformanceErr)
		}
		realization := "direct"
		if dep := sol.Deployment(); dep != nil && !dep.Realization().Direct {
			realization = dep.MessagingName()
		}
		table.AddRow(target.Name, target.Class, realization,
			fmt.Sprintf("%d", res.NetMessages),
			res.AcquireLatency.Mean().Round(10*time.Microsecond).String(),
			conf)
	}
	return &Report{
		ID:    "F10",
		Title: "platform selection: RPC-based and asynchronous-messaging branches from one PIM",
		Table: table,
		Notes: []string{"the same platform-independent service logic and the same user parts ran in all four rows"},
	}, nil
}

// Fig11Milestones reproduces Figure 11: the design-trajectory milestones
// and their artifacts for one target.
func Fig11Milestones(seed int64) (*Report, error) {
	pim := floorcontrol.PIM(floorcontrol.ResourceNames(2))
	target, _ := mda.ConcretePlatformByName("rpc-corba-like")
	steps, _, err := mda.PlanTrajectory(pim, target)
	if err != nil {
		return nil, err
	}
	table := metrics.NewTable("Figure 11 — milestones in the model-driven design trajectory",
		"milestone", "artifact")
	for _, s := range steps {
		table.AddRow(string(s.Milestone), s.Detail)
	}
	return &Report{
		ID:    "F11",
		Title: "service definition and platform-independent service design as milestones",
		Table: table,
		Notes: []string{fmt.Sprintf("(seed %d unused: milestones are deterministic design artifacts)", seed)},
	}, nil
}

// Fig12Recursion reproduces Figure 12: recursive application of the
// service concept. For every concrete platform the realization decision is
// shown, and measured adapter overhead is reported relative to the direct
// realization.
func Fig12Recursion(seed int64) (*Report, error) {
	pim := floorcontrol.PIM(floorcontrol.ResourceNames(2))
	table := metrics.NewTable("Figure 12 — recursive application of the service concept",
		"concrete platform", "realization", "abstract-platform service logic", "net msgs", "overhead vs direct")
	var baseline float64
	type row struct {
		name, realization, adapters string
		msgs                        uint64
	}
	var rows []row
	for _, target := range mda.ConcretePlatforms() {
		_, realization, err := mda.PlanTrajectory(pim, target)
		if err != nil {
			return nil, err
		}
		res, err := floorcontrol.RunWorkload(floorcontrol.Config{
			Solution:    "mda-" + target.Name,
			Subscribers: 3,
			Resources:   2,
			Cycles:      5,
			Seed:        seed,
		})
		if err != nil {
			return nil, err
		}
		if res.ConformanceErr != nil {
			return nil, fmt.Errorf("fig12: %s: %w", target.Name, res.ConformanceErr)
		}
		kind, adapters := "direct", "-"
		if !realization.Direct {
			kind = "recursive"
			names := make([]string, len(realization.Adapters))
			for i, a := range realization.Adapters {
				names[i] = a.Rule.Name
			}
			adapters = join(names)
		} else if baseline == 0 {
			baseline = float64(res.NetMessages)
		}
		rows = append(rows, row{target.Name, kind, adapters, res.NetMessages})
	}
	for _, r := range rows {
		overhead := "1.00×"
		if baseline > 0 {
			overhead = fmt.Sprintf("%.2f×", float64(r.msgs)/baseline)
		}
		table.AddRow(r.name, r.realization, r.adapters, fmt.Sprintf("%d", r.msgs), overhead)
	}
	return &Report{
		ID:    "F12",
		Title: "abstract-platform realization: direct conformance vs recursive service design",
		Table: table,
		Notes: []string{
			"recursive realizations stay conformant; their cost is the adapter's wire amplification",
			"the alternative — direct transformation with no preserved border — is the middleware paradigm of Figure 4 (compare F4 vs F10 rows)",
		},
	}, nil
}

func join(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += "+"
		}
		out += p
	}
	return out
}
