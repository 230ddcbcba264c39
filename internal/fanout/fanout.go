// Package fanout is the XL pub/sub fan-out workload: one publisher, one
// broker tree (Config.Leaves leaf brokers, or none), and up to a million
// subscriber sinks spread over dense subscriber nodes. It is the scenario the hierarchical broker
// federation (middleware.WithFederation) and the streaming metrics plane
// exist for — populations where any per-subscriber allocation on the
// publish path, or any retained per-sample metric state, would dominate
// memory.
//
// The workload is deterministic in Config: equal configs produce equal
// Results. Deployment order is pinned so transport endpoint ids equal
// network slots equal attach order: leaves first (slots 0..L-1), then
// the root broker, then the publisher, then the subscriber nodes.
package fanout

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/metrics"
	"repro/internal/middleware"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// Config parameterizes one fan-out execution. Zero fields take the
// defaults in applyDefaults, so the zero Config is runnable.
type Config struct {
	// Subscribers is the total sink population; sinks are spread
	// round-robin over Nodes subscriber nodes (Subscribers/Nodes sinks
	// per node share one wire delivery — the broker's per-node dedup).
	Subscribers int
	// Nodes is the subscriber node count — the wire fan-out width.
	Nodes int
	// Leaves is the federation tree's leaf broker count; 0 runs the
	// root-only tree (the comparison baseline), whose root forwards to
	// the subscriber nodes itself. Either way the broker sends one wire
	// message per subscriber node.
	Leaves int
	// Events is the number of publishes, spaced Interval apart.
	Events int
	// PayloadBytes pads each event with an opaque payload of this size.
	PayloadBytes int
	// Interval is the virtual time between publishes. It must exceed
	// the tree's delivery depth (3 × Latency) so publishes never
	// overlap; applyDefaults enforces that.
	Interval time.Duration
	// Latency configures every network link.
	Latency time.Duration
	// Seed fixes the simulation; equal seeds give identical runs.
	Seed int64
}

func (c *Config) applyDefaults() {
	if c.Subscribers <= 0 {
		c.Subscribers = 64
	}
	if c.Nodes <= 0 {
		c.Nodes = 8
	}
	if c.Nodes > c.Subscribers {
		c.Nodes = c.Subscribers
	}
	if c.Events <= 0 {
		c.Events = 4
	}
	if c.PayloadBytes < 0 {
		c.PayloadBytes = 0
	}
	if c.Latency <= 0 {
		c.Latency = time.Millisecond
	}
	if c.Interval <= 3*c.Latency {
		c.Interval = 4 * c.Latency
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Result reports one fan-out execution. Every field is a deterministic
// function of the Config — no wall-clock anywhere.
type Result struct {
	// Delivered counts sink invocations; Expected is
	// Subscribers × Events. A lossless fabric delivers everything.
	Delivered uint64
	Expected  uint64
	// WireMessages/WireBytes are the middleware's own accounting:
	// publisher→root, root→leaf, and leaf→subscriber-node messages
	// (one per node, not per sink — the broker dedups per node).
	WireMessages uint64
	WireBytes    uint64
	// NetMessages/NetBytes count everything on the simulated wire.
	NetMessages uint64
	NetBytes    uint64
	// KernelEvents is the platform-neutral proxy for computational work.
	KernelEvents uint64
	// VirtualDuration is the virtual time consumed by the run.
	VirtualDuration time.Duration
	// BytesPerClient is NetBytes / Subscribers — the whole-run wire
	// cost per subscriber, the O(1)-per-client headline number.
	BytesPerClient float64
	// Latency is the publish→sink delivery latency distribution
	// (streaming histogram: O(1) memory per sample).
	Latency metrics.Histogram
}

// Run executes the fan-out workload. The run is deterministic in Config.
func Run(cfg Config) (*Result, error) {
	cfg.applyDefaults()

	engine := sim.NewKernel(sim.WithSeed(cfg.Seed))
	net := network.New(engine, network.WithDefaultLink(network.LinkConfig{Latency: cfg.Latency}))
	transport := protocol.NewUnreliableDatagram(net)
	profile := middleware.Profile{
		Name:     "fanout",
		Patterns: []middleware.Pattern{middleware.PatternPubSub},
	}
	var opts []middleware.Option
	leaves := make([]middleware.Addr, cfg.Leaves)
	for i := range leaves {
		leaves[i] = middleware.Addr(fmt.Sprintf("leaf%d", i))
	}
	if len(leaves) > 0 {
		opts = append(opts, middleware.WithFederation(leaves...))
	}
	p := middleware.New(engine, transport, profile, "root", opts...)

	// Pin attach order — and therefore transport lows / network slots:
	// leaves 0..L-1, root, publisher, then subscriber nodes. leaf = low
	// mod L then maps leaf i to slot residue i.
	for _, leaf := range leaves {
		if _, err := p.AttachRuntime(leaf); err != nil {
			return nil, fmt.Errorf("fanout: attach %s: %w", leaf, err)
		}
	}
	if _, err := p.AttachRuntime("root"); err != nil {
		return nil, fmt.Errorf("fanout: attach root: %w", err)
	}
	pub := middleware.Addr("pub")
	if _, err := p.AttachRuntime(pub); err != nil {
		return nil, fmt.Errorf("fanout: attach pub: %w", err)
	}

	res := &Result{Expected: uint64(cfg.Subscribers) * uint64(cfg.Events)}

	// One shared sink closure serves every subscription: per-client
	// state stays O(1) (the platform's demux entry) and the engine's
	// serial dispatch makes the shared counters race-free at any K.
	// curPub is valid because Interval > delivery depth, so no two
	// publishes are ever in flight together.
	var curPub time.Duration
	sink := func(v codec.MsgView) {
		res.Delivered++
		res.Latency.Add(engine.Now() - curPub)
	}
	const topic = "feed"
	for s := 0; s < cfg.Subscribers; s++ {
		node := middleware.Addr(fmt.Sprintf("h%d", s%cfg.Nodes))
		if err := p.SubscribeTopicView(topic, node, sink); err != nil {
			return nil, fmt.Errorf("fanout: subscribe %s: %w", node, err)
		}
	}

	pad := make([]byte, cfg.PayloadBytes)
	var pubErr error
	for e := 0; e < cfg.Events; e++ {
		seq := uint64(e)
		engine.ScheduleFunc(time.Duration(e+1)*cfg.Interval, func() {
			curPub = engine.Now()
			ev := codec.NewMessage("ev", codec.Record{"seq": seq, "pad": pad})
			if err := p.Publish(pub, topic, ev); err != nil && pubErr == nil {
				pubErr = err
			}
		})
	}

	if _, err := engine.Run(); err != nil && !errors.Is(err, sim.ErrStopped) {
		return nil, fmt.Errorf("fanout: run: %w", err)
	}
	if pubErr != nil {
		return nil, fmt.Errorf("fanout: publish: %w", pubErr)
	}

	res.VirtualDuration = engine.Now()
	res.KernelEvents = engine.Executed()
	mst := p.Stats()
	res.WireMessages = mst.WireMessages
	res.WireBytes = mst.WireBytes
	nst := net.Stats()
	res.NetMessages = nst.Sent
	res.NetBytes = nst.BytesSent
	res.BytesPerClient = float64(res.NetBytes) / float64(cfg.Subscribers)
	return res, nil
}
