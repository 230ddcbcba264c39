package middleware

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/codec"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// The tests in this file pin the federated broker tree: leaf shard
// assignment, encode-once forwarding, per-node dedup, wire accounting,
// and the configuration errors.

func federatedPlatform(t *testing.T, leaves ...Addr) (*Platform, *sim.Kernel) {
	t.Helper()
	kernel := sim.NewKernel(sim.WithSeed(11))
	net := network.New(kernel)
	profile := Profile{
		Name:     "test-fed",
		Patterns: []Pattern{PatternQueue, PatternPubSub},
	}
	p := New(kernel, protocol.NewUnreliableDatagram(net), profile, "root", WithFederation(leaves...))
	// Pin attach order: leaves first (transport ids 0..L-1), then the
	// root — the deployment order XL scenarios use so leaf id % L maps
	// every leaf to its own shard row.
	for _, leaf := range leaves {
		if _, err := p.AttachRuntime(leaf); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.AttachRuntime("root"); err != nil {
		t.Fatal(err)
	}
	return p, kernel
}

// TestFederatedFanout publishes through a two-leaf tree and checks
// every sink fires exactly once per publish, across both leaf shards.
func TestFederatedFanout(t *testing.T) {
	p, kernel := federatedPlatform(t, "leaf0", "leaf1")
	const nodes = 8
	got := make(map[string]int)
	for i := 0; i < nodes; i++ {
		node := Addr(fmt.Sprintf("n%d", i))
		if err := p.SubscribeTopicView("ticks", node, func(v codec.MsgView) {
			if name, _ := v.Str("name"); string(name) != "tick" {
				t.Errorf("node %s got message %q", node, name)
			}
			got[string(node)]++
		}); err != nil {
			t.Fatal(err)
		}
	}
	const events = 3
	for e := 0; e < events; e++ {
		if err := p.Publish("pub", "ticks", codec.NewMessage("tick", codec.Record{"seq": uint64(e)})); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != nodes {
		t.Fatalf("only %d of %d nodes saw events", len(got), nodes)
	}
	for node, n := range got {
		if n != events {
			t.Errorf("node %s saw %d events, want %d", node, n, events)
		}
	}
	st := p.Stats()
	if st.EventDeliver != uint64(nodes*events) {
		t.Errorf("EventDeliver = %d, want %d", st.EventDeliver, nodes*events)
	}
	// Wire messages per publish: pub→root, root→each non-empty leaf,
	// leaf→each subscriber node.
	wantWire := uint64(events) * uint64(1+2+nodes)
	if st.WireMessages != wantWire {
		t.Errorf("WireMessages = %d, want %d", st.WireMessages, wantWire)
	}
	if st.Publishes != events {
		t.Errorf("Publishes = %d, want %d", st.Publishes, events)
	}
}

// TestFederatedNodeDedup subscribes several sinks at one node and
// checks the leaf forwards one wire message per node, demuxed to every
// sink — the federated path must not multiply wire traffic by sinks.
func TestFederatedNodeDedup(t *testing.T) {
	p, kernel := federatedPlatform(t, "leaf0")
	var a1, a2, b int
	if err := p.SubscribeTopicView("floor", "shared", func(codec.MsgView) { a1++ }); err != nil {
		t.Fatal(err)
	}
	if err := p.SubscribeTopicView("floor", "shared", func(codec.MsgView) { a2++ }); err != nil {
		t.Fatal(err)
	}
	if err := p.SubscribeTopicView("floor", "other", func(codec.MsgView) { b++ }); err != nil {
		t.Fatal(err)
	}
	if err := p.Publish("pub", "floor", codec.NewMessage("grant", nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if a1 != 1 || a2 != 1 || b != 1 {
		t.Fatalf("sink fires = %d/%d/%d, want 1/1/1", a1, a2, b)
	}
	st := p.Stats()
	// pub→root, root→leaf0, leaf0→{shared, other}: the shared node gets
	// ONE wire message for its two sinks.
	if st.WireMessages != 4 {
		t.Fatalf("WireMessages = %d, want 4 (per-node dedup)", st.WireMessages)
	}
	if st.EventDeliver != 2 {
		t.Fatalf("EventDeliver = %d, want 2 subscriber nodes", st.EventDeliver)
	}
}

// TestFederatedShardAssignment checks leaf = transport id % L: with
// leaves attached first, subscriber nodes land in the shard row of the
// leaf owning their slot residue.
func TestFederatedShardAssignment(t *testing.T) {
	p, kernel := federatedPlatform(t, "leaf0", "leaf1")
	// Attach subscribers in a known order: transport ids 3, 4, 5, 6
	// (leaves hold 0-1, root holds 2).
	subs := []Addr{"s3", "s4", "s5", "s6"}
	for _, s := range subs {
		if err := p.SubscribeTopicView("t", s, func(codec.MsgView) {}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Publish("pub", "t", codec.NewMessage("e", nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := kernel.Run(); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	tt := p.topics["t"]
	shard0, shard1 := tt.rows[0], tt.rows[1]
	p.mu.Unlock()
	want0, want1 := []int32{4, 6}, []int32{3, 5}
	if len(shard0) != len(want0) || shard0[0] != want0[0] || shard0[1] != want0[1] {
		t.Fatalf("leaf0 shard = %v, want %v", shard0, want0)
	}
	if len(shard1) != len(want1) || shard1[0] != want1[0] || shard1[1] != want1[1] {
		t.Fatalf("leaf1 shard = %v, want %v", shard1, want1)
	}
}

// TestFederatedMatchesFlatDeliveries runs the same pub/sub scenario
// flat (the zero-leaf tree) and federated, with two nodes carrying two
// sinks each, and requires identical per-sink delivery sequences and
// EventDeliver counts — federation changes the wire topology, not
// observable delivery semantics.
func TestFederatedMatchesFlatDeliveries(t *testing.T) {
	run := func(federated bool) (map[string][]uint64, uint64) {
		kernel := sim.NewKernel(sim.WithSeed(5))
		net := network.New(kernel)
		profile := Profile{Name: "cmp", Patterns: []Pattern{PatternPubSub}}
		var opts []Option
		if federated {
			opts = append(opts, WithFederation("leaf0", "leaf1", "leaf2"))
		}
		p := New(kernel, protocol.NewUnreliableDatagram(net), profile, "root", opts...)
		got := make(map[string][]uint64)
		for i := 0; i < 8; i++ {
			node := Addr(fmt.Sprintf("n%d", i%6))
			sink := fmt.Sprintf("%s/%d", node, i)
			if err := p.SubscribeTopicView("x", node, func(v codec.MsgView) {
				fields, _ := v.View("fields")
				seq, _ := fields.Uint("seq")
				got[sink] = append(got[sink], seq)
			}); err != nil {
				t.Fatal(err)
			}
		}
		for e := 0; e < 5; e++ {
			if err := p.Publish("pub", "x", codec.NewMessage("e", codec.Record{"seq": uint64(e)})); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := kernel.Run(); err != nil {
			t.Fatal(err)
		}
		return got, p.Stats().EventDeliver
	}
	flat, flatDeliver := run(false)
	fed, fedDeliver := run(true)
	if len(flat) != 8 || len(fed) != len(flat) {
		t.Fatalf("sink sets differ: flat %d, federated %d, want 8", len(flat), len(fed))
	}
	want := []uint64{0, 1, 2, 3, 4}
	for sink, seqs := range flat {
		fs := fed[sink]
		if fmt.Sprint(seqs) != fmt.Sprint(want) || fmt.Sprint(fs) != fmt.Sprint(want) {
			t.Fatalf("sink %s: flat saw %v, federated saw %v, want %v", sink, seqs, fs, want)
		}
	}
	if flatDeliver != 6*5 || fedDeliver != flatDeliver {
		t.Fatalf("EventDeliver: flat %d, federated %d, want %d (subscriber nodes × events)", flatDeliver, fedDeliver, 6*5)
	}
}

// TestFederationQueuesUnaffected pins that queues stay on the root
// broker under federation.
func TestFederationQueuesUnaffected(t *testing.T) {
	p, kernel := federatedPlatform(t, "leaf0")
	if err := p.QueueDeclare("work"); err != nil {
		t.Fatal(err)
	}
	var got []string
	if err := p.QueueSubscribe("work", "consumer", func(v codec.MsgView) {
		got = append(got, msgName(v))
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.QueuePut("producer", "work", "job", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "job" {
		t.Fatalf("queue delivered %v, want [job]", got)
	}
}

// TestFederationErrors pins the configuration guard rails.
func TestFederationErrors(t *testing.T) {
	p, _ := federatedPlatform(t, "leaf0", "leaf1")
	if err := p.SubscribeTopicView("t", "leaf1", func(codec.MsgView) {}); !errors.Is(err, ErrFederation) {
		t.Fatalf("subscribing at a leaf: err = %v, want ErrFederation", err)
	}
	if err := p.SubscribeTopicView("t", "root", func(codec.MsgView) {}); !errors.Is(err, ErrFederation) {
		t.Fatalf("subscribing at the root: err = %v, want ErrFederation", err)
	}

	// A name-only transport federates through protocol.AsIndexed: every
	// event reaches every subscriber, exactly as over the indexed one.
	direct := federatedDeliveries(t, func(l protocol.LowerService) protocol.LowerService { return l })
	named := federatedDeliveries(t, func(l protocol.LowerService) protocol.LowerService {
		return struct{ protocol.LowerService }{l}
	})
	if direct != fedNodes*fedEvents || named != direct {
		t.Fatalf("delivered %d over the name-only transport, %d over the indexed one; want %d both",
			named, direct, fedNodes*fedEvents)
	}

	// WithFederation with no leaves is the zero-leaf tree, not a broken
	// one: the root owns each topic's single row, and still cannot
	// subscribe.
	kernel := sim.NewKernel()
	r := New(kernel, protocol.NewUnreliableDatagram(network.New(kernel)), Profile{Name: "y", Patterns: []Pattern{PatternPubSub}}, "root2",
		WithFederation())
	if err := r.SubscribeTopicView("t", "n0", func(codec.MsgView) {}); err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	leaves, rows := len(r.leaves), len(r.topics["t"].rows)
	r.mu.Unlock()
	if leaves != 0 || rows != 1 {
		t.Fatalf("zero-leaf federation: %d leaves, %d rows; want 0 and the root's single row", leaves, rows)
	}
	if err := r.SubscribeTopicView("t", "root2", func(codec.MsgView) {}); !errors.Is(err, ErrFederation) {
		t.Fatalf("subscribing at the zero-leaf root: err = %v, want ErrFederation", err)
	}
}

const fedNodes, fedEvents = 6, 4

// federatedDeliveries publishes fedEvents events through a two-leaf
// tree over wrap(udp) to fedNodes subscriber nodes and returns the
// number of sink fires.
func federatedDeliveries(t *testing.T, wrap func(protocol.LowerService) protocol.LowerService) int {
	t.Helper()
	kernel := sim.NewKernel(sim.WithSeed(11))
	p := New(kernel, wrap(protocol.NewUnreliableDatagram(network.New(kernel))),
		Profile{Name: "x", Patterns: []Pattern{PatternPubSub}}, "root", WithFederation("leaf0", "leaf1"))
	delivered := 0
	for i := 0; i < fedNodes; i++ {
		if err := p.SubscribeTopicView("t", Addr(fmt.Sprintf("n%d", i)), func(codec.MsgView) { delivered++ }); err != nil {
			t.Fatal(err)
		}
	}
	for e := 0; e < fedEvents; e++ {
		if err := p.Publish("pub", "t", codec.NewMessage("tick", nil)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := kernel.Run(); err != nil {
		t.Fatal(err)
	}
	return delivered
}
