package middleware

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// The tests in this file pin the one subscribe path: SubscribeTopicAt's
// refusals, the by-name wrapper's broker-tree guard, and the per-node
// demux table that groups a node's sinks by topic.

func nopSink(codec.MsgView) {}

// TestSubscribeTopicAtRefusals checks that the id path refuses every
// node that cannot hold a sink, and every call no node could take,
// without enrolling anything.
func TestSubscribeTopicAtRefusals(t *testing.T) {
	p, _ := federatedPlatform(t, "leaf0", "leaf1")
	// An endpoint of the transport the platform runtime is not attached
	// at: attaching n1 afterwards grows the node tables over its id.
	strayID, err := p.transport.AttachIndexed("stray", func(int32, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	n1, err := p.AttachRuntime("n1")
	if err != nil {
		t.Fatal(err)
	}
	if int(strayID) >= len(p.attached) || p.attached[strayID] {
		t.Fatalf("stray endpoint %d: want an unattached id inside the node tables", strayID)
	}
	leaf1, _ := p.AttachRuntime("leaf1")
	root, _ := p.AttachRuntime("root")

	for _, tc := range []struct {
		name string
		id   int32
		want error
	}{
		{"root broker", root, ErrFederation},
		{"leaf broker", leaf1, ErrFederation},
		{"unattached", strayID, protocol.ErrUnknownEntity},
		{"out of range", int32(len(p.attached)) + 10, protocol.ErrUnknownEntity},
		{"negative", -1, protocol.ErrUnknownEntity},
	} {
		if err := p.SubscribeTopicAt("t", tc.id, nopSink); !errors.Is(err, tc.want) {
			t.Errorf("%s (id %d): err = %v, want %v", tc.name, tc.id, err, tc.want)
		}
	}
	if err := p.SubscribeTopicAt("t", n1, nil); err == nil {
		t.Error("nil sink accepted")
	}
	if tt := p.topics["t"]; tt != nil {
		t.Fatalf("refused subscriptions enrolled rows %v", tt.rows)
	}
	if err := p.SubscribeTopicAt("t", n1, nopSink); err != nil {
		t.Fatalf("attached subscriber node: %v", err)
	}

	kernel := sim.NewKernel()
	q := New(kernel, protocol.NewUnreliableDatagram(network.New(kernel)), Profile{Name: "rpc-only", Patterns: []Pattern{PatternRPC}}, "broker")
	id, err := q.AttachRuntime("n1")
	if err != nil {
		t.Fatal(err)
	}
	if err := q.SubscribeTopicAt("t", id, nopSink); !errors.Is(err, ErrPatternUnsupported) {
		t.Fatalf("profile without pub/sub: err = %v, want ErrPatternUnsupported", err)
	}
}

// TestSubscribeByNameAttachesNoBroker checks that the by-name wrapper
// refuses the root's and a leaf's name before attaching anything, so a
// refused subscription leaves the broker tree unattached.
func TestSubscribeByNameAttachesNoBroker(t *testing.T) {
	kernel := sim.NewKernel()
	transport := protocol.NewUnreliableDatagram(network.New(kernel))
	p := New(kernel, transport, Profile{Name: "fed", Patterns: []Pattern{PatternPubSub}}, "root",
		WithFederation("leaf0", "leaf1"))
	for _, node := range []Addr{"root", "leaf0", "leaf1"} {
		if err := p.SubscribeTopicView("t", node, nopSink); !errors.Is(err, ErrFederation) {
			t.Errorf("subscribing at %s: err = %v, want ErrFederation", node, err)
		}
		if _, ok := transport.EndpointID(node); ok {
			t.Errorf("refused subscription at %s attached it", node)
		}
	}
	if p.brokerID >= 0 || slices.ContainsFunc(p.leafIDs, func(id int32) bool { return id >= 0 }) {
		t.Fatalf("broker id %d, leaf ids %v after refused subscriptions; want all -1", p.brokerID, p.leafIDs)
	}
}

// TestGroupedDemux subscribes, at one node, sinks to topics "a" and "b"
// interleaved, one of them twice, and checks that a publish calls
// exactly its topic's sinks, in subscription order, and the duplicate
// twice.
func TestGroupedDemux(t *testing.T) {
	p, kernel := densePlatform(t)
	n1, err := p.AttachRuntime("n1")
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	sink := func(label string) func(codec.MsgView) {
		return func(codec.MsgView) { log = append(log, label) }
	}
	dup := sink("dup")
	for _, s := range []struct {
		topic string
		fn    func(codec.MsgView)
	}{
		{"a", sink("a1")},
		{"b", sink("b1")},
		{"a", dup},
		{"b", sink("b2")},
		{"a", dup},
		{"a", sink("a2")},
	} {
		if err := p.SubscribeTopicAt(s.topic, n1, s.fn); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(p.eventSinks[n1]); got != 2 {
		t.Fatalf("node holds %d topic groups, want 2", got)
	}
	for _, tc := range []struct {
		topic string
		want  []string
	}{
		{"a", []string{"a1", "dup", "dup", "a2"}},
		{"b", []string{"b1", "b2"}},
		{"c", nil},
	} {
		log = log[:0]
		if err := p.Publish("pub", tc.topic, codec.NewMessage("ev", codec.Record{})); err != nil {
			t.Fatal(err)
		}
		drainKernel(t, kernel)
		if !slices.Equal(log, tc.want) {
			t.Errorf("publish on %q called %v, want %v", tc.topic, log, tc.want)
		}
	}
	// One wire event per publish reaches n1, whatever its sink count.
	if st := p.Stats(); st.EventDeliver != 2 {
		t.Fatalf("EventDeliver = %d, want 2", st.EventDeliver)
	}
}

// TestEventDemuxAllocs checks that a warm delivery at a subscriber node
// — the slot parse of the mw.event envelope and the grouped demux to
// every sink of its topic — allocates nothing.
func TestEventDemuxAllocs(t *testing.T) {
	p, _ := densePlatform(t)
	n1, err := p.AttachRuntime("n1")
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	count := func(codec.MsgView) { calls++ }
	for _, topic := range []string{"a", "b", "a", "a"} {
		if err := p.SubscribeTopicAt(topic, n1, count); err != nil {
			t.Fatal(err)
		}
	}
	e := schemaEvent.Encoder(nil)
	e.Raw("fields", codec.RawEmptyRecord)
	e.Str("name", "ev")
	e.Str("topic", "a")
	data, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	src := p.brokerID
	p.handleWire(src, n1, data)
	if calls != 3 {
		t.Fatalf("one delivery on a called %d sinks, want 3", calls)
	}
	if allocs := testing.AllocsPerRun(100, func() { p.handleWire(src, n1, data) }); allocs != 0 {
		t.Fatalf("a warm event delivery allocates %.1f times, want 0", allocs)
	}
}
