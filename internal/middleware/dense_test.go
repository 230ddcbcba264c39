package middleware

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// The tests in this file pin the dense subscriber/queue tables: view
// sinks, dynamic subscription after traffic has started, and sink
// ordering across several sinks on one node.

func densePlatform(t *testing.T) (*Platform, *sim.Kernel) {
	t.Helper()
	kernel := sim.NewKernel(sim.WithSeed(11))
	net := network.New(kernel)
	profile := Profile{
		Name:     "test-dense",
		Patterns: []Pattern{PatternRPC, PatternOneway, PatternQueue, PatternPubSub},
	}
	return New(kernel, protocol.NewUnreliableDatagram(net), profile, "broker"), kernel
}

func drainKernel(t *testing.T, kernel *sim.Kernel) {
	t.Helper()
	if _, err := kernel.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSubscribeTopicView delivers an event into a zero-copy view sink
// and checks the envelope fields read correctly through the view.
func TestSubscribeTopicView(t *testing.T) {
	p, kernel := densePlatform(t)
	var gotTopic, gotName string
	var gotSeq uint64
	events := 0
	err := p.SubscribeTopicView("floor", "n1", func(v codec.MsgView) {
		events++
		topic, _ := v.Str("topic")
		name, _ := v.Str("name")
		gotTopic, gotName = string(topic), string(name)
		fields, ok := v.View("fields")
		if !ok {
			t.Error("event view has no fields record")
			return
		}
		if s, ok := fields.Uint("seq"); ok {
			gotSeq = s
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	msg := codec.NewMessage("grant", codec.Record{"seq": uint64(42)})
	if err := p.Publish("pub", "floor", msg); err != nil {
		t.Fatal(err)
	}
	drainKernel(t, kernel)
	if events != 1 || gotTopic != "floor" || gotName != "grant" || gotSeq != 42 {
		t.Fatalf("view sink saw events=%d topic=%q name=%q seq=%d", events, gotTopic, gotName, gotSeq)
	}
}

// TestSubscribeAfterTraffic subscribes a second node after events have
// already flowed and checks the dense fan-out tables pick it up.
func TestSubscribeAfterTraffic(t *testing.T) {
	p, kernel := densePlatform(t)
	counts := map[string]int{}
	sub := func(node Addr) {
		if err := p.SubscribeTopicView("floor", node, func(codec.MsgView) {
			counts[string(node)]++
		}); err != nil {
			t.Fatal(err)
		}
	}
	sub("n1")
	msg := codec.NewMessage("grant", codec.Record{"seq": uint64(1)})
	if err := p.Publish("pub", "floor", msg); err != nil {
		t.Fatal(err)
	}
	drainKernel(t, kernel)
	sub("n2") // late subscriber, new runtime node, after traffic
	if err := p.Publish("pub", "floor", msg); err != nil {
		t.Fatal(err)
	}
	drainKernel(t, kernel)
	if counts["n1"] != 2 || counts["n2"] != 1 {
		t.Fatalf("counts = %v, want n1:2 n2:1", counts)
	}
	st := p.Stats()
	if st.EventDeliver != 3 {
		t.Fatalf("EventDeliver = %d, want 3", st.EventDeliver)
	}
}

// TestMixedSinksSubscriptionOrder registers two sinks for the same topic
// on one node and checks both fire once, in subscription order, off a
// single wire event.
func TestMixedSinksSubscriptionOrder(t *testing.T) {
	p, kernel := densePlatform(t)
	var order []string
	for _, sink := range []string{"first", "second"} {
		if err := p.SubscribeTopicView("floor", "n1", func(codec.MsgView) {
			order = append(order, sink)
		}); err != nil {
			t.Fatal(err)
		}
	}
	msg := codec.NewMessage("grant", codec.Record{})
	if err := p.Publish("pub", "floor", msg); err != nil {
		t.Fatal(err)
	}
	drainKernel(t, kernel)
	want := []string{"first", "second"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	// pub→broker, broker→n1: the node gets ONE wire event for its two sinks.
	if st := p.Stats(); st.WireMessages != 2 || st.EventDeliver != 1 {
		t.Fatalf("WireMessages = %d, EventDeliver = %d; want 2 and 1", st.WireMessages, st.EventDeliver)
	}
}

// TestViewSinkNil pins the nil-sink validation of the view variant.
func TestViewSinkNil(t *testing.T) {
	p, _ := densePlatform(t)
	if err := p.SubscribeTopicView("floor", "n1", nil); err == nil {
		t.Fatal("nil view sink accepted")
	}
}
