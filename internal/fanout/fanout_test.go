package fanout

import (
	"testing"
	"time"
)

// TestFanoutDelivery pins the basic accounting of a federated run:
// every sink fires once per publish, the latency histogram sees every
// delivery, and middleware wire accounting matches the tree shape.
func TestFanoutDelivery(t *testing.T) {
	cfg := Config{Subscribers: 24, Nodes: 6, Leaves: 2, Events: 3, PayloadBytes: 32}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != res.Expected || res.Expected != 24*3 {
		t.Fatalf("Delivered = %d, Expected = %d, want both 72", res.Delivered, res.Expected)
	}
	if got := res.Latency.Count(); uint64(got) != res.Delivered {
		t.Fatalf("latency histogram saw %d samples, want %d", got, res.Delivered)
	}
	// Wire messages per publish: pub→root, root→each of 2 leaves,
	// leaf→each of 6 subscriber nodes (per-node dedup: 4 sinks per node
	// share one delivery).
	want := uint64(3) * uint64(1+2+6)
	if res.WireMessages != want {
		t.Fatalf("WireMessages = %d, want %d", res.WireMessages, want)
	}
	// Federated delivery depth is 3 hops at 1ms default link latency.
	if min := res.Latency.Min(); min != 3*time.Millisecond {
		t.Fatalf("min delivery latency = %s, want 3ms (3 hops)", time.Duration(min))
	}
}

// TestFanoutFlatBaseline runs the population on the root-only
// (zero-leaf) tree: identical delivery counts, one hop less depth, and
// one wire message per subscriber node whether each node carries one
// sink or several.
func TestFanoutFlatBaseline(t *testing.T) {
	for _, cfg := range []Config{
		{Subscribers: 24, Nodes: 24, Leaves: 0, Events: 3},
		{Subscribers: 24, Nodes: 8, Leaves: 0, Events: 3},
	} {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Delivered != res.Expected {
			t.Fatalf("%s: Delivered = %d, want %d", cfg.ScenarioID(), res.Delivered, res.Expected)
		}
		// Per publish: pub→root, root→each subscriber node.
		if want := uint64(cfg.Events) * uint64(1+cfg.Nodes); res.WireMessages != want {
			t.Fatalf("%s: WireMessages = %d, want %d", cfg.ScenarioID(), res.WireMessages, want)
		}
		if min := res.Latency.Min(); min != 2*time.Millisecond {
			t.Fatalf("%s: min delivery latency = %s, want 2ms (2 hops)", cfg.ScenarioID(), time.Duration(min))
		}
	}
}

// TestFanoutRunsByteIdentical pins determinism in Config: two runs of
// one config produce the exact same numbers, down to the rendered
// summary line.
func TestFanoutRunsByteIdentical(t *testing.T) {
	cfg := Config{Subscribers: 64, Nodes: 16, Leaves: 4, Events: 5, PayloadBytes: 64}
	run := func() (string, map[string]float64) {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.SummaryLine(), res.Summary()
	}
	line1, sum1 := run()
	line2, sum2 := run()
	if line1 != line2 {
		t.Fatalf("summary lines diverge:\n%s\n%s", line1, line2)
	}
	if len(sum1) != len(sum2) {
		t.Fatalf("summary key sets diverge: %d vs %d", len(sum1), len(sum2))
	}
	for k, v := range sum1 {
		if sum2[k] != v {
			t.Errorf("summary[%q]: %v, then %v", k, v, sum2[k])
		}
	}
}

// TestFanoutScenarioID pins the identity contract: defaults are
// canonicalized.
func TestFanoutScenarioID(t *testing.T) {
	a := Config{Subscribers: 100, Nodes: 10, Leaves: 2, Events: 3, PayloadBytes: 16}
	want := "fanout/subs=100/nodes=10/leaves=2/events=3/payload=16"
	if got := a.ScenarioID(); got != want {
		t.Fatalf("ScenarioID = %q, want %q", got, want)
	}
	if got := (Config{}).ScenarioID(); got != "fanout/subs=64/nodes=8/leaves=0/events=4/payload=0" {
		t.Fatalf("zero-config ScenarioID = %q", got)
	}
}
