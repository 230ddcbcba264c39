package middleware

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// profileAll offers every pattern, with dispatch overhead (the deferred
// wire path) and a call timeout.
var profileAll = Profile{
	Name:             "test-all",
	Patterns:         []Pattern{PatternRPC, PatternOneway, PatternQueue, PatternPubSub},
	DispatchOverhead: 100 * time.Microsecond,
	CallTimeout:      50 * time.Millisecond,
}

// platformTraffic runs one seeded RPC, oneway, queue and pub/sub
// workload on a platform over wrap(udp), on a lossy, jittery network,
// and returns the delivery log with the platform and network counters.
func platformTraffic(t *testing.T, wrap func(protocol.LowerService) protocol.LowerService) ([]string, Stats, network.Stats) {
	t.Helper()
	k := sim.NewKernel(sim.WithSeed(17))
	net := network.New(k, network.WithDefaultLink(network.LinkConfig{
		Latency:       time.Millisecond,
		Jitter:        500 * time.Microsecond,
		LossRate:      0.1,
		DuplicateRate: 0.05,
	}))
	p := New(k, wrap(protocol.NewUnreliableDatagram(net)), profileAll, "broker")
	var log []string
	note := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%v ", k.Now())+fmt.Sprintf(format, args...))
	}
	if err := p.Register("server", "srv", echoObject()); err != nil {
		t.Fatal(err)
	}
	if err := p.QueueDeclare("jobs"); err != nil {
		t.Fatal(err)
	}
	for _, w := range []Addr{"w1", "w2"} {
		w := w
		if err := p.QueueSubscribe("jobs", w, func(v codec.MsgView) { note("%s job %s", w, msgName(v)) }); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []Addr{"n1", "n2", "n3", "n1"} {
		n := n
		if err := p.SubscribeTopicView("news", n, func(v codec.MsgView) { note("%s event %s", n, msgName(v)) }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		c := Addr(fmt.Sprintf("c%d", i%3))
		if err := p.Invoke(c, "server", "echo", wire(codec.Record{"i": int64(i)}), func(r codec.MsgView, err error) {
			note("%s reply %v %v", c, fields(r), err)
		}); err != nil {
			t.Fatal(err)
		}
		if err := p.InvokeOneway(c, "server", "echo", nil); err != nil {
			t.Fatal(err)
		}
		if err := p.QueuePut(c, "jobs", fmt.Sprintf("job%d", i), nil); err != nil {
			t.Fatal(err)
		}
		if err := p.Publish(c, "news", codec.NewMessage(fmt.Sprintf("ev%d", i), nil)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return log, p.Stats(), net.Stats()
}

// TestPlatformAdapterParity runs the same seeded traffic over the
// indexed UnreliableDatagram and over the same service behind a
// name-only wrapper (which New puts on the dense plane through
// protocol.AsIndexed), and requires identical delivery sequences,
// platform counters and network counters.
func TestPlatformAdapterParity(t *testing.T) {
	direct, directSt, directNet := platformTraffic(t, func(l protocol.LowerService) protocol.LowerService { return l })
	adapted, adaptedSt, adaptedNet := platformTraffic(t, func(l protocol.LowerService) protocol.LowerService {
		return struct{ protocol.LowerService }{l}
	})
	if directSt.Replies == 0 || directSt.QueueDeliver == 0 || directSt.EventDeliver == 0 || directNet.Dropped == 0 {
		t.Fatalf("workload too thin: %+v, %+v", directSt, directNet)
	}
	if !reflect.DeepEqual(direct, adapted) {
		for i := range direct {
			if i >= len(adapted) || direct[i] != adapted[i] {
				t.Fatalf("delivery %d diverges over the adapter:\n direct  %q\n adapted %q", i, direct[i], adapted[min(i, len(adapted)-1)])
			}
		}
		t.Fatalf("adapter delivered %d extra messages", len(adapted)-len(direct))
	}
	if directSt != adaptedSt {
		t.Fatalf("platform stats diverge: direct %+v, adapted %+v", directSt, adaptedSt)
	}
	if directNet != adaptedNet {
		t.Fatalf("network stats diverge: direct %+v, adapted %+v", directNet, adaptedNet)
	}
}

// TestSendToUnattachedBroker pins the unknown-destination rule: a
// publish before anything attached the broker's runtime fails with
// protocol.ErrUnknownEntity instead of reaching the transport.
func TestSendToUnattachedBroker(t *testing.T) {
	k := sim.NewKernel()
	p := New(k, protocol.NewUnreliableDatagram(network.New(k)), ProfileCORBALike, "broker")
	err := p.Publish("pub", "news", codec.NewMessage("ev", nil))
	if !errors.Is(err, protocol.ErrUnknownEntity) {
		t.Fatalf("Publish to an unattached broker: err = %v, want ErrUnknownEntity", err)
	}
	if st := p.Stats(); st.WireMessages != 1 {
		t.Fatalf("WireMessages = %d, want 1 (the refused send is still counted)", st.WireMessages)
	}
}
