package delivery_test

import (
	"fmt"
	"testing"

	"repro/internal/codec"
	"repro/internal/middleware"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// BenchmarkCalibrate is the fixed arithmetic workload cmd/benchcmp uses
// (-normalize Calibrate) to factor machine speed out of cross-host
// baseline comparisons.
func BenchmarkCalibrate(b *testing.B) {
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < b.N; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	benchSink = x
}

var benchSink uint64

// pubSubStack assembles a middleware platform over the raw datagram
// network (the pure routing/demux stack: no reliability machinery) with
// subs subscriber nodes on one topic, and returns the platform, kernel
// and publisher address. DispatchOverhead is zero so the benchmarks
// isolate per-message routing cost rather than modelled platform delay.
// Each subscriber is a zero-copy view sink counting into delivered.
func pubSubStack(b *testing.B, subs int, delivered *int) (*middleware.Platform, *sim.Kernel, middleware.Addr) {
	b.Helper()
	kernel := sim.NewKernel(sim.WithSeed(1))
	net := network.New(kernel)
	profile := middleware.Profile{
		Name:     "bench-pubsub",
		Patterns: []middleware.Pattern{middleware.PatternOneway, middleware.PatternPubSub},
	}
	p := middleware.New(kernel, protocol.NewUnreliableDatagram(net), profile, "broker")
	for i := 0; i < subs; i++ {
		node := middleware.Addr(fmt.Sprintf("sub%d", i))
		if err := p.SubscribeTopicView("floor", node, func(codec.MsgView) { *delivered++ }); err != nil {
			b.Fatal(err)
		}
	}
	return p, kernel, middleware.Addr("pub")
}

// drain runs the kernel until the event queue is empty.
func drain(b *testing.B, kernel *sim.Kernel) {
	b.Helper()
	if _, err := kernel.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchPublishDrain is the shared measurement loop: one publish fully
// drained per iteration, with a warm-up round before the timer starts so
// pools and runtimes are populated.
func benchPublishDrain(b *testing.B, p *middleware.Platform, kernel *sim.Kernel, pub middleware.Addr, delivered *int, subs int) {
	b.Helper()
	ev := codec.NewMessage("grant", codec.Record{"resource": "r1", "seq": uint64(7)})
	if err := p.Publish(pub, "floor", ev); err != nil {
		b.Fatal(err)
	}
	drain(b, kernel)
	*delivered = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Publish(pub, "floor", ev); err != nil {
			b.Fatal(err)
		}
		drain(b, kernel)
	}
	b.StopTimer()
	if *delivered != subs*b.N {
		b.Fatalf("delivered %d events, want %d", *delivered, subs*b.N)
	}
}

// BenchmarkDeliveryPath is the representative end-to-end path of the
// routing/demux plane: one publish marshalled at the publisher, carried
// to the broker node, demultiplexed, re-framed and fanned out to 8
// subscriber nodes, each delivery demultiplexed again and handed to the
// application's zero-copy view sink. One iteration = one publish fully
// drained (9 wire messages, 9 deliveries); allocs/op must stay 0 — that
// is the acceptance criterion of the dense tables. This is the number
// the ±20% CI gate and the README performance table track.
func BenchmarkDeliveryPath(b *testing.B) {
	delivered := 0
	p, kernel, pub := pubSubStack(b, 8, &delivered)
	benchPublishDrain(b, p, kernel, pub, &delivered, 8)
}

// benchBrokerFanout measures how broker fan-out cost scales with the
// subscriber count on the zero-copy plane: topic resolution, the dense
// subscriber fan-out into the transport's batch path, and per-node event
// demultiplexing.
func benchBrokerFanout(b *testing.B, subs int) {
	delivered := 0
	p, kernel, pub := pubSubStack(b, subs, &delivered)
	benchPublishDrain(b, p, kernel, pub, &delivered, subs)
	b.ReportMetric(float64(subs), "subscribers")
}

func BenchmarkBrokerFanout8(b *testing.B)  { benchBrokerFanout(b, 8) }
func BenchmarkBrokerFanout64(b *testing.B) { benchBrokerFanout(b, 64) }

// BenchmarkReliableWindow measures the go-back-N reliability layer's
// per-message cost on a lossless link: one Send enqueued on the flow,
// transmitted, delivered in order at the peer, and cumulatively acked —
// window bookkeeping, flow-table lookups and the hold-ring check
// included. One iteration = one data PDU + one ack, fully drained.
func BenchmarkReliableWindow(b *testing.B) {
	kernel := sim.NewKernel(sim.WithSeed(1))
	net := network.New(kernel)
	rd := protocol.NewReliableDatagram(kernel, protocol.NewUnreliableDatagram(net), protocol.ReliableDatagramConfig{})
	delivered := 0
	if err := rd.Attach("a", func(src protocol.Addr, pdu []byte) {}); err != nil {
		b.Fatal(err)
	}
	if err := rd.Attach("b", func(src protocol.Addr, pdu []byte) { delivered++ }); err != nil {
		b.Fatal(err)
	}
	payload := []byte("0123456789abcdef0123456789abcdef")
	if err := rd.Send("a", "b", payload); err != nil {
		b.Fatal(err)
	}
	drain(b, kernel)
	delivered = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rd.Send("a", "b", payload); err != nil {
			b.Fatal(err)
		}
		drain(b, kernel)
	}
	b.StopTimer()
	if delivered != b.N {
		b.Fatalf("delivered %d PDUs, want %d", delivered, b.N)
	}
}
