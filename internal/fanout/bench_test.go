package fanout_test

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

// benchFanout measures the steady-state publish path of a pre-built
// fan-out world: one publish fully drained per iteration, delivered to
// subs sinks spread over nodes subscriber nodes, through a broker tree
// with the given leaf count (0 = the root-only baseline). Reports
// bytes/client — simulated wire bytes per subscriber per event, the
// encode-once number BENCH_xl.json gates.
func benchFanout(b *testing.B, subs, nodes, leaves int) {
	b.Helper()
	kernel := sim.NewKernel(sim.WithSeed(1))
	net := network.New(kernel)
	profile := middleware.Profile{
		Name:     "bench-fanout",
		Patterns: []middleware.Pattern{middleware.PatternPubSub},
	}
	var opts []middleware.Option
	leafAddrs := make([]middleware.Addr, leaves)
	for i := range leafAddrs {
		leafAddrs[i] = middleware.Addr(fmt.Sprintf("leaf%d", i))
	}
	if leaves > 0 {
		opts = append(opts, middleware.WithFederation(leafAddrs...))
	}
	p := middleware.New(kernel, protocol.NewUnreliableDatagram(net), profile, "root", opts...)
	for _, leaf := range leafAddrs {
		if _, err := p.AttachRuntime(leaf); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := p.AttachRuntime("root"); err != nil {
		b.Fatal(err)
	}
	delivered := 0
	sink := func(v codec.MsgView) { delivered++ }
	for s := 0; s < subs; s++ {
		node := middleware.Addr(fmt.Sprintf("h%d", s%nodes))
		if err := p.SubscribeTopicView("feed", node, sink); err != nil {
			b.Fatal(err)
		}
	}
	drain := func() {
		if _, err := kernel.Run(); err != nil {
			b.Fatal(err)
		}
	}
	ev := codec.NewMessage("ev", codec.Record{"seq": uint64(7), "pad": make([]byte, 128)})
	if err := p.Publish("pub", "feed", ev); err != nil {
		b.Fatal(err)
	}
	drain()
	delivered = 0
	base := net.Stats().BytesSent
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Publish("pub", "feed", ev); err != nil {
			b.Fatal(err)
		}
		drain()
	}
	b.StopTimer()
	if delivered != subs*b.N {
		b.Fatalf("delivered %d events, want %d", delivered, subs*b.N)
	}
	bytes := net.Stats().BytesSent - base
	b.ReportMetric(float64(bytes)/float64(b.N)/float64(subs), "bytes/client")
	b.ReportMetric(float64(subs), "subscribers")
}

// BenchmarkFanoutFederated is the XL headline: 65,536 sinks on 1,024
// subscriber nodes behind a 4-leaf federation tree. One iteration = one
// publish fully drained (1 + 4 + 1024 wire messages, 65,536 sink fires).
func BenchmarkFanoutFederated(b *testing.B) { benchFanout(b, 65536, 1024, 4) }

// BenchmarkFanoutFlat is the same sink population on the root-only
// (zero-leaf) tree with one sink per node, so the root itself sends one
// wire message per sink — the baseline the federation tree is measured
// against: 65,536 wire messages per publish instead of 1,029.
func BenchmarkFanoutFlat(b *testing.B) { benchFanout(b, 65536, 65536, 0) }
