package svc_test

import (
	"fmt"
	"testing"

	"repro/internal/codec"
	"repro/internal/middleware"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/svc"
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

// benchProfile is a zero-overhead RPC profile so the benchmarks isolate
// the port machinery, not modelled platform delay.
var benchProfile = middleware.Profile{
	Name:     "bench-svc",
	Patterns: []middleware.Pattern{middleware.PatternRPC, middleware.PatternOneway},
}

// rpcStack assembles a platform over the raw datagram network (the pure
// routing stack, as the delivery benchmarks use).
func rpcStack(tb testing.TB) (*sim.Kernel, *middleware.Platform) {
	tb.Helper()
	kernel := sim.NewKernel(sim.WithSeed(1))
	net := network.New(kernel)
	return kernel, middleware.New(kernel, protocol.NewUnreliableDatagram(net), benchProfile, "broker")
}

type benchReq struct{ N uint64 }

type benchResp struct{ N uint64 }

// recBench is the wire layout of the benchmark request and response:
// one unsigned field "n".
var recBench = codec.CompileRecord("n")

func appendBenchN(buf []byte, n uint64) ([]byte, error) {
	e := recBench.Encoder(buf)
	e.Uint("n", n)
	return e.Finish()
}

func encBenchReq(buf []byte, r benchReq) ([]byte, error) { return appendBenchN(buf, r.N) }

func encBenchResp(buf []byte, r benchResp) ([]byte, error) { return appendBenchN(buf, r.N) }

func decBenchReq(v codec.MsgView) (benchReq, error) {
	n, _ := v.Uint("n")
	return benchReq{N: n}, nil
}

func decBenchResp(v codec.MsgView) (benchResp, error) {
	n, _ := v.Uint("n")
	return benchResp{N: n}, nil
}

// rawEcho is the hand-written dispatch object of the raw-platform
// baseline: it answers "echo" with n+1, encoding into one reused buffer.
func rawEcho() middleware.Object {
	var out []byte
	return middleware.ObjectFunc(func(op []byte, args codec.MsgView, reply middleware.Reply) {
		if string(op) != "echo" {
			reply(nil, fmt.Errorf("%w: %q", middleware.ErrUnknownOperation, op))
			return
		}
		n, _ := args.Uint("n")
		out, _ = appendBenchN(out[:0], n+1)
		reply(out, nil)
	})
}

// drainB runs the kernel until the event queue is empty.
func drainB(b *testing.B, kernel *sim.Kernel) {
	b.Helper()
	if _, err := kernel.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSvcCall measures one typed port call, round trip fully
// drained: request encoded through the port, carried to the typed
// export, dispatched, replied, decoded, continuation fired. This is the
// number the acceptance gate tracks against BenchmarkRawPlatformInvoke —
// the façade must stay within 10% and add zero allocations per op over
// the raw platform path (the pooled call-state and respond-cell paths
// are what make that hold).
func BenchmarkSvcCall(b *testing.B) {
	kernel, p := rpcStack(b)
	binding := bound(b, p, middleware.PatternRPC)
	e, err := binding.NewExport("server", "node-s")
	if err != nil {
		b.Fatal(err)
	}
	err = svc.HandleOp(e, "echo",
		decBenchReq, encBenchResp,
		func(req benchReq, respond func(benchResp, error)) { respond(benchResp{N: req.N + 1}, nil) })
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Register(); err != nil {
		b.Fatal(err)
	}
	port, err := svc.NewPort(binding, "server", "echo", encBenchReq, decBenchResp)
	if err != nil {
		b.Fatal(err)
	}
	done := 0
	cont := func(r benchResp, err error) {
		if err != nil {
			b.Fatal(err)
		}
		done++
	}
	if err := port.Call("node-c", benchReq{N: 1}, cont); err != nil {
		b.Fatal(err)
	}
	drainB(b, kernel)
	done = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := port.Call("node-c", benchReq{N: uint64(i)}, cont); err != nil {
			b.Fatal(err)
		}
		drainB(b, kernel)
	}
	b.StopTimer()
	if done != b.N {
		b.Fatalf("completed %d calls, want %d", done, b.N)
	}
}

// BenchmarkRawPlatformInvoke is the identical round trip on the raw
// platform SPI: a hand-written dispatch object and a direct
// Platform.Invoke — the baseline the svc façade is gated against.
func BenchmarkRawPlatformInvoke(b *testing.B) {
	kernel, p := rpcStack(b)
	if err := p.Register("server", "node-s", rawEcho()); err != nil {
		b.Fatal(err)
	}
	done := 0
	cont := func(r codec.MsgView, err error) {
		if err != nil {
			b.Fatal(err)
		}
		done++
	}
	args, _ := appendBenchN(nil, 1)
	if err := p.Invoke("node-c", "server", "echo", args, cont); err != nil {
		b.Fatal(err)
	}
	drainB(b, kernel)
	done = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		args, _ = appendBenchN(args[:0], uint64(i))
		if err := p.Invoke("node-c", "server", "echo", args, cont); err != nil {
			b.Fatal(err)
		}
		drainB(b, kernel)
	}
	b.StopTimer()
	if done != b.N {
		b.Fatalf("completed %d calls, want %d", done, b.N)
	}
}

// BenchmarkSvcOnewaySend measures one typed oneway sink send, drained:
// the fire-and-forget half of the port façade.
func BenchmarkSvcOnewaySend(b *testing.B) {
	kernel, p := rpcStack(b)
	binding := bound(b, p, middleware.PatternOneway)
	e, err := binding.NewExport("sink", "node-s")
	if err != nil {
		b.Fatal(err)
	}
	got := 0
	err = svc.HandleOp(e, "put",
		decBenchReq, nil,
		func(req benchReq, respond func(struct{}, error)) { got++; respond(struct{}{}, nil) })
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Register(); err != nil {
		b.Fatal(err)
	}
	sink, err := svc.NewOnewaySink(binding, "sink", "put", encBenchReq)
	if err != nil {
		b.Fatal(err)
	}
	if err := sink.Send("node-c", benchReq{N: 1}); err != nil {
		b.Fatal(err)
	}
	drainB(b, kernel)
	got = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sink.Send("node-c", benchReq{N: uint64(i)}); err != nil {
			b.Fatal(err)
		}
		drainB(b, kernel)
	}
	b.StopTimer()
	if got != b.N {
		b.Fatalf("delivered %d sends, want %d", got, b.N)
	}
}

// Absolute allocation bounds of one drained RPC round trip. The
// argument and result records travel as encoded bytes end to end, so
// what remains is transport and scheduling bookkeeping; the façade adds
// at most one allocation on top of the raw platform path.
const (
	maxSvcCallAllocs   = 2
	maxRawInvokeAllocs = 1
)

// TestSvcCallAddsNoAllocations is the alloc half of the acceptance gate
// as absolute bounds on both round trips. Under -race the bounds are
// not asserted (raceEnabled): the race runtime drops sync.Pool items at
// random, so pooled buffers and cells reallocate nondeterministically.
func TestSvcCallAddsNoAllocations(t *testing.T) {
	// svc path.
	kernel, p := rpcStack(t)
	binding := bound(t, p, middleware.PatternRPC)
	e, err := binding.NewExport("server", "node-s")
	if err != nil {
		t.Fatal(err)
	}
	err = svc.HandleOp(e, "echo", decBenchReq, encBenchResp,
		func(req benchReq, respond func(benchResp, error)) { respond(benchResp{N: req.N + 1}, nil) })
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register(); err != nil {
		t.Fatal(err)
	}
	port, err := svc.NewPort(binding, "server", "echo", encBenchReq, decBenchResp)
	if err != nil {
		t.Fatal(err)
	}
	var got benchResp
	contTyped := func(r benchResp, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got = r
	}
	warm := func() {
		if err := port.Call("node-c", benchReq{N: 1}, contTyped); err != nil {
			t.Fatal(err)
		}
		if _, err := kernel.Run(); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	svcAllocs := testing.AllocsPerRun(200, warm)
	if got.N != 2 {
		t.Fatalf("typed round trip replied %d, want 2", got.N)
	}

	// raw path.
	kernel2, p2 := rpcStack(t)
	if err := p2.Register("server", "node-s", rawEcho()); err != nil {
		t.Fatal(err)
	}
	var gotRaw uint64
	contRaw := func(r codec.MsgView, err error) {
		if err != nil {
			t.Fatal(err)
		}
		gotRaw, _ = r.Uint("n")
	}
	args, _ := appendBenchN(nil, 1)
	warmRaw := func() {
		if err := p2.Invoke("node-c", "server", "echo", args, contRaw); err != nil {
			t.Fatal(err)
		}
		if _, err := kernel2.Run(); err != nil {
			t.Fatal(err)
		}
	}
	warmRaw()
	rawAllocs := testing.AllocsPerRun(200, warmRaw)
	if gotRaw != 2 {
		t.Fatalf("raw round trip replied %d, want 2", gotRaw)
	}

	t.Logf("allocs/op: svc port call %.1f, raw platform invoke %.1f", svcAllocs, rawAllocs)
	if raceEnabled {
		return
	}
	if svcAllocs > maxSvcCallAllocs {
		t.Errorf("svc port call allocates %.1f/op, bound %d", svcAllocs, maxSvcCallAllocs)
	}
	if rawAllocs > maxRawInvokeAllocs {
		t.Errorf("raw platform invoke allocates %.1f/op, bound %d", rawAllocs, maxRawInvokeAllocs)
	}
}
