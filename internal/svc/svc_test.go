package svc_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/middleware"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/svc"
)

// testSpec is a minimal valid service definition for façade tests.
func testSpec() *core.ServiceSpec {
	return &core.ServiceSpec{
		Name: "test-service",
		Primitives: []core.PrimitiveDef{
			{Name: "ping", Direction: core.FromUser, Params: []core.ParamDef{{Name: "n", Kind: core.KindInt}}},
			{Name: "pong", Direction: core.ToUser, Params: []core.ParamDef{{Name: "n", Kind: core.KindInt}}},
		},
	}
}

// stack builds kernel + platform for one profile on a lossless 1ms net.
func stack(t testing.TB, profile middleware.Profile) (*sim.Kernel, *middleware.Platform) {
	t.Helper()
	k := sim.NewKernel(sim.WithSeed(5))
	net := network.New(k, network.WithDefaultLink(network.LinkConfig{Latency: time.Millisecond}))
	transport := protocol.NewReliableDatagram(k, protocol.NewUnreliableDatagram(net), protocol.ReliableDatagramConfig{})
	return k, middleware.New(k, transport, profile, "mw-broker")
}

// withTimeout returns profile with its call timeout set to d.
func withTimeout(profile middleware.Profile, d time.Duration) middleware.Profile {
	profile.CallTimeout = d
	return profile
}

// bound declares and binds the test service in one step.
func bound(t testing.TB, p *middleware.Platform, patterns ...middleware.Pattern) *svc.Binding {
	t.Helper()
	s, err := svc.New(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Bind(p, patterns...)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

type pingReq struct{ N int64 }

type pingResp struct{ N int64 }

// recN is the wire layout of every test request and response: one int
// field "n".
var (
	recN  = codec.CompileRecord("n")
	slotN = recN.Slot("n")
)

// readN reads the n field of a request or response record by slot.
func readN(v *codec.MsgView) int64 {
	var sl codec.Slots
	recN.Resolve(v, &sl)
	n, _ := sl.IntAt(slotN)
	return n
}

func appendN(buf []byte, n int64) ([]byte, error) {
	e := recN.Encoder(buf)
	e.Int("n", n)
	return e.Finish()
}

func encPing(buf []byte, r pingReq) ([]byte, error) { return appendN(buf, r.N) }

func encPong(buf []byte, r pingResp) ([]byte, error) { return appendN(buf, r.N) }

func decPing(v codec.MsgView) (pingResp, error) { return pingResp{N: readN(&v)}, nil }

func decPingReq(v codec.MsgView) (pingReq, error) { return pingReq{N: readN(&v)}, nil }

// exportEcho registers an export whose "ping" handler echoes n+1.
func exportEcho(t testing.TB, b *svc.Binding) {
	t.Helper()
	e, err := b.NewExport("server", "node-s")
	if err != nil {
		t.Fatal(err)
	}
	err = svc.HandleOp(e, "ping",
		decPingReq,
		encPong,
		func(req pingReq, respond func(pingResp, error)) { respond(pingResp{N: req.N + 1}, nil) })
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register(); err != nil {
		t.Fatal(err)
	}
}

func TestPortRoundTrip(t *testing.T) {
	k, p := stack(t, middleware.ProfileCORBALike)
	b := bound(t, p, middleware.PatternRPC)
	exportEcho(t, b)
	port, err := svc.NewPort(b, "server", "ping", encPing, decPing)
	if err != nil {
		t.Fatal(err)
	}
	var got pingResp
	var callErr error
	if err := port.Call("node-c", pingReq{N: 41}, func(r pingResp, e error) { got, callErr = r, e }); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if callErr != nil {
		t.Fatalf("call error: %v", callErr)
	}
	if got.N != 42 {
		t.Fatalf("got %d, want 42", got.N)
	}
}

func TestBindChecksProfilePatterns(t *testing.T) {
	// Every predefined profile, checked against every pattern it does NOT
	// offer: the bind must fail with ErrUnsupportedPattern.
	all := []middleware.Pattern{middleware.PatternRPC, middleware.PatternOneway, middleware.PatternQueue, middleware.PatternPubSub}
	for _, profile := range middleware.Profiles() {
		for _, pat := range all {
			s, err := svc.New(testSpec())
			if err != nil {
				t.Fatal(err)
			}
			_, p := stack(t, profile)
			b, err := s.Bind(p, pat)
			if profile.Supports(pat) {
				if err != nil {
					t.Fatalf("%s/%s: unexpected bind error %v", profile.Name, pat, err)
				}
				continue
			}
			if !errors.Is(err, svc.ErrUnsupportedPattern) {
				t.Fatalf("%s/%s: bind error = %v, want ErrUnsupportedPattern", profile.Name, pat, err)
			}
			_ = b
		}
	}
}

func TestPortConstructorsCheckPattern(t *testing.T) {
	// Deferred checks: bind with no declared patterns, then let each port
	// constructor reject its own unsupported pattern.
	_, pq := stack(t, middleware.ProfileMQLike) // queue only
	bq := bound(t, pq)
	if _, err := svc.NewPort(bq, "x", "op", encPing, decPing); !errors.Is(err, svc.ErrUnsupportedPattern) {
		t.Fatalf("RPC port on MQ-like: %v, want ErrUnsupportedPattern", err)
	}
	if _, err := svc.NewOnewaySink(bq, "x", "op", encPing); !errors.Is(err, svc.ErrUnsupportedPattern) {
		t.Fatalf("oneway sink on MQ-like: %v, want ErrUnsupportedPattern", err)
	}
	if _, err := svc.NewTopicSink(bq, "t", "m", encPing); !errors.Is(err, svc.ErrUnsupportedPattern) {
		t.Fatalf("topic sink on MQ-like: %v, want ErrUnsupportedPattern", err)
	}
	_, pr := stack(t, middleware.ProfileRMILike) // RPC only
	br := bound(t, pr)
	if _, err := svc.NewQueueSink(br, "q", "m", encPing); !errors.Is(err, svc.ErrUnsupportedPattern) {
		t.Fatalf("queue sink on RMI-like: %v, want ErrUnsupportedPattern", err)
	}
	if _, err := svc.NewQueueSource(br, "q", "n", decPingReq, func(pingReq) {}); !errors.Is(err, svc.ErrUnsupportedPattern) {
		t.Fatalf("queue source on RMI-like: %v, want ErrUnsupportedPattern", err)
	}
	if _, err := svc.NewTopicSource(br, "t", "n", func(codec.MsgView) (pingReq, error) { return pingReq{}, nil }, func(pingReq) {}); !errors.Is(err, svc.ErrUnsupportedPattern) {
		t.Fatalf("topic source on RMI-like: %v, want ErrUnsupportedPattern", err)
	}
}

func TestUnknownServiceTarget(t *testing.T) {
	_, p := stack(t, middleware.ProfileCORBALike)
	b := bound(t, p)
	port, err := svc.NewPort(b, "ghost", "ping", encPing, decPing)
	if err != nil {
		t.Fatal(err)
	}
	if err := port.Call("node-c", pingReq{}, nil); !errors.Is(err, svc.ErrNoSuchService) {
		t.Fatalf("call to unregistered target: %v, want ErrNoSuchService", err)
	}
	// Queue sends to undeclared queues classify the same way.
	bq := boundOn(t, middleware.ProfileJMSLike)
	sink, err := svc.NewQueueSink(bq, "nope", "m", encPing)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Send("node-c", pingReq{}); !errors.Is(err, svc.ErrNoSuchService) {
		t.Fatalf("put to undeclared queue: %v, want ErrNoSuchService", err)
	}
}

// boundOn is bound() with its own fresh stack.
func boundOn(t testing.TB, profile middleware.Profile) *svc.Binding {
	t.Helper()
	_, p := stack(t, profile)
	return bound(t, p)
}

func TestUnknownOperation(t *testing.T) {
	// A port aimed at a registered export but an unhandled op: the remote
	// rejection travels back as an application error (ErrRemote) carrying
	// the unknown-operation text.
	k, p := stack(t, middleware.ProfileCORBALike)
	b := bound(t, p)
	exportEcho(t, b)
	port, err := svc.NewPort(b, "server", "warp", encPing, decPing)
	if err != nil {
		t.Fatal(err)
	}
	var callErr error
	if err := port.Call("node-c", pingReq{}, func(_ pingResp, e error) { callErr = e }); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(callErr, svc.ErrRemote) {
		t.Fatalf("unknown op reply: %v, want ErrRemote", callErr)
	}
}

func TestDoubleBind(t *testing.T) {
	s, err := svc.New(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	_, p1 := stack(t, middleware.ProfileCORBALike)
	if _, err := s.Bind(p1); err != nil {
		t.Fatal(err)
	}
	_, p2 := stack(t, middleware.ProfileCORBALike)
	if _, err := s.Bind(p2); !errors.Is(err, svc.ErrAlreadyBound) {
		t.Fatalf("second bind: %v, want ErrAlreadyBound", err)
	}
	// Double export registration classifies the same way.
	b := boundOn(t, middleware.ProfileCORBALike)
	e1, err := b.NewExport("obj", "n")
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.Register(); err != nil {
		t.Fatal(err)
	}
	if err := e1.Register(); !errors.Is(err, svc.ErrAlreadyBound) {
		t.Fatalf("re-register export: %v, want ErrAlreadyBound", err)
	}
	e2, err := b.NewExport("obj", "n")
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Register(); !errors.Is(err, svc.ErrAlreadyBound) {
		t.Fatalf("duplicate ref register: %v, want ErrAlreadyBound", err)
	}
}

func TestDeadlineFiresContinuationExactlyOnce(t *testing.T) {
	k, p := stack(t, withTimeout(middleware.ProfileCORBALike, 10*time.Millisecond))
	b := bound(t, p)
	// A server that replies only when poked — after the call timeout.
	var stashed func(pingResp, error)
	e, err := b.NewExport("slow", "node-s")
	if err != nil {
		t.Fatal(err)
	}
	err = svc.HandleOp(e, "ping",
		decPingReq,
		encPong,
		func(req pingReq, respond func(pingResp, error)) { stashed = respond })
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register(); err != nil {
		t.Fatal(err)
	}
	port, err := svc.NewPort(b, "slow", "ping", encPing, decPing)
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	var firstErr error
	var firedAt time.Duration
	if err := port.Call("node-c", pingReq{}, func(_ pingResp, e error) {
		fired++
		firstErr = e
		firedAt = k.Now()
	}); err != nil {
		t.Fatal(err)
	}
	// Release the stashed reply well after the timeout: the late reply
	// must be dropped, not delivered as a second continuation firing.
	k.ScheduleFunc(50*time.Millisecond, func() { stashed(pingResp{N: 99}, nil) })
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("continuation fired %d times, want exactly 1", fired)
	}
	if !errors.Is(firstErr, svc.ErrTimeout) || !errors.Is(firstErr, middleware.ErrCallTimeout) {
		t.Fatalf("timeout error = %v, want both svc.ErrTimeout and middleware.ErrCallTimeout", firstErr)
	}
	if firedAt != 10*time.Millisecond {
		t.Fatalf("timeout fired at %v, want 10ms of virtual time", firedAt)
	}
}

func TestDeadlineNotFiredOnTimelyReply(t *testing.T) {
	k, p := stack(t, withTimeout(middleware.ProfileCORBALike, time.Second))
	b := bound(t, p)
	exportEcho(t, b)
	port, err := svc.NewPort(b, "server", "ping", encPing, decPing)
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	var callErr error
	for i := 0; i < 3; i++ { // exercise call-state reuse across calls
		if err := port.Call("node-c", pingReq{N: int64(i)}, func(_ pingResp, e error) {
			fired++
			if e != nil {
				callErr = e
			}
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if fired != 3 || callErr != nil {
		t.Fatalf("fired=%d err=%v, want 3 clean firings", fired, callErr)
	}
}

func TestTypedPubSubAndQueue(t *testing.T) {
	k, p := stack(t, middleware.ProfileJMSLike)
	b := bound(t, p, middleware.PatternQueue, middleware.PatternPubSub)

	type note struct{ Seq uint64 }
	encNote := func(buf []byte, n note) ([]byte, error) { return codec.Append(buf, codec.Record{"seq": n.Seq}) }
	recNote := codec.CompileRecord("seq")
	decNote := func(v codec.MsgView) (note, error) {
		var sl codec.Slots
		recNote.Resolve(&v, &sl)
		seq, _ := sl.UintAt(0)
		return note{Seq: seq}, nil
	}

	// Topic: typed publisher, zero-copy typed subscriber of the event's
	// field record.
	var topicGot []uint64
	src, err := svc.NewTopicSource(b, "news", "sub-1", decNote,
		func(n note) { topicGot = append(topicGot, n.Seq) })
	if err != nil {
		t.Fatal(err)
	}
	topic, err := svc.NewTopicSink(b, "news", "note", encNote)
	if err != nil {
		t.Fatal(err)
	}

	// Queue: typed producer and consumer on the record contract.
	if err := b.DeclareQueue("jobs"); err != nil {
		t.Fatal(err)
	}
	var queueGot []uint64
	if _, err := svc.NewQueueSource(b, "jobs", "worker", decNote,
		func(n note) { queueGot = append(queueGot, n.Seq) }); err != nil {
		t.Fatal(err)
	}
	jobs, err := svc.NewQueueSink(b, "jobs", "note", encNote)
	if err != nil {
		t.Fatal(err)
	}

	for i := uint64(1); i <= 3; i++ {
		if err := topic.Send("pub", note{Seq: i}); err != nil {
			t.Fatal(err)
		}
		if err := jobs.Send("pub", note{Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, got := range [][]uint64{topicGot, queueGot} {
		if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
			t.Fatalf("endpoint %d received %v, want [1 2 3]", i, got)
		}
	}
	if src.Received() != 3 || src.Dropped() != 0 {
		t.Fatalf("source counters %d/%d, want 3/0", src.Received(), src.Dropped())
	}
}

func TestOnewaySink(t *testing.T) {
	k, p := stack(t, middleware.ProfileCORBALike)
	b := bound(t, p)
	var got []int64
	e, err := b.NewExport("collector", "node-s")
	if err != nil {
		t.Fatal(err)
	}
	err = svc.HandleOp(e, "put",
		decPingReq,
		nil,
		func(req pingReq, respond func(struct{}, error)) {
			got = append(got, req.N)
			respond(struct{}{}, nil)
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register(); err != nil {
		t.Fatal(err)
	}
	sink, err := svc.NewOnewaySink(b, "collector", "put", encPing)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 4; i++ {
		if err := sink.Send("node-c", pingReq{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("collector got %v, want 4 values in order", got)
	}
}

func TestSpecValidation(t *testing.T) {
	if _, err := svc.New(nil); err == nil {
		t.Fatal("nil spec accepted")
	}
	if _, err := svc.New(&core.ServiceSpec{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if _, err := svc.New(testSpec()); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteErrorClassification(t *testing.T) {
	k, p := stack(t, middleware.ProfileCORBALike)
	b := bound(t, p)
	e, err := b.NewExport("grumpy", "node-s")
	if err != nil {
		t.Fatal(err)
	}
	err = svc.HandleOp(e, "ping",
		decPingReq,
		encPong,
		func(_ pingReq, respond func(pingResp, error)) { respond(pingResp{}, errors.New("no")) })
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register(); err != nil {
		t.Fatal(err)
	}
	port, err := svc.NewPort(b, "grumpy", "ping", encPing, decPing)
	if err != nil {
		t.Fatal(err)
	}
	var callErr error
	if err := port.Call("node-c", pingReq{}, func(_ pingResp, e error) { callErr = e }); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(callErr, svc.ErrRemote) || !errors.Is(callErr, middleware.ErrRemote) {
		t.Fatalf("remote error = %v, want both svc.ErrRemote and middleware.ErrRemote in the chain", callErr)
	}
}

func TestStaleRespondCannotHijackLaterDispatch(t *testing.T) {
	// A handler that escapes its respond continuation, responds once
	// asynchronously, then (in violation of the once contract) calls it
	// again after further dispatches have run: the duplicate must be a
	// no-op — it must not deliver the old response to a later caller.
	k, p := stack(t, middleware.ProfileCORBALike)
	b := bound(t, p)
	var stashed []func(pingResp, error)
	e, err := b.NewExport("slow", "node-s")
	if err != nil {
		t.Fatal(err)
	}
	err = svc.HandleOp(e, "ping",
		decPingReq,
		encPong,
		func(req pingReq, respond func(pingResp, error)) {
			stashed = append(stashed, respond)
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register(); err != nil {
		t.Fatal(err)
	}
	port, err := svc.NewPort(b, "slow", "ping", encPing, decPing)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	cont := func(r pingResp, e error) {
		if e != nil {
			t.Errorf("call error: %v", e)
		}
		got = append(got, r.N)
	}
	for i := int64(1); i <= 2; i++ {
		if err := port.Call("node-c", pingReq{N: i}, cont); err != nil {
			t.Fatal(err)
		}
	}
	k.ScheduleFunc(10*time.Millisecond, func() {
		stashed[0](pingResp{N: 101}, nil) // call 1 answered
		stashed[0](pingResp{N: 666}, nil) // stale duplicate: must vanish
		stashed[1](pingResp{N: 102}, nil) // call 2 answered
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 101 || got[1] != 102 {
		t.Fatalf("replies = %v, want [101 102] (stale duplicate suppressed)", got)
	}
}
