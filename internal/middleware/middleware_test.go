package middleware

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// newPlatform builds a platform over a reliable transport on a lossless
// 1ms network.
func newPlatform(t testing.TB, profile Profile, lossRate float64) (*sim.Kernel, *Platform) {
	t.Helper()
	k := sim.NewKernel(sim.WithSeed(5))
	net := network.New(k, network.WithDefaultLink(network.LinkConfig{
		Latency:  time.Millisecond,
		LossRate: lossRate,
	}))
	transport := protocol.NewReliableDatagram(k, protocol.NewUnreliableDatagram(net), protocol.ReliableDatagramConfig{})
	return k, New(k, transport, profile, "mw-broker")
}

// wire encodes a record as an RPC argument or result (one encoded
// record value), panicking on unencodable test input.
func wire(r codec.Record) []byte {
	b, err := codec.Append(nil, r)
	if err != nil {
		panic(err)
	}
	return b
}

// msgName copies the "name" field out of a borrowed queue-delivery or
// event envelope view.
func msgName(v codec.MsgView) string {
	name, _ := v.Str("name")
	return string(name)
}

// fields materializes a borrowed record view for assertions.
func fields(v codec.MsgView) codec.Record {
	r, err := v.Fields()
	if err != nil {
		panic(err)
	}
	return r
}

// echoObject replies with its arguments plus a marker.
func echoObject() Object {
	return ObjectFunc(func(op []byte, args codec.MsgView, reply Reply) {
		if string(op) != "echo" {
			reply(nil, fmt.Errorf("%w: %q", ErrUnknownOperation, op))
			return
		}
		out := fields(args)
		out["echoed"] = true
		reply(wire(out), nil)
	})
}

func TestRPCRoundTrip(t *testing.T) {
	k, p := newPlatform(t, ProfileCORBALike, 0)
	if err := p.Register("server", "node-s", echoObject()); err != nil {
		t.Fatal(err)
	}
	var result codec.Record
	var callErr error
	err := p.Invoke("node-c", "server", "echo", wire(codec.Record{"x": int64(7)}), func(r codec.MsgView, e error) {
		result, callErr = fields(r), e
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if callErr != nil {
		t.Fatalf("call error: %v", callErr)
	}
	if result["x"] != int64(7) || result["echoed"] != true {
		t.Fatalf("result = %v", result)
	}
	st := p.Stats()
	if st.Calls != 1 || st.Replies != 1 || st.WireMessages < 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRPCRemoteError(t *testing.T) {
	k, p := newPlatform(t, ProfileRMILike, 0)
	if err := p.Register("server", "node-s", echoObject()); err != nil {
		t.Fatal(err)
	}
	var callErr error
	if err := p.Invoke("node-c", "server", "explode", nil, func(_ codec.MsgView, e error) { callErr = e }); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(callErr, ErrRemote) {
		t.Fatalf("callErr = %v, want ErrRemote", callErr)
	}
}

func TestRPCUnknownObject(t *testing.T) {
	_, p := newPlatform(t, ProfileRMILike, 0)
	err := p.Invoke("node-c", "ghost", "op", nil, nil)
	if !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("err = %v, want ErrUnknownObject", err)
	}
}

func TestRPCDeferredReply(t *testing.T) {
	// The callback-based floor controller replies *later*; verify deferred
	// replies work.
	k, p := newPlatform(t, ProfileCORBALike, 0)
	var saved Reply
	deferred := ObjectFunc(func(op []byte, args codec.MsgView, reply Reply) {
		saved = reply // grant later
	})
	if err := p.Register("ctrl", "node-s", deferred); err != nil {
		t.Fatal(err)
	}
	done := false
	if err := p.Invoke("node-c", "ctrl", "request", nil, func(codec.MsgView, error) { done = true }); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatal("reply before controller granted")
	}
	saved(wire(codec.Record{"ok": true}), nil)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("deferred reply never arrived")
	}
}

func TestRPCTimeout(t *testing.T) {
	profile := ProfileRMILike
	profile.CallTimeout = 10 * time.Millisecond
	k, p := newPlatform(t, profile, 0)
	// Object that never replies.
	if err := p.Register("hang", "node-s", ObjectFunc(func([]byte, codec.MsgView, Reply) {})); err != nil {
		t.Fatal(err)
	}
	var callErr error
	if err := p.Invoke("node-c", "hang", "op", nil, func(_ codec.MsgView, e error) { callErr = e }); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(callErr, ErrCallTimeout) {
		t.Fatalf("callErr = %v, want ErrCallTimeout", callErr)
	}
	if p.Stats().Timeouts != 1 {
		t.Fatalf("stats = %+v", p.Stats())
	}
}

func TestPatternGating(t *testing.T) {
	_, p := newPlatform(t, ProfileMQLike, 0) // queues only
	if err := p.Invoke("c", "x", "op", nil, nil); !errors.Is(err, ErrPatternUnsupported) {
		t.Fatalf("Invoke err = %v", err)
	}
	if err := p.InvokeOneway("c", "x", "op", nil); !errors.Is(err, ErrPatternUnsupported) {
		t.Fatalf("Oneway err = %v", err)
	}
	if err := p.Publish("c", "t", codec.NewMessage("m", nil)); !errors.Is(err, ErrPatternUnsupported) {
		t.Fatalf("Publish err = %v", err)
	}
	if err := p.SubscribeTopicView("t", "c", func(codec.MsgView) {}); !errors.Is(err, ErrPatternUnsupported) {
		t.Fatalf("SubscribeTopicView err = %v", err)
	}
	_, pq := newPlatform(t, ProfileRMILike, 0) // rpc only
	if err := pq.QueueDeclare("q"); !errors.Is(err, ErrPatternUnsupported) {
		t.Fatalf("QueueDeclare err = %v", err)
	}
	if err := pq.QueuePut("c", "q", "m", nil); !errors.Is(err, ErrPatternUnsupported) {
		t.Fatalf("QueuePut err = %v", err)
	}
	if err := pq.QueueSubscribe("q", "c", func(codec.MsgView) {}); !errors.Is(err, ErrPatternUnsupported) {
		t.Fatalf("QueueSubscribe err = %v", err)
	}
}

func TestRegisterErrors(t *testing.T) {
	_, p := newPlatform(t, ProfileCORBALike, 0)
	if err := p.Register("x", "n", nil); err == nil {
		t.Fatal("nil object accepted")
	}
	if err := p.Register("x", "n", echoObject()); err != nil {
		t.Fatal(err)
	}
	if err := p.Register("x", "n2", echoObject()); !errors.Is(err, ErrDuplicateObject) {
		t.Fatalf("err = %v, want ErrDuplicateObject", err)
	}
	if node, ok := p.Resolve("x"); !ok || node != "n" {
		t.Fatalf("Resolve = %v, %v", node, ok)
	}
	if _, ok := p.Resolve("ghost"); ok {
		t.Fatal("ghost resolved")
	}
}

func TestOneway(t *testing.T) {
	k, p := newPlatform(t, ProfileJMSLike, 0)
	var got []string
	sink := ObjectFunc(func(op []byte, args codec.MsgView, _ Reply) {
		v, _ := args.Int("v")
		got = append(got, fmt.Sprintf("%s:%d", op, v))
	})
	if err := p.Register("sink", "node-s", sink); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := p.InvokeOneway("node-c", "sink", "put", wire(codec.Record{"v": int64(i)})); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "put:0" || got[2] != "put:2" {
		t.Fatalf("got %v", got)
	}
	if p.Stats().Oneways != 3 {
		t.Fatalf("stats = %+v", p.Stats())
	}
}

func TestQueueRoundRobinDelivery(t *testing.T) {
	k, p := newPlatform(t, ProfileJMSLike, 0)
	if err := p.QueueDeclare("jobs"); err != nil {
		t.Fatal(err)
	}
	if err := p.QueueDeclare("jobs"); !errors.Is(err, ErrDuplicateQueue) {
		t.Fatalf("err = %v, want ErrDuplicateQueue", err)
	}
	var c1, c2 []string
	if err := p.QueueSubscribe("jobs", "w1", func(v codec.MsgView) { c1 = append(c1, msgName(v)) }); err != nil {
		t.Fatal(err)
	}
	if err := p.QueueSubscribe("jobs", "w2", func(v codec.MsgView) { c2 = append(c2, msgName(v)) }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := p.QueuePut("prod", "jobs", fmt.Sprintf("job-%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(c1)+len(c2) != 6 {
		t.Fatalf("delivered %d+%d, want 6 total", len(c1), len(c2))
	}
	if len(c1) != 3 || len(c2) != 3 {
		t.Fatalf("round robin skewed: %d vs %d", len(c1), len(c2))
	}
	st := p.Stats()
	if st.QueuePuts != 6 || st.QueueDeliver != 6 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestQueueCoLocatedConsumersRoundRobin puts two of a queue's three
// consumers on one node: the node hands its deliveries to its own
// consumers in turn, so all three share the queue evenly.
func TestQueueCoLocatedConsumersRoundRobin(t *testing.T) {
	k, p := newPlatform(t, ProfileJMSLike, 0)
	if err := p.QueueDeclare("jobs"); err != nil {
		t.Fatal(err)
	}
	got := make([][]string, 3)
	for i, node := range []Addr{"n", "m", "n"} {
		if err := p.QueueSubscribe("jobs", node, func(v codec.MsgView) { got[i] = append(got[i], msgName(v)) }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		if err := p.QueuePut("prod", "jobs", fmt.Sprintf("job-%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"job-0", "job-3"}, {"job-1", "job-4"}, {"job-2", "job-5"}}
	for i := range want {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Fatalf("consumer deliveries = %v, want %v", got, want)
		}
	}
}

func TestQueueBacklogBeforeSubscribe(t *testing.T) {
	k, p := newPlatform(t, ProfileMQLike, 0)
	if err := p.QueueDeclare("q"); err != nil {
		t.Fatal(err)
	}
	if err := p.QueuePut("prod", "q", "early", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var got []string
	if err := p.QueueSubscribe("q", "w", func(v codec.MsgView) { got = append(got, msgName(v)) }); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "early" {
		t.Fatalf("backlog delivery = %v", got)
	}
}

func TestQueueUnknown(t *testing.T) {
	_, p := newPlatform(t, ProfileMQLike, 0)
	if err := p.QueuePut("c", "nope", "m", nil); !errors.Is(err, ErrUnknownQueue) {
		t.Fatalf("err = %v", err)
	}
	if err := p.QueueSubscribe("nope", "c", func(codec.MsgView) {}); !errors.Is(err, ErrUnknownQueue) {
		t.Fatalf("err = %v", err)
	}
	if err := p.QueueSubscribe("nope", "c", nil); err == nil {
		t.Fatal("nil consumer accepted")
	}
}

// TestQueueBacklogSurvivesBufferReuse pins that the broker's backlog
// owns its bytes: messages put before any consumer subscribes arrive
// byte-intact even after later traffic has recycled the pooled delivery
// buffers they first arrived in.
func TestQueueBacklogSurvivesBufferReuse(t *testing.T) {
	k, p := newPlatform(t, ProfileMQLike, 0)
	for _, q := range []string{"early", "busy"} {
		if err := p.QueueDeclare(q); err != nil {
			t.Fatal(err)
		}
	}
	payload := func(fill byte, i int) []byte {
		return wire(codec.Record{"blob": bytes.Repeat([]byte{fill}, 64), "i": int64(i)})
	}
	var wantNames []string
	var wantFields [][]byte
	for i := 0; i < 3; i++ {
		wantNames = append(wantNames, fmt.Sprintf("m%d", i))
		wantFields = append(wantFields, payload('a', i))
		if err := p.QueuePut("prod", "early", wantNames[i], wantFields[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Run(); err != nil { // backlogged at the broker
		t.Fatal(err)
	}
	if err := p.QueueSubscribe("busy", "w2", func(codec.MsgView) {}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := p.QueuePut("prod", "busy", "noise", payload('z', i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var gotNames []string
	var gotFields [][]byte
	if err := p.QueueSubscribe("early", "w1", func(v codec.MsgView) {
		gotNames = append(gotNames, msgName(v))
		raw, _ := v.Raw("fields")
		gotFields = append(gotFields, append([]byte(nil), raw...))
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(gotNames) != len(wantNames) {
		t.Fatalf("backlog delivered %v, want %v", gotNames, wantNames)
	}
	for i := range wantNames {
		if gotNames[i] != wantNames[i] || !bytes.Equal(gotFields[i], wantFields[i]) {
			t.Fatalf("backlog message %d = %q % x, want %q % x", i, gotNames[i], gotFields[i], wantNames[i], wantFields[i])
		}
	}
}

// TestEnqueueCorruptFields pins the Corrupt rule on the queue plane: an
// mw.enqueue whose fields are not a record is dropped at the broker and
// counted in Stats.Corrupt, like a call whose arguments are not one.
func TestEnqueueCorruptFields(t *testing.T) {
	k, p := newPlatform(t, ProfileMQLike, 0)
	if err := p.QueueDeclare("q"); err != nil {
		t.Fatal(err)
	}
	var got []string
	if err := p.QueueSubscribe("q", "w", func(v codec.MsgView) { got = append(got, msgName(v)) }); err != nil {
		t.Fatal(err)
	}
	if err := p.AttachNode("prod"); err != nil {
		t.Fatal(err)
	}
	enqueue := func(fields codec.Record) []byte {
		data, err := codec.AppendMessage(nil, codec.NewMessage("mw.enqueue", fields))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	p.HandleWire("prod", "mw-broker", enqueue(codec.Record{"fields": "not a record", "name": "bad", "queue": "q"}))
	p.HandleWire("prod", "mw-broker", enqueue(codec.Record{"name": "absent", "queue": "q"}))
	p.HandleWire("prod", "mw-broker", enqueue(codec.Record{"fields": codec.Record{"n": int64(1)}, "name": "good", "queue": "q"}))
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Corrupt != 2 || st.QueueDeliver != 1 || len(got) != 1 || got[0] != "good" {
		t.Fatalf("Corrupt = %d, QueueDeliver = %d, delivered %v; want 2, 1, [good]", st.Corrupt, st.QueueDeliver, got)
	}
}

func TestPubSubFanout(t *testing.T) {
	k, p := newPlatform(t, ProfileCORBALike, 0)
	var got1, got2 []string
	if err := p.SubscribeTopicView("news", "n1", func(v codec.MsgView) { got1 = append(got1, msgName(v)) }); err != nil {
		t.Fatal(err)
	}
	if err := p.SubscribeTopicView("news", "n2", func(v codec.MsgView) { got2 = append(got2, msgName(v)) }); err != nil {
		t.Fatal(err)
	}
	if err := p.Publish("pub", "news", codec.NewMessage("flash", codec.Record{"k": "v"})); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got1) != 1 || len(got2) != 1 {
		t.Fatalf("fanout = %v / %v", got1, got2)
	}
	st := p.Stats()
	if st.Publishes != 1 || st.EventDeliver != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPubSubNilSink(t *testing.T) {
	_, p := newPlatform(t, ProfileCORBALike, 0)
	if err := p.SubscribeTopicView("t", "n", nil); err == nil {
		t.Fatal("nil sink accepted")
	}
}

func TestRPCOverLossyNetwork(t *testing.T) {
	// The reliable transport must mask 30% loss entirely.
	k, p := newPlatform(t, ProfileCORBALike, 0.3)
	if err := p.Register("server", "node-s", echoObject()); err != nil {
		t.Fatal(err)
	}
	completed := 0
	for i := 0; i < 20; i++ {
		err := p.Invoke("node-c", "server", "echo", wire(codec.Record{"i": int64(i)}), func(r codec.MsgView, e error) {
			if e == nil {
				completed++
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if completed != 20 {
		t.Fatalf("completed %d of 20 over lossy-but-reliable transport", completed)
	}
}

func TestDispatchOverheadAddsLatency(t *testing.T) {
	profile := ProfileRMILike
	profile.DispatchOverhead = 5 * time.Millisecond
	k, p := newPlatform(t, profile, 0)
	if err := p.Register("server", "node-s", echoObject()); err != nil {
		t.Fatal(err)
	}
	var when time.Duration
	if err := p.Invoke("node-c", "server", "echo", nil, func(codec.MsgView, error) { when = k.Now() }); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 2 × 1ms wire + 2 × 5ms dispatch = at least 12ms.
	if when < 12*time.Millisecond {
		t.Fatalf("reply at %v, want >= 12ms with overhead", when)
	}
}

func TestProfileByName(t *testing.T) {
	for _, want := range Profiles() {
		got, ok := ProfileByName(want.Name)
		if !ok || got.Name != want.Name {
			t.Fatalf("ProfileByName(%q) = %+v, %v", want.Name, got, ok)
		}
	}
	if _, ok := ProfileByName("nope"); ok {
		t.Fatal("unknown profile found")
	}
}

func TestPatternString(t *testing.T) {
	for p, want := range map[Pattern]string{
		PatternRPC: "rpc", PatternOneway: "oneway", PatternQueue: "queue", PatternPubSub: "pubsub",
	} {
		if p.String() != want {
			t.Fatalf("Pattern %d = %q, want %q", int(p), p.String(), want)
		}
	}
	if Pattern(42).String() != "Pattern(42)" {
		t.Fatal("unknown pattern string")
	}
}

func BenchmarkRPCRoundTrip(b *testing.B) {
	b.ReportAllocs()
	k, p := newPlatform(b, ProfileRMILike, 0)
	if err := p.Register("server", "node-s", echoObject()); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		done := false
		if err := p.Invoke("node-c", "server", "echo", wire(codec.Record{"i": int64(i)}), func(codec.MsgView, error) { done = true }); err != nil {
			b.Fatal(err)
		}
		if _, err := k.Run(); err != nil {
			b.Fatal(err)
		}
		if !done {
			b.Fatal("call incomplete")
		}
	}
}

// TestPlatformOverStreamTransport runs the platform over the full §4.2
// stack: unreliable datagrams → reliable datagrams → octet stream →
// framed PDUs. The middleware is oblivious to the four layers beneath it.
func TestPlatformOverStreamTransport(t *testing.T) {
	k := sim.NewKernel(sim.WithSeed(13))
	net := network.New(k, network.WithDefaultLink(network.LinkConfig{
		Latency:  time.Millisecond,
		LossRate: 0.2,
	}))
	transport := protocol.NewStreamTransport(k, protocol.NewUnreliableDatagram(net),
		protocol.ReliableDatagramConfig{}, protocol.StreamConfig{ChunkSize: 32})
	p := New(k, transport, ProfileCORBALike, "broker")
	if err := p.Register("server", "node-s", echoObject()); err != nil {
		t.Fatal(err)
	}
	completed := 0
	for i := 0; i < 10; i++ {
		err := p.Invoke("node-c", "server", "echo", wire(codec.Record{"i": int64(i)}), func(r codec.MsgView, e error) {
			if e == nil {
				completed++
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if completed != 10 {
		t.Fatalf("completed %d of 10 over the stream transport", completed)
	}
}
