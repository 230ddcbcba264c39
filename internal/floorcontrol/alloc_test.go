package floorcontrol

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/middleware"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// TestMWCallbackCycleAllocs pins that a warm request→grant→free cycle of
// the callback middleware solution (Fig. 4(a)) allocates nothing: the
// svc ports and exports, the platform's call and reply cells, the
// reliable datagram, the kernel and the conformance observer all reuse
// what the first cycle made, and every name on the way was resolved
// when the deployment was built.
func TestMWCallbackCycleAllocs(t *testing.T) {
	engine := sim.NewKernel(sim.WithSeed(1))
	net := network.New(engine, network.WithDefaultLink(network.LinkConfig{Latency: time.Millisecond}))
	observer, err := core.NewObserver(runSpec, engine)
	if err != nil {
		t.Fatal(err)
	}
	transport := protocol.NewReliableDatagram(engine, protocol.NewUnreliableDatagram(net), protocol.ReliableDatagramConfig{})
	env := &Env{
		Time: engine, Net: net, Observer: observer,
		Subscribers: SubscriberNames(2), Resources: ResourceNames(2),
		PollInterval: 10 * time.Millisecond, TokenHopDelay: 2 * time.Millisecond,
		Platform: middleware.New(engine, transport, middleware.ProfileCORBALike, "mw-broker"),
	}
	parts, err := (&MWCallback{}).Build(env)
	if err != nil {
		t.Fatal(err)
	}
	part, res := parts["s1"], env.Resources[1]
	granted := false
	done := func() { granted = true }
	run := func() {
		if _, err := engine.RunUntil(engine.Now() + time.Second); err != nil {
			t.Fatal(err)
		}
	}
	cycle := func() {
		granted = false
		part.Acquire(res, done)
		run()
		if !granted {
			t.Fatal("request not granted")
		}
		part.Release(res)
		run()
	}
	cycle() // warm: AllocsPerRun adds one more unmeasured cycle
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("%.1f allocs per request→grant→free cycle, want 0", n)
	}
	if err := observer.Complete(); err != nil {
		t.Fatal(err)
	}
	if st := env.Platform.Stats(); st.Calls != 3*102 || st.Replies != 3*102 {
		t.Fatalf("platform saw %d calls and %d replies, want 3 per cycle", st.Calls, st.Replies)
	}
}
