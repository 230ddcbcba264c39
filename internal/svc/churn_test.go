package svc_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/middleware"
	"repro/internal/svc"
)

// TestPortCrashBeforeDeadline pins the call bookkeeping under churn:
// when the callee crashes before the profile's call timeout fires, the
// continuation runs exactly once with ErrUnavailable, NodeDown cancels
// the platform's timeout timer (no second firing at expiry), the pooled
// call state is reclaimed, and a late reply from the restarted
// incarnation's handler is dropped instead of resolving anything.
func TestPortCrashBeforeDeadline(t *testing.T) {
	k, p := stack(t, withTimeout(middleware.ProfileRMILike, 100*time.Millisecond))
	b := bound(t, p, middleware.PatternRPC)

	// A handler that withholds its reply and fires it long after the
	// crash: the classic late reply from a restarted incarnation.
	e, err := b.NewExport("server", "node-s")
	if err != nil {
		t.Fatal(err)
	}
	err = svc.HandleOp(e, "ping",
		decPingReq,
		encPong,
		func(req pingReq, respond func(pingResp, error)) {
			k.ScheduleFunc(50*time.Millisecond, func() { respond(pingResp{N: req.N + 1}, nil) })
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register(); err != nil {
		t.Fatal(err)
	}

	port, err := svc.NewPort(b, "server", "ping", encPing, decPing)
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	var firstErr error
	if err := port.Call("node-c", pingReq{N: 1}, func(_ pingResp, e error) {
		calls++
		firstErr = e
	}); err != nil {
		t.Fatal(err)
	}
	// Crash before the timeout: the pending call must fail now, not at
	// 100ms, and not again when the late reply lands at ~51ms.
	k.ScheduleFunc(10*time.Millisecond, func() { p.NodeDown("node-s") })

	// After restart, the same port must serve again off the reclaimed
	// pool state.
	var second int
	var secondErr error
	k.ScheduleFunc(200*time.Millisecond, func() {
		p.NodeUp("node-s")
		if err := port.Call("node-c", pingReq{N: 7}, func(_ pingResp, e error) {
			second++
			secondErr = e
		}); err != nil {
			t.Error(err)
		}
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("first continuation ran %d times, want exactly once", calls)
	}
	if !errors.Is(firstErr, svc.ErrUnavailable) {
		t.Fatalf("first call error = %v, want svc.ErrUnavailable", firstErr)
	}
	if !errors.Is(firstErr, middleware.ErrUnavailable) {
		t.Fatalf("cause chain lost: %v, want middleware.ErrUnavailable reachable", firstErr)
	}
	// The second handler invocation also withholds for 50ms, so its
	// reply resolves at ~251ms — within the 100ms timeout.
	if second != 1 || !errors.Is(secondErr, nil) {
		t.Fatalf("second call: ran %d, err %v — pooled state not reclaimed?", second, secondErr)
	}
	st := p.Stats()
	if st.Unavailables != 1 {
		t.Fatalf("Unavailables = %d, want 1", st.Unavailables)
	}
	if st.Timeouts != 0 {
		t.Fatalf("Timeouts = %d, want 0 (NodeDown must cancel the timeout timer)", st.Timeouts)
	}
}

// TestExportRebindFailover: after the home node crashes, rebinding the
// export re-homes the reference and calls route to the new node.
func TestExportRebindFailover(t *testing.T) {
	k, p := stack(t, middleware.ProfileRMILike)
	b := bound(t, p, middleware.PatternRPC)
	exportEcho(t, b)

	// Grab the export again for rebinding: exportEcho registered it at
	// node-s. Build a second export value against the same ref is not
	// allowed (duplicate), so rebind through a fresh handle.
	e, err := b.NewExport("standby", "node-t")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Rebind("node-u"); !errors.Is(err, svc.ErrNoSuchService) {
		t.Fatalf("Rebind before Register: %v, want ErrNoSuchService", err)
	}

	port, err := svc.NewPort(b, "server", "ping", encPing, decPing)
	if err != nil {
		t.Fatal(err)
	}
	p.NodeDown("node-s")
	var got pingResp
	var callErr error
	k.ScheduleFunc(time.Millisecond, func() {
		// Failover: re-home the crashed export, then retry.
		if err := p.Rebind("server", "node-t", middleware.ObjectFunc(
			func(op []byte, args codec.MsgView, reply middleware.Reply) {
				n, _ := args.Int("n")
				out, _ := appendN(nil, n+100)
				reply(out, nil)
			})); err != nil {
			t.Error(err)
			return
		}
		if err := port.Call("node-c", pingReq{N: 1}, func(r pingResp, e error) {
			got, callErr = r, e
		}); err != nil {
			t.Error(err)
		}
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if callErr != nil || got.N != 101 {
		t.Fatalf("failover call: resp=%+v err=%v, want n=101 from the new home", got, callErr)
	}
	if home, ok := b.Resolve("server"); !ok || home != "node-t" {
		t.Fatalf("Resolve = %q/%v, want node-t", home, ok)
	}
}
