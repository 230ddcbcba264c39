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
				out, _ := appendN(nil, readN(&args)+100)
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

// TestFailedCallAllocatesNothing pins the fail-fast path of a port call
// to a down node: once warm, the call, its trip through the kernel to
// the continuation and a retry policy's errors.Is checks allocate
// nothing. The error is both svc.ErrUnavailable and
// middleware.ErrUnavailable, and it names the down node: the callee, or
// the caller when the caller's own node is down. A call pending when its
// callee goes down fails with the node's "crashed" error instead.
func TestFailedCallAllocatesNothing(t *testing.T) {
	k, p := stack(t, middleware.ProfileRMILike)
	b := bound(t, p, middleware.PatternRPC)
	exportEcho(t, b)
	port, err := svc.NewPort(b, "server", "ping", encPing, decPing)
	if err != nil {
		t.Fatal(err)
	}

	// A call pending when the callee goes down.
	var crashedErr error
	if err := port.Call("node-c", pingReq{N: 1}, func(_ pingResp, e error) { crashedErr = e }); err != nil {
		t.Fatal(err)
	}
	p.NodeDown("node-s")
	if got, want := crashedErr.Error(), "middleware: node unavailable: node-s crashed"; got != want {
		t.Fatalf("crashed error = %q, want %q", got, want)
	}

	var failed int
	var lastErr error
	cont := func(_ pingResp, e error) {
		if errors.Is(e, svc.ErrUnavailable) || errors.Is(e, svc.ErrTimeout) {
			failed++
		}
		lastErr = e
	}
	call := func() {
		if err := port.Call("node-c", pingReq{N: 1}, cont); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	call()
	if !errors.Is(lastErr, svc.ErrUnavailable) || !errors.Is(lastErr, middleware.ErrUnavailable) {
		t.Fatalf("call to a down node: %v, want both svc.ErrUnavailable and middleware.ErrUnavailable", lastErr)
	}
	if got, want := lastErr.Error(), "middleware: node unavailable: node-s is down"; got != want {
		t.Fatalf("down error = %q, want %q", got, want)
	}
	allocs := testing.AllocsPerRun(200, call)
	if failed != 202 {
		t.Fatalf("%d continuations saw a retryable error, want 202", failed)
	}
	if allocs != 0 {
		t.Errorf("a failed call allocates %.1f/op, want 0", allocs)
	}

	// A warm retried call: two fail-fast attempts re-armed, then the
	// policy gives up on the third.
	tries := 0
	policy := func(_ pingResp, e error) bool {
		tries++
		return tries%3 != 0 && errors.Is(e, svc.ErrUnavailable)
	}
	from := svc.Caller(callerAt(t, p, "node-c"))
	retried := func() {
		port.CallRetry(from, pingReq{N: 1}, 0, time.Millisecond, policy)
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	retried()
	allocs = testing.AllocsPerRun(200, retried)
	if tries != 3*202 {
		t.Fatalf("the policy ran %d times, want %d", tries, 3*202)
	}
	if allocs != 0 {
		t.Errorf("a retried call allocates %.1f/op, want 0", allocs)
	}

	// The caller's own node down: the error names the caller.
	p.NodeUp("node-s")
	p.NodeDown("node-c")
	call()
	if got, want := lastErr.Error(), "middleware: node unavailable: node-c is down"; got != want {
		t.Fatalf("caller-down error = %q, want %q", got, want)
	}
}

// at is a caller fixed at one node, by its platform id.
type at int32

func (a at) NodeID() int32 { return int32(a) }

// callerAt attaches node on p and returns a caller fixed there.
func callerAt(tb testing.TB, p *middleware.Platform, node middleware.Addr) at {
	tb.Helper()
	id, err := p.AttachRuntime(node)
	if err != nil {
		tb.Fatal(err)
	}
	return at(id)
}

// outcome is one attempt's result as a CallRetry policy saw it.
type outcome struct {
	at  time.Duration
	n   int64
	err error
}

// retryUntilUp runs one at-least-once ping (n = 41) against node-s,
// which is down until 25ms, retrying every 10ms while the callee is
// unavailable. It returns every outcome the policy saw and the platform.
func retryUntilUp(t *testing.T, enc func([]byte, pingReq) ([]byte, error)) ([]outcome, *middleware.Platform) {
	t.Helper()
	k, p := stack(t, middleware.ProfileRMILike)
	b := bound(t, p, middleware.PatternRPC)
	exportEcho(t, b)
	port, err := svc.NewPort(b, "server", "ping", enc, decPing)
	if err != nil {
		t.Fatal(err)
	}
	p.NodeDown("node-s")
	k.ScheduleFunc(25*time.Millisecond, func() { p.NodeUp("node-s") })
	var seen []outcome
	port.CallRetry(callerAt(t, p, "node-c"), pingReq{N: 41}, 0, 10*time.Millisecond, func(r pingResp, err error) bool {
		seen = append(seen, outcome{k.Now(), r.N, err})
		return errors.Is(err, svc.ErrUnavailable)
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return seen, p
}

// TestCallRetryRearmsEveryUntilSuccess: a call to a down node re-arms
// exactly every later, each failure reaching the policy at the instant
// its attempt leaves, and stops on the first success.
func TestCallRetryRearmsEveryUntilSuccess(t *testing.T) {
	seen, p := retryUntilUp(t, encPing)
	if len(seen) != 4 {
		t.Fatalf("policy ran %d times, want 3 failures and 1 success: %+v", len(seen), seen)
	}
	for i, o := range seen[:3] {
		if want := time.Duration(i) * 10 * time.Millisecond; o.at != want || !errors.Is(o.err, svc.ErrUnavailable) {
			t.Errorf("attempt %d: failed at %v with %v, want ErrUnavailable at %v", i, o.at, o.err, want)
		}
	}
	if last := seen[3]; last.err != nil || last.n != 42 || last.at <= 30*time.Millisecond {
		t.Errorf("last attempt: %+v, want n=42 after the 30ms attempt", last)
	}
	if st := p.Stats(); st.Calls != 1 || st.Unavailables != 3 {
		t.Errorf("platform saw %d calls and %d unavailables, want 1 and 3", st.Calls, st.Unavailables)
	}
}

// TestCallRetryEncodesOnce: the request is encoded once per logical
// send, and every attempt sends those bytes.
func TestCallRetryEncodesOnce(t *testing.T) {
	encodes := 0
	seen, _ := retryUntilUp(t, func(buf []byte, r pingReq) ([]byte, error) {
		encodes++
		return encPing(buf, r)
	})
	if len(seen) != 4 || seen[3].n != 42 {
		t.Fatalf("outcomes %+v, want 3 retries then the echo n=42", seen)
	}
	if encodes != 1 {
		t.Errorf("encoder ran %d times over 3 retries, want once", encodes)
	}
}

// TestCallRetryStopsWhenDoneSaysNo: a policy that answers false ends the
// call at once, whatever the outcome — and every outcome reaches it: a
// failed attempt, a synchronous platform refusal, an encoder failure.
func TestCallRetryStopsWhenDoneSaysNo(t *testing.T) {
	k, p := stack(t, middleware.ProfileRMILike)
	b := bound(t, p, middleware.PatternRPC)
	exportEcho(t, b)
	badEnc := func([]byte, pingReq) ([]byte, error) { return nil, errors.New("unencodable") }
	for _, c := range []struct {
		name   string
		target middleware.ObjRef
		enc    func([]byte, pingReq) ([]byte, error)
		want   error
	}{
		{"callee down", "server", encPing, svc.ErrUnavailable},
		{"unknown target", "nowhere", encPing, svc.ErrNoSuchService},
		{"encoder failure", "server", badEnc, nil},
	} {
		port, err := svc.NewPort(b, c.target, "ping", c.enc, decPing)
		if err != nil {
			t.Fatal(err)
		}
		p.NodeDown("node-s")
		var errs []error
		port.CallRetry(callerAt(t, p, "node-c"), pingReq{N: 1}, 0, time.Millisecond, func(_ pingResp, err error) bool {
			errs = append(errs, err)
			return false
		})
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if len(errs) != 1 || errs[0] == nil || (c.want != nil && !errors.Is(errs[0], c.want)) {
			t.Errorf("%s: policy saw %v, want one %v", c.name, errs, c.want)
		}
	}
}

// TestCallRetryFollowsRebind: an Export is a Caller, and every attempt
// leaves from its current node, so a component re-homed between
// attempts retries from its new node.
func TestCallRetryFollowsRebind(t *testing.T) {
	k, p := stack(t, middleware.ProfileRMILike)
	b := bound(t, p, middleware.PatternRPC)
	exportEcho(t, b)
	client, err := b.NewExport("client", "node-x")
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Register(); err != nil {
		t.Fatal(err)
	}
	port, err := svc.NewPort(b, "server", "ping", encPing, decPing)
	if err != nil {
		t.Fatal(err)
	}
	p.NodeDown("node-x")
	var errs []error
	port.CallRetry(client, pingReq{N: 1}, 0, time.Millisecond, func(_ pingResp, err error) bool {
		errs = append(errs, err)
		if err == nil {
			return false
		}
		if err := client.Rebind("node-y"); err != nil {
			t.Fatal(err)
		}
		return true
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(errs) != 2 || errs[1] != nil {
		t.Fatalf("outcomes %v, want one failure from node-x then a success", errs)
	}
	if got, want := errs[0].Error(), "middleware: node unavailable: node-x is down"; got != want {
		t.Errorf("first attempt: %q, want %q", got, want)
	}
	if client.Node() != "node-y" {
		t.Errorf("client node = %q, want node-y", client.Node())
	}
}
