package middleware

import (
	"errors"
	"testing"
	"time"

	"repro/internal/codec"
)

// TestInvokeDownNodeFailsFast: an RPC against a node marked down fails
// asynchronously with ErrUnavailable instead of burning the call
// timeout.
func TestInvokeDownNodeFailsFast(t *testing.T) {
	profile := ProfileRMILike
	profile.CallTimeout = time.Second
	k, p := newPlatform(t, profile, 0)
	if err := p.Register("server", "node-s", echoObject()); err != nil {
		t.Fatal(err)
	}
	p.NodeDown("node-s")
	if !p.Down("node-s") || p.Down("node-c") {
		t.Fatal("Down misreports")
	}
	var callErr error
	var at time.Duration
	err := p.Invoke("node-c", "server", "echo", nil, func(_ codec.MsgView, e error) {
		callErr, at = e, k.Now()
	})
	if err != nil {
		t.Fatalf("Invoke returned a synchronous error: %v", err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(callErr, ErrUnavailable) {
		t.Fatalf("callErr = %v, want ErrUnavailable", callErr)
	}
	if at >= profile.CallTimeout {
		t.Fatalf("failure at %v — waited out the timeout instead of failing fast", at)
	}
	if st := p.Stats(); st.Unavailables != 1 || st.Timeouts != 0 {
		t.Fatalf("stats = %+v, want Unavailables=1 Timeouts=0", st)
	}
}

// TestNodeDownFailsPendingCalls: calls already in flight when the callee
// crashes fail immediately with ErrUnavailable, their timeout timers are
// cancelled, and continuations fire in call-id order.
func TestNodeDownFailsPendingCalls(t *testing.T) {
	profile := ProfileRMILike
	profile.CallTimeout = time.Second
	k, p := newPlatform(t, profile, 0)
	// A server that never replies: calls stay pending until churn.
	if err := p.Register("server", "node-s", ObjectFunc(func([]byte, codec.MsgView, Reply) {})); err != nil {
		t.Fatal(err)
	}
	var errs []error
	for i := 0; i < 3; i++ {
		if err := p.Invoke("node-c", "server", "hang", nil, func(_ codec.MsgView, e error) {
			errs = append(errs, e)
		}); err != nil {
			t.Fatal(err)
		}
	}
	k.ScheduleFunc(10*time.Millisecond, func() { p.NodeDown("node-s") })
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(errs) != 3 {
		t.Fatalf("got %d continuations, want 3", len(errs))
	}
	for i, e := range errs {
		if !errors.Is(e, ErrUnavailable) {
			t.Fatalf("errs[%d] = %v, want ErrUnavailable", i, e)
		}
	}
	st := p.Stats()
	if st.Unavailables != 3 {
		t.Fatalf("Unavailables = %d, want 3", st.Unavailables)
	}
	// Timers were cancelled: no timeout fires at 1s.
	if st.Timeouts != 0 {
		t.Fatalf("Timeouts = %d, want 0 (timers must be cancelled)", st.Timeouts)
	}
}

// TestNodeUpRestoresService: after NodeUp the same registration serves
// again — restart keeps registrations, state recovery is the app's
// concern.
func TestNodeUpRestoresService(t *testing.T) {
	k, p := newPlatform(t, ProfileRMILike, 0)
	if err := p.Register("server", "node-s", echoObject()); err != nil {
		t.Fatal(err)
	}
	p.NodeDown("node-s")
	p.NodeUp("node-s")
	var result codec.Record
	var callErr error
	if err := p.Invoke("node-c", "server", "echo", wire(codec.Record{"x": int64(1)}), func(r codec.MsgView, e error) {
		result, callErr = fields(r), e
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if callErr != nil || result["echoed"] != true {
		t.Fatalf("result=%v err=%v", result, callErr)
	}
}

// TestRebindMovesObject: Rebind re-homes a reference to a new node and
// instance; subsequent invokes route there.
func TestRebindMovesObject(t *testing.T) {
	k, p := newPlatform(t, ProfileRMILike, 0)
	if err := p.Register("server", "node-s", echoObject()); err != nil {
		t.Fatal(err)
	}
	if err := p.Rebind("ghost", "node-t", echoObject()); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("Rebind unknown ref: %v, want ErrUnknownObject", err)
	}
	served := ""
	takeover := ObjectFunc(func(op []byte, args codec.MsgView, reply Reply) {
		served = string(op)
		reply(wire(codec.Record{"home": "node-t"}), nil)
	})
	if err := p.Rebind("server", "node-t", takeover); err != nil {
		t.Fatal(err)
	}
	if home, ok := p.Resolve("server"); !ok || home != "node-t" {
		t.Fatalf("Resolve = %q/%v, want node-t", home, ok)
	}
	var result codec.Record
	if err := p.Invoke("node-c", "server", "echo", nil, func(r codec.MsgView, e error) {
		if e != nil {
			t.Error(e)
		}
		result = fields(r)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if served != "echo" || result["home"] != "node-t" {
		t.Fatalf("served=%q result=%v, want the rebound instance", served, result)
	}
}

// TestSetProfileMidRun: re-realizing onto a platform without RPC gates
// new invocations while leaving completed ones untouched.
func TestSetProfileMidRun(t *testing.T) {
	k, p := newPlatform(t, ProfileCORBALike, 0)
	if err := p.Register("server", "node-s", echoObject()); err != nil {
		t.Fatal(err)
	}
	if err := p.Invoke("node-c", "server", "echo", nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	p.SetProfile(ProfileMQLike)
	if got := p.Profile().Name; got != ProfileMQLike.Name {
		t.Fatalf("Profile = %q, want %q", got, ProfileMQLike.Name)
	}
	err := p.Invoke("node-c", "server", "echo", nil, nil)
	if !errors.Is(err, ErrPatternUnsupported) {
		t.Fatalf("Invoke under queue-only profile: %v, want ErrPatternUnsupported", err)
	}
}
