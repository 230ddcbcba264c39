package mda

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
)

// TestRerealizeMidRun: a running deployment migrates between concrete
// platforms without losing component state or service: the profile is
// swapped, the async-message adapter is replaced, and traffic flows
// through the new realization.
func TestRerealizeMidRun(t *testing.T) {
	cases := []struct {
		from, to      string
		wantMessaging string
	}{
		// oneway → queue: the queue endpoints are installed live.
		{"rpc-corba-like", "queue-mq-like", "async-over-queue"},
		// queue → oneway: the component objects are registered live.
		{"queue-mq-like", "rpc-corba-like", "native-oneway"},
		// oneway → sync: same objects, new adapter.
		{"rpc-corba-like", "rpc-rmi-like", "async-over-sync"},
	}
	for _, tc := range cases {
		t.Run(tc.from+"→"+tc.to, func(t *testing.T) {
			kernel, dep := deployEcho(t, tc.from)
			sap := core.SAP{Role: "user", ID: "u1"}
			var got []codec.Record
			dep.Attach(sap, func(prim string, params []byte) {
				if prim == "pong" {
					got = append(got, fieldsOf(params))
				}
			})
			if err := dep.Submit(sap, "ping", rec(codec.Record{"n": int64(1)})); err != nil {
				t.Fatal(err)
			}
			if _, err := kernel.Run(); err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 {
				t.Fatalf("pre-migration pongs = %v", got)
			}

			target, ok := ConcretePlatformByName(tc.to)
			if !ok {
				t.Fatalf("platform %q unknown", tc.to)
			}
			if err := dep.Rerealize(target); err != nil {
				t.Fatalf("Rerealize onto %s: %v", tc.to, err)
			}
			if dep.MessagingName() != tc.wantMessaging {
				t.Fatalf("messaging = %q, want %q", dep.MessagingName(), tc.wantMessaging)
			}
			if dep.Platform().Profile().Name != tc.to {
				t.Fatalf("profile = %q, want %q", dep.Platform().Profile().Name, tc.to)
			}
			if dep.Realization().Concrete.Name != tc.to {
				t.Fatalf("realization platform = %q, want %q", dep.Realization().Concrete.Name, tc.to)
			}

			if err := dep.Submit(sap, "ping", rec(codec.Record{"n": int64(2)})); err != nil {
				t.Fatal(err)
			}
			if _, err := kernel.Run(); err != nil {
				t.Fatal(err)
			}
			if len(got) != 2 || got[1]["n"] != int64(2) {
				t.Fatalf("post-migration pongs = %v", got)
			}
		})
	}
}

// TestRerealizeIdempotent: migrating to the same platform twice installs
// nothing twice and keeps serving.
func TestRerealizeIdempotent(t *testing.T) {
	kernel, dep := deployEcho(t, "rpc-corba-like")
	target, _ := ConcretePlatformByName("rpc-corba-like")
	if err := dep.Rerealize(target); err != nil {
		t.Fatal(err)
	}
	if err := dep.Rerealize(target); err != nil {
		t.Fatal(err)
	}
	sap := core.SAP{Role: "user", ID: "u1"}
	pongs := 0
	dep.Attach(sap, func(prim string, _ []byte) {
		if prim == "pong" {
			pongs++
		}
	})
	if err := dep.Submit(sap, "ping", rec(nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if pongs != 1 {
		t.Fatalf("pongs = %d, want 1", pongs)
	}
}
