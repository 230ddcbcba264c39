package chat

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/mda"
	"repro/internal/sim"
)

func TestSpecValid(t *testing.T) {
	if err := Spec().Validate(); err != nil {
		t.Fatalf("spec invalid: %v", err)
	}
	doc := Spec().Document()
	for _, want := range []string{"say(msgid: string, text: string)", "total-order-delivery"} {
		if !strings.Contains(doc, want) {
			t.Fatalf("document missing %q:\n%s", want, doc)
		}
	}
}

func TestProtocolRunConforms(t *testing.T) {
	res, err := Run(Config{Participants: 3, MessagesEach: 4, Seed: 7, LossRate: 0.1, Jitter: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.ConformanceErr != nil {
		t.Fatalf("conformance: %v\ntrace:\n%s", res.ConformanceErr, res.Trace)
	}
	want := 3 * 4
	if res.Said != want {
		t.Fatalf("said %d, want %d", res.Said, want)
	}
	if res.Delivered != want*3 {
		t.Fatalf("delivered %d, want %d", res.Delivered, want*3)
	}
	for p, n := range res.PerParticipant {
		if n != want {
			t.Fatalf("%s heard %d of %d", p, n, want)
		}
	}
	if res.DeliveryLatency.Count() != want {
		t.Fatalf("latency samples %d, want %d", res.DeliveryLatency.Count(), want)
	}
}

func TestMDARunsOnAllPlatforms(t *testing.T) {
	for _, target := range mda.ConcretePlatforms() {
		target := target
		t.Run(target.Name, func(t *testing.T) {
			res, err := Run(Config{Participants: 3, MessagesEach: 3, Seed: 9, Platform: target.Name})
			if err != nil {
				t.Fatal(err)
			}
			if res.ConformanceErr != nil {
				t.Fatalf("conformance on %s: %v", target.Name, res.ConformanceErr)
			}
			if res.Delivered != 3*3*3 {
				t.Fatalf("delivered %d", res.Delivered)
			}
		})
	}
}

func TestMDAAdapterOverheadShapeForChat(t *testing.T) {
	direct, err := Run(Config{Seed: 3, Platform: "msg-jms-like"})
	if err != nil {
		t.Fatal(err)
	}
	recursive, err := Run(Config{Seed: 3, Platform: "queue-mq-like"})
	if err != nil {
		t.Fatal(err)
	}
	if recursive.NetMessages <= direct.NetMessages {
		t.Fatalf("recursive realization (%d msgs) should exceed direct (%d msgs)",
			recursive.NetMessages, direct.NetMessages)
	}
}

func TestPIMTrajectory(t *testing.T) {
	pim := PIM()
	if err := pim.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, target := range mda.ConcretePlatforms() {
		steps, _, err := mda.PlanTrajectory(pim, target)
		if err != nil {
			t.Fatalf("%s: %v", target.Name, err)
		}
		if len(steps) != 5 {
			t.Fatalf("%s: %d steps", target.Name, len(steps))
		}
	}
}

func TestPIMRequiresTwoSAPs(t *testing.T) {
	_, err := PIM().Build(mda.Plan{SAPs: []core.SAP{ParticipantSAP("p1")}})
	if err == nil {
		t.Fatal("single-SAP chat accepted")
	}
}

func TestUnknownPlatform(t *testing.T) {
	if _, err := Run(Config{Platform: "nope"}); err == nil {
		t.Fatal("unknown platform accepted")
	}
}

func TestTotalOrderMonitorDetectsDivergence(t *testing.T) {
	m := (&TotalOrder{}).NewMonitor()
	deliver := func(sap, id string) error {
		return m.Observe(core.Event{
			SAP:       ParticipantSAP(sap),
			Primitive: PrimDeliver,
			Params:    codec.Record{ParamMsgID: id},
		})
	}
	if err := deliver("p1", "a"); err != nil {
		t.Fatal(err)
	}
	if err := deliver("p1", "b"); err != nil {
		t.Fatal(err)
	}
	if err := deliver("p2", "a"); err != nil {
		t.Fatal(err)
	}
	// p2 sees "c" where the global order has "b": divergence.
	if err := deliver("p2", "c"); err == nil {
		t.Fatal("order divergence not flagged")
	}
}

func TestTotalOrderMonitorDetectsIncompleteness(t *testing.T) {
	m := (&TotalOrder{}).NewMonitor()
	events := []struct{ sap, id string }{
		{"p1", "a"}, {"p1", "b"}, {"p2", "a"}, // p2 never hears "b"
	}
	for _, e := range events {
		if err := m.Observe(core.Event{
			SAP:       ParticipantSAP(e.sap),
			Primitive: PrimDeliver,
			Params:    codec.Record{ParamMsgID: e.id},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.AtEnd(); err == nil {
		t.Fatal("incomplete delivery not flagged at end")
	}
}

func TestSequencerEntityRejectsBadPDU(t *testing.T) {
	k := sim.NewKernel()
	e := NewSequencerEntity(nil)
	// Unattached entity: exercise the input validation only.
	if err := e.FromUser(PrimSay, nil); err == nil {
		t.Fatal("sequencer accepted a service user")
	}
	wire, err := codec.AppendMessage(nil, codec.NewMessage("bogus", nil))
	if err != nil {
		t.Fatal(err)
	}
	bogus, err := codec.ParseMessage(wire)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.FromPeer("x", bogus); err == nil {
		t.Fatal("sequencer accepted bogus PDU")
	}
	p := NewParticipantEntity(SequencerAddr)
	if err := p.FromUser("bogus", nil); err == nil {
		t.Fatal("participant accepted bogus primitive")
	}
	if err := p.FromPeer("x", bogus); err == nil {
		t.Fatal("participant accepted bogus PDU")
	}
	_ = k
}

// Property: for any seed, group size and mild loss, every run is
// conformant and everybody hears everything.
func TestPropertyChatAlwaysConverges(t *testing.T) {
	prop := func(seed int64, group uint8, msgs uint8, lossTenths uint8) bool {
		res, err := Run(Config{
			Participants: int(group%3) + 2,
			MessagesEach: int(msgs%3) + 1,
			Seed:         seed,
			LossRate:     float64(lossTenths%4) / 10,
			Jitter:       2 * time.Millisecond,
		})
		if err != nil {
			return false
		}
		return res.ConformanceErr == nil && res.Delivered == res.Said*len(res.PerParticipant)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkChatProtocol(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{Participants: 4, MessagesEach: 5, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		if res.ConformanceErr != nil {
			b.Fatal(res.ConformanceErr)
		}
	}
}

// TestPDUWireParity pins the sequencer protocol's PDUs, which the PIM
// logic sends as its directed messages too, to the generic codec's bytes
// of their legacy records, including ordered broadcasts of submits that
// lack msgid or text (spliced as nil, as the record map carried them).
func TestPDUWireParity(t *testing.T) {
	for _, say := range []codec.Record{
		{ParamMsgID: "m1", ParamText: "hi"},
		{ParamText: "no id"},
		{ParamMsgID: "no text"},
	} {
		submit, err := pduSubmit.Append(nil, say)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := codec.AppendMessage(nil, codec.NewMessage("submit", say)); string(submit) != string(want) {
			t.Fatalf("submit % x, legacy % x", submit, want)
		}
		if rec, _ := pduSubmit.AppendRecord(nil, say); string(rec) != string(submit[len(submit)-len(rec):]) {
			t.Fatalf("submit record % x is not the PDU's tail", rec)
		}
		view, err := codec.ParseMessage(submit)
		if err != nil {
			t.Fatal(err)
		}
		bcast := ordered{submit: view, speaker: "s1"}
		got, err := pduOrdered.Append(nil, bcast)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := codec.AppendMessage(nil, codec.NewMessage("ordered", codec.Record{
			ParamMsgID: say[ParamMsgID], ParamText: say[ParamText], ParamSpeaker: "s1",
		}))
		if string(got) != string(want) {
			t.Fatalf("ordered % x, legacy % x", got, want)
		}
		if rec, _ := pduOrdered.AppendRecord(nil, bcast); string(rec) != string(got[len(got)-len(rec):]) {
			t.Fatalf("ordered record % x is not the PDU's tail", rec)
		}
	}
}
