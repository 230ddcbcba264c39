package protocol

import (
	"testing"

	"repro/internal/sim"
)

// discardLower is a name-only lower service that drops every PDU, so a
// send through it costs exactly the layer's own work.
type discardLower struct{}

func (discardLower) Name() string                  { return "discard" }
func (discardLower) Attach(Addr, Receiver) error   { return nil }
func (discardLower) Send(Addr, Addr, []byte) error { return nil }

// TestPDUSendAllocs pins the allocation-free send path: once the
// destination ids are cached, sending a compiled-record PDU through a
// Layer — to one peer or fanned out — allocates nothing.
func TestPDUSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool items at random")
	}
	layer := NewLayer("allocs", sim.NewKernel(), discardLower{})
	var log []string
	hub := &logEntity{log: &log}
	peers := []Addr{"p1", "p2", "p3"}
	if err := layer.AddEntity("hub", hub); err != nil {
		t.Fatal(err)
	}
	for _, p := range peers {
		if err := layer.AddEntity(p, &logEntity{log: &log}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		send func() error
	}{
		{"Send", func() error { return pduTick.Send(hub.ctx, "p1", 7) }},
		{"SendMulti", func() error { return pduTick.SendMulti(hub.ctx, peers, 7) }},
	} {
		var err error
		if n := testing.AllocsPerRun(200, func() { err = tc.send() }); n != 0 {
			t.Errorf("%s: %.1f allocs per PDU, want 0", tc.name, n)
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
	if st := layer.Stats(); st.ByType["fan.tick"] != 201*4 {
		t.Fatalf("layer counted %d fan.tick PDUs, want %d", st.ByType["fan.tick"], 201*4)
	}
}
