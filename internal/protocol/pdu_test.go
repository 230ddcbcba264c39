package protocol

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/sim"
)

// ctxEntity is an entity that only keeps its context, for tests that
// send from it.
type ctxEntity struct{ ctx *Context }

func (e *ctxEntity) Init(ctx *Context) error            { e.ctx = ctx; return nil }
func (e *ctxEntity) FromUser(string, []byte) error      { return nil }
func (e *ctxEntity) FromPeer(Addr, codec.MsgView) error { return nil }

// recTick is the fan-out PDU's record.
var recTick = codec.CompileRecord("i")

var pduTick = NewPDU("fan.tick", func(buf []byte, i int64) ([]byte, error) {
	e := recTick.Encoder(buf)
	e.Int("i", i)
	return e.Finish()
})

// discardLower is a lower service that drops every PDU, so a send
// through it costs exactly the layer's own work.
type discardLower struct{ testEndpoints }

func (*discardLower) Name() string                                  { return "discard" }
func (d *discardLower) Attach(addr Addr, r Receiver) error          { return attachByName(d, addr, r) }
func (d *discardLower) Send(src, dst Addr, pdu []byte) error        { return sendByName(d, src, dst, pdu) }
func (*discardLower) SendIndexed(int32, int32, []byte) error        { return nil }
func (*discardLower) SendMultiIndexed(int32, []int32, []byte) error { return nil }

// TestPDUSendAllocs pins the allocation-free send path: sending a
// compiled-record PDU through a Layer — to one peer or fanned out —
// allocates nothing.
func TestPDUSendAllocs(t *testing.T) {
	layer := NewLayer("allocs", sim.NewKernel(), &discardLower{})
	hub := &ctxEntity{}
	peers := []Addr{"p1", "p2", "p3"}
	if err := layer.AddEntity("hub", hub); err != nil {
		t.Fatal(err)
	}
	for _, p := range peers {
		if err := layer.AddEntity(p, &ctxEntity{}); err != nil {
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
	if st := layer.Stats(); st.PDUsSent != 201*4 {
		t.Fatalf("layer counted %d PDUs, want %d", st.PDUsSent, 201*4)
	}
}
