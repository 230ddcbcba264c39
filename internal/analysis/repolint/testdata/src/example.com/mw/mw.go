// Package mw is golden test data for the poolalias analyzer: handlers,
// dispatch objects, and MsgView consumers that retain borrowed []byte slices,
// next to the copy idioms that legalize retention, and GetBuffer
// acquisitions that leak, release, or hand off.
package mw

import (
	"repro/internal/codec"
	"repro/internal/middleware"
	"repro/internal/network"
	"repro/internal/protocol"
)

type sink struct {
	last []byte
	note string
	ch   chan []byte
	m    map[string][]byte
}

var lastSeen []byte

func (s *sink) storeField(src network.NodeID, payload []byte) {
	s.last = payload // want `poolalias: "payload" aliases a pooled delivery buffer and must not be stored in field "last"`
}

func storeGlobal(src network.NodeID, payload []byte) {
	lastSeen = payload // want `poolalias: "payload" .* must not be stored in package variable "lastSeen"`
}

func (s *sink) storeContainer(src network.NodeID, payload []byte) {
	s.m[string(src)] = payload // want `poolalias: "payload" .* must not be stored in a container`
}

func (s *sink) publish(src protocol.Addr, pdu []byte) {
	s.ch <- pdu // want `poolalias: "pdu" .* must not be sent on a channel`
}

func spawn(src network.NodeID, payload []byte) {
	go consume(payload) // want `poolalias: "payload" .* must not be passed to a goroutine`
}

func consume(b []byte) {}

var callbacks []func()

func register(f func()) { callbacks = append(callbacks, f) }

func (s *sink) capture(src network.NodeID, payload []byte) {
	register(func() {
		s.last = payload // want `poolalias: "payload" .* must not be captured by an escaping closure`
	})
}

// inline: an immediately-invoked literal runs before the handler
// returns, while the buffer is still valid — exempt.
func (s *sink) inline(src network.NodeID, payload []byte) {
	n := 0
	func() { n = len(payload) }()
	_ = n
}

// keep shows every sanctioned retention idiom: spread-append copy,
// string conversion, and scalar element reads.
func (s *sink) keep(src network.NodeID, payload []byte) {
	s.last = append([]byte(nil), payload...)
	s.note = string(payload)
	n := len(payload)
	first := payload[0]
	_, _ = n, first
}

// onSlot covers the dense-plane SlotHandler shape, and the
// element-append form append(dst, b) that stores the slice header.
var slotSeen [][]byte

func onSlot(src network.Slot, payload []byte) {
	slotSeen = append(slotSeen, payload) // want `poolalias: "payload" .* must not be stored in package variable "slotSeen"`
}

// firstName borrows from a MsgView accessor and returns the alias.
func firstName(v *codec.MsgView) []byte {
	b, _ := v.Str("name")
	return b // want `poolalias: "b" .* must not be returned`
}

// object implements the middleware.Object dispatch shape: op aliases
// the delivery buffer like a handler payload.
type object struct {
	lastOp []byte
	ops    map[string]int
}

func (o *object) Dispatch(op []byte, args codec.MsgView, reply middleware.Reply) {
	o.lastOp = op // want `poolalias: "op" .* must not be stored in field "lastOp"`
}

// count compares and converts op — neither retains it.
func (o *object) count(op []byte, args codec.MsgView, reply middleware.Reply) {
	if string(op) == "ping" {
		reply(nil, nil)
	}
	o.ops[string(op)]++
}

// The same shape as a function literal handed to ObjectFunc.
var _ = middleware.ObjectFunc(func(op []byte, args codec.MsgView, reply middleware.Reply) {
	lastSeen = op // want `poolalias: "op" .* must not be stored in package variable "lastSeen"`
})

func (s *sink) allowed(src network.NodeID, payload []byte) {
	s.last = payload //repolint:allow poolalias -- caller consumes synchronously; golden test of the escape hatch
}

// --- bufleak ---

func leak() {
	buf := codec.GetBuffer() // want `bufleak: "buf" from codec\.GetBuffer is neither released nor handed off`
	buf.B = append(buf.B[:0], 'x')
}

func releases() {
	buf := codec.GetBuffer()
	defer buf.Release()
	buf.B = append(buf.B[:0], 'x')
}

func handsOff(send func(*codec.Buffer)) {
	buf := codec.GetBuffer()
	buf.B = append(buf.B[:0], 'y')
	send(buf)
}

type pending struct{ buf *codec.Buffer }

var inflight []pending

func storesOwner() {
	buf := codec.GetBuffer()
	inflight = append(inflight, pending{buf: buf})
}

func discards() {
	_ = codec.GetBuffer() // want `bufleak: result of codec\.GetBuffer is discarded`
}

func suppressedLeak() {
	buf := codec.GetBuffer() //repolint:allow bufleak -- released by the test harness; golden test of the escape hatch
	buf.B = buf.B[:0]
}
