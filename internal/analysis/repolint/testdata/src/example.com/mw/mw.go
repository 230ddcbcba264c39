// Package mw is golden test data for the poolalias analyzer: handlers,
// dispatch objects, and MsgView consumers that retain borrowed []byte slices,
// next to the copy idioms that legalize retention, and BufferList.Get
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
	n    int32
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

// onSlot covers the SlotHandler shape (network.Slot aliases int32), and
// the element-append form append(dst, b) that stores the slice header.
var slotSeen [][]byte

func onSlot(src network.Slot, payload []byte) {
	slotSeen = append(slotSeen, payload) // want `poolalias: "payload" .* must not be stored in package variable "slotSeen"`
}

// onAddr is a protocol.Receiver: protocol.Addr aliases network.NodeID.
func onAddr(src protocol.Addr, pdu []byte) {
	lastSeen = pdu // want `poolalias: "pdu" .* must not be stored in package variable "lastSeen"`
}

// onID is the id-addressed receiver shape, declared with a plain int32
// source as IndexedReceiver and StreamReceiver are.
func (s *sink) onID(src int32, pdu []byte) {
	s.last = pdu // want `poolalias: "pdu" .* must not be stored in field "last"`
}

// The same shape as a literal handed to an AttachIndexed-style call.
var _ = protocol.IndexedReceiver(func(src int32, pdu []byte) {
	slotSeen = append(slotSeen, pdu) // want `poolalias: "pdu" .* must not be stored in package variable "slotSeen"`
})

// keepID copies before retaining: the id-addressed shape's true negative.
func (s *sink) keepID(src int32, pdu []byte) {
	s.last = append(s.last[:0], pdu...)
}

// notACallback has an int64 source: not a delivery shape, so storing
// its slice is not reported.
func (s *sink) notACallback(n int64, b []byte) {
	s.last = b
}

// firstName borrows from a MsgView accessor and returns the alias.
func firstName(v *codec.MsgView) []byte {
	b := v.Name()
	return b // want `poolalias: "b" .* must not be returned`
}

// slotStr retains a slot accessor's alias in a field.
func (s *sink) slotStr(sl *codec.Slots) {
	b, _ := sl.StrAt(0)
	s.last = b // want `poolalias: "b" .* must not be stored in field "last"`
}

// slotRaw returns a slot accessor's alias.
func slotRaw(sl *codec.Slots) []byte {
	raw, _ := sl.RawAt(1)
	return raw // want `poolalias: "raw" .* must not be returned`
}

// slotCopies keeps copies of what the slot accessors read: a string
// conversion, a spread append, values a call of basic-typed results
// computes from the alias, and StringsAt's fresh strings.
func (s *sink) slotCopies(sl *codec.Slots) []string {
	b, _ := sl.BytesAt(2)
	s.last = append(s.last[:0], b...)
	str, _ := sl.StrAt(0)
	s.note = string(str)
	s.n, s.note = resolve(str)
	xs, _ := sl.StringsAt(3, nil)
	return xs
}

// resolve maps a wire name to its index and name.
func resolve(b []byte) (int32, string) { return int32(len(b)), string(b) }

// slotID returns an index resolved from a slot accessor's alias.
func slotID(sl *codec.Slots) int32 {
	b, _ := sl.StrAt(0)
	n, _ := resolve(b)
	return n
}

// slotKept passes the alias through a call that returns it.
func (s *sink) slotKept(sl *codec.Slots) {
	b, _ := sl.StrAt(0)
	s.last = trim(b) // want `poolalias: "b" .* must not be stored in field "last"`
}

func trim(b []byte) []byte { return b[1:] }

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

// notAList has a Get of its own; its results are not tracked.
type notAList struct{}

func (notAList) Get() *codec.Buffer { return nil }

func leak(bufs *codec.BufferList) {
	buf := bufs.Get() // want `bufleak: "buf" from BufferList\.Get is neither released nor handed off`
	buf.B = append(buf.B[:0], 'x')
}

func leakFromValue() {
	var bufs codec.BufferList
	buf := bufs.Get() // want `bufleak: "buf" from BufferList\.Get is neither released nor handed off`
	buf.B = append(buf.B[:0], 'x')
}

func releases(bufs *codec.BufferList) {
	buf := bufs.Get()
	defer buf.Release()
	buf.B = append(buf.B[:0], 'x')
}

func handsOff(bufs *codec.BufferList, send func(*codec.Buffer)) {
	buf := bufs.Get()
	buf.B = append(buf.B[:0], 'y')
	send(buf)
}

type pending struct{ buf *codec.Buffer }

var inflight []pending

func storesOwner(bufs *codec.BufferList) {
	buf := bufs.Get()
	inflight = append(inflight, pending{buf: buf})
}

func discards(bufs *codec.BufferList) {
	_ = bufs.Get() // want `bufleak: result of BufferList\.Get is discarded`
}

func otherGet(l notAList) {
	buf := l.Get()
	buf.B = buf.B[:0]
}

func suppressedLeak(bufs *codec.BufferList) {
	buf := bufs.Get() //repolint:allow bufleak -- released by the test harness; golden test of the escape hatch
	buf.B = buf.B[:0]
}
