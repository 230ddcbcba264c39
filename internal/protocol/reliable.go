package protocol

import (
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/sim"
)

// ReliableDatagramConfig tunes the go-back-N reliability layer.
type ReliableDatagramConfig struct {
	// Window is the go-back-N send window per flow. Default 8.
	Window int
	// RetransmitTimeout is the per-flow retransmission timer. Default 50ms
	// of virtual time.
	RetransmitTimeout time.Duration
	// MaxRetransmits bounds retransmission attempts per PDU before the
	// flow is declared broken (0 = unlimited). Default 0.
	MaxRetransmits int
	// ReorderBuffer is how many out-of-order PDUs the receiver holds per
	// flow while waiting for a gap to fill, instead of discarding them
	// (which, under jitter-induced reordering, would force a retransmit
	// round trip per reordering). Default 4× Window. Negative disables
	// buffering (pure go-back-N receiver).
	ReorderBuffer int
}

func (c *ReliableDatagramConfig) applyDefaults() {
	if c.Window <= 0 {
		c.Window = 8
	}
	if c.RetransmitTimeout <= 0 {
		c.RetransmitTimeout = 50 * time.Millisecond
	}
	if c.ReorderBuffer == 0 {
		c.ReorderBuffer = 4 * c.Window
	}
	if c.ReorderBuffer < 0 {
		c.ReorderBuffer = 0
	}
}

// ReliableDatagram provides reliable, in-order, exactly-once datagram
// delivery over an unreliable lower service, using a go-back-N sliding
// window per directed flow. It is itself a protocol in the paper's sense —
// reliability entities cooperating through a lower-level service — and it
// is the "(reliable datagram)" substrate the floor-control protocols of
// Figure 6 assume.
//
// Wire format (codec messages):
//
//	rdp.data(seq uint64, payload bytes)
//	rdp.ack(cum uint64)   — cumulative: all seq < cum received in order
//
// Under churn (endpoint crash/restart, see IncarnationProvider) both PDU
// shapes gain two optional incarnation fields — inc (the sender's own
// incarnation) and rinc (the sender's view of the receiver's) — stamped
// only when a value exceeds 1, so fault-free traffic is byte-identical
// to the pre-churn wire format. The incarnation handshake guarantees no
// ghost acks and no stale retransmit timers across restarts: data for a
// previous incarnation of the receiver is dropped (answered by a bare
// ack carrying the new incarnation, so a retransmitting sender discovers
// the restart), acks from or to a stale incarnation are discarded, and a
// detected peer restart tears the flow down through the CloseFlow
// free-list path so the next Send restarts at sequence zero.
//
// Both PDU shapes are schema-compiled and read by slot (codec.Slots).
// An endpoint's id is its lower service's id, and all per-flow state
// lives in tables indexed by it: the steady-state data path does zero
// map lookups and the in-flight/hold copies ride pooled buffers.
type ReliableDatagram struct {
	kern  *sim.Kernel
	lower LowerService
	incp  IncarnationProvider // non-nil when lower reports endpoint incarnations
	cfg   ReliableDatagramConfig

	// The tables below are indexed by endpoint id and grow to cover
	// every id attached here or heard from.
	recvs    []IndexedReceiver // id → receiver (nil until attached here)
	incs     []uint32          // id → last known incarnation (1 until a restart is learned)
	sendRows [][]*sendFlow     // [srcID][dstID] → flow (nil until first send)
	recvRows [][]*recvFlow     // [srcID][dstID] → flow (src = data sender)
	freeSend *sendFlow
	freeRecv *recvFlow
	stats    ReliableStats
}

var _ LowerService = (*ReliableDatagram)(nil)

// Compiled PDU schemas (field order is canonical/sorted). The *Inc
// variants carry the incarnation pair and are used only when either
// value exceeds 1, so fault-free runs emit exactly the legacy bytes.
// Receivers parse against the *Inc supersets, so both shapes of each
// message name decode through one path: an absent incarnation is an
// empty slot and reads as incarnation 1.
var (
	schemaRdpData    = codec.CompileSchema("rdp.data", "seq", "payload")
	schemaRdpAck     = codec.CompileSchema("rdp.ack", "cum")
	schemaRdpDataInc = codec.CompileSchema("rdp.data", "seq", "payload", "inc", "rinc")
	schemaRdpAckInc  = codec.CompileSchema("rdp.ack", "cum", "inc", "rinc")

	rdpSchemas = codec.NewSchemaSet(schemaRdpDataInc, schemaRdpAckInc)

	slotDataSeq     = schemaRdpDataInc.Slot("seq")
	slotDataPayload = schemaRdpDataInc.Slot("payload")
	slotDataInc     = schemaRdpDataInc.Slot("inc")
	slotDataRinc    = schemaRdpDataInc.Slot("rinc")
	slotAckCum      = schemaRdpAckInc.Slot("cum")
	slotAckInc      = schemaRdpAckInc.Slot("inc")
	slotAckRinc     = schemaRdpAckInc.Slot("rinc")
)

// ReliableStats counts layer-internal work: experiments use it to report
// the overhead reliability adds under loss.
type ReliableStats struct {
	DataSent      uint64
	DataDelivered uint64
	AcksSent      uint64
	Retransmits   uint64
	OutOfOrder    uint64 // received out of order (held or discarded)
	Duplicates    uint64
	StaleDrops    uint64 // PDUs from/to a dead incarnation, discarded
	FlowResets    uint64 // flows torn down after a detected peer restart
}

type sendFlow struct {
	next     uint64 // next sequence number to assign
	base     uint64 // oldest unacknowledged
	inFlight []pending
	timer    sim.TimerRef // retransmit timer; zero ref = disarmed
	timerFn  func()       // built once per flow lifetime; captures the flow ids
	retries  int
	peerInc  uint32 // receiver incarnation this flow talks to (stamped as rinc)
	broken   error  // sticky first failure; checked on every Send
	free     *sendFlow
}

// pending is one queued-or-in-flight PDU. The payload rides a pooled
// buffer released when the cumulative ack passes its sequence number.
type pending struct {
	seq uint64
	buf *codec.Buffer
}

// recvFlow tracks one directed receive flow. Out-of-order PDUs wait in a
// ring keyed by seq modulo the ring size: conforming senders only emit
// within Window of the receiver's expectation, so the ring covers every
// reachable distance without hashing. A PDU beyond the ring's horizon
// (possible only for non-conforming senders) is dropped, as a lost one
// is.
type recvFlow struct {
	expected uint64
	ring     []heldPDU
	held     int    // ring occupancy, capped at ReorderBuffer
	peerInc  uint32 // sender incarnation this flow tracks (0 until first data)
	free     *recvFlow
}

type heldPDU struct {
	seq uint64
	buf *codec.Buffer // nil = empty slot
}

// NewReliableDatagram layers reliability over lower, scheduling timers
// on kern.
func NewReliableDatagram(kern *sim.Kernel, lower LowerService, cfg ReliableDatagramConfig) *ReliableDatagram {
	cfg.applyDefaults()
	ip, _ := lower.(IncarnationProvider)
	return &ReliableDatagram{kern: kern, lower: lower, incp: ip, cfg: cfg}
}

// Name implements LowerService.
func (r *ReliableDatagram) Name() string { return "reliable-datagram/" + r.lower.Name() }

// Stats returns a snapshot of the layer counters.
func (r *ReliableDatagram) Stats() ReliableStats {
	return r.stats
}

// cover grows the endpoint tables to cover id.
func (r *ReliableDatagram) cover(id int32) {
	for int(id) >= len(r.recvs) {
		r.recvs = append(r.recvs, nil)
		r.incs = append(r.incs, 1)
		r.sendRows = append(r.sendRows, nil)
		r.recvRows = append(r.recvRows, nil)
	}
}

// attached reports whether id is an endpoint attached here.
func (r *ReliableDatagram) attached(id int32) bool {
	return id >= 0 && int(id) < len(r.recvs) && r.recvs[id] != nil
}

// Attach implements LowerService.
func (r *ReliableDatagram) Attach(addr Addr, recv Receiver) error { return attachByName(r, addr, recv) }

// AttachIndexed implements LowerService: the returned id is the lower
// service's id for addr, and receivers are handed peer ids from the
// same space.
func (r *ReliableDatagram) AttachIndexed(addr Addr, recv IndexedReceiver) (int32, error) {
	if recv == nil {
		return -1, fmt.Errorf("protocol: nil receiver for %q", addr)
	}
	var id int32
	id, err := r.lower.AttachIndexed(addr, func(src int32, pdu []byte) { r.dispatch(src, id, pdu) })
	if err != nil {
		return -1, err
	}
	r.cover(id)
	r.recvs[id] = recv
	return id, nil
}

// EndpointID implements LowerService: only addresses attached here
// resolve.
func (r *ReliableDatagram) EndpointID(addr Addr) (int32, bool) {
	id, ok := r.lower.EndpointID(addr)
	if !ok || !r.attached(id) {
		return -1, false
	}
	return id, true
}

// EndpointAddr implements LowerService.
func (r *ReliableDatagram) EndpointAddr(id int32) Addr { return r.lower.EndpointAddr(id) }

// sendFlowFor returns the send flow src→dst, creating (or recycling)
// it on first use.
func (r *ReliableDatagram) sendFlowFor(src, dst int32) *sendFlow {
	row := r.sendRows[src]
	if int(dst) >= len(row) {
		// Grow geometrically to just past dst, not to len(r.eps): on
		// star topologies (every client talking to one coordinator) a
		// dense row per client would cost O(E²) pointers at XL scale.
		need := int(dst) + 1
		if d := 2 * len(row); d > need {
			need = d
		}
		if need > len(r.recvs) {
			need = len(r.recvs)
		}
		grown := make([]*sendFlow, need)
		copy(grown, row)
		row = grown
		r.sendRows[src] = row
	}
	f := row[dst]
	if f == nil {
		if r.freeSend != nil {
			f = r.freeSend
			r.freeSend = f.free
			*f = sendFlow{inFlight: f.inFlight[:0]}
		} else {
			f = &sendFlow{}
		}
		f.timerFn = func() { r.onTimeout(src, dst) }
		// Baseline: the last incarnation of dst this layer has learned
		// (from NoteRestart or from the wire). If it is stale the first
		// data PDU is refused by the receiver, whose bare ack carries the
		// current incarnation — the flow tears down, the cache refreshes,
		// and the next Send starts correctly.
		f.peerInc = r.incs[dst]
		row[dst] = f
	}
	return f
}

// recvFlowFor returns the receive flow src→dst (src is the data
// sender), creating (or recycling) it on first use.
func (r *ReliableDatagram) recvFlowFor(src, dst int32) *recvFlow {
	row := r.recvRows[src]
	if int(dst) >= len(row) {
		// Same geometric growth as sendFlowFor: keep per-source rows
		// proportional to the peers actually spoken to.
		need := int(dst) + 1
		if d := 2 * len(row); d > need {
			need = d
		}
		if need > len(r.recvs) {
			need = len(r.recvs)
		}
		grown := make([]*recvFlow, need)
		copy(grown, row)
		row = grown
		r.recvRows[src] = row
	}
	f := row[dst]
	if f == nil {
		if r.freeRecv != nil {
			f = r.freeRecv
			r.freeRecv = f.free
			ring := f.ring
			*f = recvFlow{ring: ring}
		} else {
			f = &recvFlow{}
		}
		if r.cfg.ReorderBuffer > 0 && len(f.ring) != r.cfg.Window {
			f.ring = make([]heldPDU, r.cfg.Window)
		}
		row[dst] = f
	}
	return f
}

// Send implements LowerService.
func (r *ReliableDatagram) Send(src, dst Addr, payload []byte) error {
	return sendByName(r, src, dst, payload)
}

// SendIndexed implements LowerService: payload is queued on the
// (src,dst) flow and delivered reliably and in order. Both endpoints
// must be attached here; otherwise the send fails with
// ErrUnknownEntity.
func (r *ReliableDatagram) SendIndexed(src, dst int32, payload []byte) error {
	if !r.attached(src) || !r.attached(dst) {
		return fmt.Errorf("%w: reliable send %d→%d", ErrUnknownEntity, src, dst)
	}
	f := r.sendFlowFor(src, dst)
	if f.broken != nil {
		return f.broken
	}
	seq := f.next
	f.next++
	buf := r.kern.Buffers().Get()
	buf.B = append(buf.B[:0], payload...)
	f.inFlight = append(f.inFlight, pending{seq: seq, buf: buf})
	// Transmit immediately if within window.
	if seq < f.base+uint64(r.cfg.Window) {
		r.transmit(src, dst, f, seq, buf.B)
	}
	r.armTimer(f)
	return nil
}

// SendMultiIndexed implements LowerService as a SendIndexed loop: each
// destination is an independent reliable flow, so there is no batch to
// share beyond what the unreliable layer below already batches.
func (r *ReliableDatagram) SendMultiIndexed(src int32, dsts []int32, payload []byte) error {
	var firstErr error
	for _, dst := range dsts {
		if err := r.SendIndexed(src, dst, payload); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// transmit sends one data PDU, encoded through the compiled schema
// into a pooled buffer (the lower service copies synchronously, so the
// buffer is recycled on return). Incarnation fields
// ride only when a value exceeds 1, so fault-free traffic keeps the
// legacy wire shape byte for byte.
func (r *ReliableDatagram) transmit(src, dst int32, f *sendFlow, seq uint64, payload []byte) {
	buf := r.kern.Buffers().Get()
	var data []byte
	var err error
	if inc := r.incs[src]; inc > 1 || f.peerInc > 1 {
		e := schemaRdpDataInc.Encoder(buf.B[:0])
		e.Uint("inc", uint64(inc))
		e.Bytes("payload", payload)
		e.Uint("rinc", uint64(f.peerInc))
		e.Uint("seq", seq)
		data, err = e.Finish()
	} else {
		e := schemaRdpData.Encoder(buf.B[:0])
		e.Bytes("payload", payload)
		e.Uint("seq", seq)
		data, err = e.Finish()
	}
	if err != nil {
		// Payload is opaque bytes; encoding cannot fail for valid inputs.
		panic(fmt.Sprintf("protocol: encode data PDU: %v", err))
	}
	r.stats.DataSent++
	if err := r.lower.SendIndexed(src, dst, data); err != nil {
		f.broken = fmt.Errorf("protocol: flow %s→%s: %w", r.EndpointAddr(src), r.EndpointAddr(dst), err)
	}
	buf.B = data
	buf.Release()
}

// armTimer (re)arms the retransmission timer for a flow with unacked
// data. Kernel timers recycle through the kernel's free list on fire and
// on cancel, so steady-state window traffic schedules retransmission
// cover without allocating.
func (r *ReliableDatagram) armTimer(f *sendFlow) {
	if len(f.inFlight) == 0 {
		f.timer.Cancel()
		f.timer = sim.TimerRef{}
		return
	}
	if f.timer.Pending() {
		return
	}
	f.timer = r.kern.Schedule(r.cfg.RetransmitTimeout, f.timerFn)
}

// onTimeout retransmits the whole window (go-back-N).
func (r *ReliableDatagram) onTimeout(src, dst int32) {
	f := r.sendRows[src][dst]
	if f == nil || len(f.inFlight) == 0 {
		return
	}
	f.retries++
	if r.cfg.MaxRetransmits > 0 && f.retries > r.cfg.MaxRetransmits {
		f.broken = fmt.Errorf("protocol: flow %s→%s: retransmit limit %d exceeded",
			r.EndpointAddr(src), r.EndpointAddr(dst), r.cfg.MaxRetransmits)
		f.timer = sim.TimerRef{}
		return
	}
	limit := f.base + uint64(r.cfg.Window)
	for _, p := range f.inFlight {
		if p.seq >= limit {
			break
		}
		r.stats.Retransmits++
		r.transmit(src, dst, f, p.seq, p.buf.B)
	}
	f.timer = sim.TimerRef{}
	r.armTimer(f)
}

// dispatch decodes one arriving PDU and hands it to the data or ack
// handler. The slot parse walks the PDU in place — pdu aliases the
// network's pooled delivery buffer, so anything retained past this call
// must be copied.
func (r *ReliableDatagram) dispatch(src, dst int32, pdu []byte) {
	var sl codec.Slots
	if err := rdpSchemas.Parse(pdu, &sl); err != nil {
		return // corrupted frame: drop silently, retransmission recovers
	}
	r.cover(src)
	switch sl.Schema() {
	case schemaRdpDataInc:
		r.onData(src, dst, &sl)
	case schemaRdpAckInc:
		r.onAck(src, dst, &sl)
	}
}

// incAt reads the incarnation in slot i of a parsed PDU; an empty slot
// (the legacy wire shape) reads as incarnation 1.
func incAt(sl *codec.Slots, i codec.Slot) uint32 {
	if x, ok := sl.UintAt(i); ok {
		return uint32(x)
	}
	return 1
}

func (r *ReliableDatagram) onData(src, dst int32, sl *codec.Slots) {
	seq, ok := sl.UintAt(slotDataSeq)
	if !ok {
		return
	}
	payload, _ := sl.BytesAt(slotDataPayload)
	inc, rinc := incAt(sl, slotDataInc), incAt(sl, slotDataRinc)

	myInc := r.incs[dst]
	if rinc > myInc {
		// The sender has seen a later incarnation of this endpoint than
		// the local cache knows: adopt it (incarnations are monotone)
		// rather than misclassify live traffic as stale.
		r.incs[dst] = rinc
		myInc = rinc
	}
	if rinc < myInc {
		// Addressed to a previous incarnation of this endpoint: the
		// sender's flow predates our restart. Drop the payload, but
		// answer with a bare ack carrying the current incarnation — this
		// is how a retransmitting sender discovers the restart instead
		// of retransmitting into the void forever.
		r.stats.StaleDrops++
		r.sendAck(dst, src, 0, myInc, inc)
		return
	}
	f := r.recvFlowFor(src, dst) // direction of data flow
	switch {
	case f.peerInc == 0:
		// First data on a fresh flow: baseline the sender incarnation
		// from the wire itself (a cache baseline could ghost-accept a
		// dead incarnation's stragglers).
		f.peerInc = inc
		if inc > r.incs[src] {
			r.incs[src] = inc
		}
	case inc < f.peerInc:
		// Ghost from a dead incarnation of the sender: no delivery, no
		// ack (the old incarnation is gone; nothing listens for one).
		r.stats.StaleDrops++
		return
	case inc > f.peerInc:
		// The sender restarted: its numbering reset to zero and its view
		// of this flow is gone. Reset the receive flow in place — held
		// out-of-order PDUs carry the old numbering and must never reach
		// the application — and tear down the reverse send flow, whose
		// in-flight state targets the dead incarnation.
		r.stats.FlowResets++
		f.reset()
		f.peerInc = inc
		if inc > r.incs[src] {
			r.incs[src] = inc
		}
		r.closeSendFlow(dst, src)
	}
	// deliver marks the common case (in-order arrival): the aliased
	// payload is handed to the receiver synchronously, with no copy and
	// no ready-slice allocation. Out-of-order payloads are copied into
	// pooled buffers before being held — they outlive this call and the
	// delivery buffer.
	deliver := false
	var drained []*codec.Buffer
	switch {
	case seq == f.expected:
		f.expected++
		deliver = true
		// Drain any buffered successors the gap was hiding.
		drained = f.drain(drained)
	case seq < f.expected:
		r.stats.Duplicates++
	default:
		r.stats.OutOfOrder++
		f.hold(r.kern.Buffers(), seq, payload, r.cfg.ReorderBuffer)
	}
	if deliver {
		r.stats.DataDelivered += 1 + uint64(len(drained))
	}
	recv := r.recvs[dst]
	// Cumulative ack of everything in order so far (sent for every data
	// PDU, so a lost ack is repaired by the next one or a retransmit).
	// It travels dst→src (reverse path).
	r.sendAck(dst, src, f.expected, myInc, f.peerInc)

	if recv != nil {
		if deliver {
			recv(src, payload)
		}
		for _, b := range drained {
			recv(src, b.B)
		}
	}
	for _, b := range drained {
		b.Release()
	}
}

// hold buffers one out-of-order PDU in the ring, up to the
// ReorderBuffer occupancy cap. Within the ring's horizon every seq has
// a slot of its own, so an occupied slot holds this seq already. A PDU
// beyond the horizon, which only a sender breaking go-back-N's window
// can send, is dropped: its retransmission is held or delivered once
// the window reaches it.
func (f *recvFlow) hold(bufs *codec.BufferList, seq uint64, payload []byte, limit int) {
	ringCap := uint64(len(f.ring))
	if limit <= 0 || f.held >= limit || seq-f.expected > ringCap {
		return
	}
	slot := &f.ring[seq%ringCap]
	if slot.buf != nil {
		return // a duplicate hold
	}
	b := bufs.Get()
	b.B = append(b.B[:0], payload...)
	*slot = heldPDU{seq: seq, buf: b}
	f.held++
}

// drain pops consecutively held PDUs starting at f.expected,
// advancing it past each.
func (f *recvFlow) drain(drained []*codec.Buffer) []*codec.Buffer {
	for f.held > 0 {
		slot := &f.ring[f.expected%uint64(len(f.ring))]
		if slot.buf == nil || slot.seq != f.expected {
			break
		}
		drained = append(drained, slot.buf)
		*slot = heldPDU{}
		f.held--
		f.expected++
	}
	return drained
}

// sendAck encodes and transmits one cumulative ack from→to (the
// reverse path of a data flow). inc is the acker's own incarnation, rinc
// the data sender's; both ride the wire only when either exceeds 1, so
// fault-free acks keep the legacy shape.
func (r *ReliableDatagram) sendAck(from, to int32, cum uint64, inc, rinc uint32) {
	ackBuf := r.kern.Buffers().Get()
	var data []byte
	var err error
	if inc > 1 || rinc > 1 {
		e := schemaRdpAckInc.Encoder(ackBuf.B[:0])
		e.Uint("cum", cum)
		e.Uint("inc", uint64(inc))
		e.Uint("rinc", uint64(rinc))
		data, err = e.Finish()
	} else {
		e := schemaRdpAck.Encoder(ackBuf.B[:0])
		e.Uint("cum", cum)
		data, err = e.Finish()
	}
	if err != nil {
		panic(fmt.Sprintf("protocol: encode ack PDU: %v", err))
	}
	r.stats.AcksSent++
	// Errors indicate an unregistered peer, which retransmission cannot
	// fix either; ignore.
	_ = r.lower.SendIndexed(from, to, data) //nolint:errcheck
	ackBuf.B = data
	ackBuf.Release()
}

func (r *ReliableDatagram) onAck(src, dst int32, sl *codec.Slots) {
	cum, ok := sl.UintAt(slotAckCum)
	if !ok {
		return
	}
	inc, rinc := incAt(sl, slotAckInc), incAt(sl, slotAckRinc)
	if rinc < r.incs[dst] {
		// Ghost ack addressed to a previous incarnation of this sender:
		// our numbering restarted at zero since, so the cum value would
		// corrupt the fresh flow. Drop it — no ghost acks.
		r.stats.StaleDrops++
		return
	}
	// The ack acknowledges data flowing dst→src: send flows are keyed by
	// (sender, receiver) = (dst of ack delivery, src of ack).
	row := r.sendRows[dst]
	if int(src) >= len(row) {
		return
	}
	f := row[src]
	if f == nil {
		return
	}
	if inc != f.peerInc {
		if inc < f.peerInc {
			// Ghost ack from a dead incarnation of the receiver.
			r.stats.StaleDrops++
			return
		}
		// The receiver restarted: its receive state for this flow is
		// gone, so every unacknowledged PDU is lost and the numbering
		// must restart. Tear the flow down through the free-list path —
		// cancelling the retransmit timer — and remember the new
		// incarnation so the next Send opens a correctly-stamped flow at
		// sequence zero.
		r.stats.FlowResets++
		if inc > r.incs[src] {
			r.incs[src] = inc
		}
		r.closeSendFlow(dst, src)
		return
	}
	if cum <= f.base {
		return // stale ack
	}
	// Slide the window, releasing acknowledged payload buffers, and
	// transmit newly admitted PDUs. The in-flight slice is compacted in
	// place so its storage is reused for the flow's lifetime.
	oldLimit := f.base + uint64(r.cfg.Window)
	i := 0
	for i < len(f.inFlight) && f.inFlight[i].seq < cum {
		f.inFlight[i].buf.Release()
		f.inFlight[i].buf = nil
		i++
	}
	if i > 0 {
		rem := copy(f.inFlight, f.inFlight[i:])
		tail := f.inFlight[rem:]
		for j := range tail {
			tail[j] = pending{}
		}
		f.inFlight = f.inFlight[:rem]
	}
	f.base = cum
	f.retries = 0
	newLimit := f.base + uint64(r.cfg.Window)
	for _, p := range f.inFlight {
		if p.seq >= oldLimit && p.seq < newLimit {
			r.transmit(dst, src, f, p.seq, p.buf.B)
		}
	}
	f.timer.Cancel()
	f.timer = sim.TimerRef{}
	r.armTimer(f)
}

// CloseFlow tears down the directed flow pair between local and peer:
// the send flow local→peer and the receive flow peer→local. Unacked
// in-flight payloads and held out-of-order PDUs are discarded (their
// pooled buffers released), the retransmission timer is cancelled, and
// the flow structs return to a free list for reuse — the reclamation
// path for long-running deployments that churn through peers. A later
// Send to the same peer starts a fresh flow at sequence zero (and clears
// any broken-flow state), exactly as if the pair had never communicated.
// A pair with an endpoint not attached here has no flows; it is ignored.
func (r *ReliableDatagram) CloseFlow(local, peer Addr) {
	localID, ok1 := r.EndpointID(local)
	peerID, ok2 := r.EndpointID(peer)
	if !ok1 || !ok2 {
		return
	}
	r.closeSendFlow(localID, peerID)
	r.closeRecvFlow(peerID, localID)
}

// closeSendFlow tears down the send flow local→peer: unacked
// in-flight buffers are released, the retransmit timer is cancelled, and
// the flow struct returns to the free list.
func (r *ReliableDatagram) closeSendFlow(local, peer int32) {
	row := r.sendRows[local]
	if int(peer) >= len(row) {
		return
	}
	f := row[peer]
	if f == nil {
		return
	}
	f.timer.Cancel()
	f.timer = sim.TimerRef{}
	for i := range f.inFlight {
		f.inFlight[i].buf.Release()
		f.inFlight[i] = pending{}
	}
	f.inFlight = f.inFlight[:0]
	f.timerFn = nil
	f.broken = nil
	f.free = r.freeSend
	r.freeSend = f
	row[peer] = nil
}

// closeRecvFlow tears down the receive flow sender→local,
// releasing held out-of-order buffers and returning the struct to the
// free list.
func (r *ReliableDatagram) closeRecvFlow(sender, local int32) {
	row := r.recvRows[sender]
	if int(local) >= len(row) {
		return
	}
	f := row[local]
	if f == nil {
		return
	}
	f.reset()
	f.free = r.freeRecv
	r.freeRecv = f
	row[local] = nil
}

// reset drops every held out-of-order PDU and rewinds the flow to
// sequence zero — the in-place teardown used when the peer restarts
// mid-flow (old-numbering PDUs must never surface in the new flow).
func (f *recvFlow) reset() {
	for i := range f.ring {
		if f.ring[i].buf != nil {
			f.ring[i].buf.Release()
			f.ring[i] = heldPDU{}
		}
	}
	f.held = 0
	f.expected = 0
}

// NoteRestart informs the layer that the endpoint at addr crashed and
// restarted, losing all of its flow state: every send flow out of addr
// and every receive flow into addr is torn down through the CloseFlow
// free-list path (in-flight buffers released, retransmit timers
// cancelled), and addr's incarnation cache refreshes from the lower
// service's IncarnationProvider (bumping locally when the lower service
// does not report incarnations). Peers are not touched here: they
// discover the restart through the wire incarnation handshake — a stale
// data PDU is answered by a bare ack carrying the new incarnation — and
// tear their halves down lazily. An address not attached here is
// ignored.
func (r *ReliableDatagram) NoteRestart(addr Addr) {
	id, ok := r.EndpointID(addr)
	if !ok {
		return
	}
	refreshed := false
	if r.incp != nil {
		if inc := r.incp.IncarnationOf(id); inc > 0 {
			r.incs[id] = inc
			refreshed = true
		}
	}
	if !refreshed {
		r.incs[id]++
	}
	for peer := range r.sendRows[id] {
		r.closeSendFlow(id, int32(peer))
	}
	for sender := range r.recvRows {
		r.closeRecvFlow(int32(sender), id)
	}
}
