package protocol

import (
	"fmt"
	"sync"
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
// Both PDU shapes are schema-compiled and decoded through codec.MsgView,
// and all per-flow state lives in dense tables keyed by interned small-int
// endpoint ids: the steady-state data path does zero map lookups and the
// in-flight/hold copies ride pooled buffers. ReliableDatagram implements
// IndexedLower itself, so layers above can stay on the dense plane.
type ReliableDatagram struct {
	kern  *sim.Kernel
	lower IndexedLower
	incp  IncarnationProvider // non-nil when lower reports endpoint incarnations
	cfg   ReliableDatagramConfig

	mu         sync.Mutex
	ids        map[Addr]int32 // intern: any address seen (attach, send, receive)
	eps        []endpoint     // own id → endpoint state
	lowerToOwn []int32        // lower endpoint id → own id (-1 unknown)
	incs       []uint32       // own id → last known incarnation (1 until a restart is learned)
	sendRows   [][]*sendFlow  // [srcID][dstID] → flow (nil until first send)
	recvRows   [][]*recvFlow  // [srcID][dstID] → flow (src = data sender)
	freeSend   *sendFlow
	freeRecv   *recvFlow
	stats      ReliableStats
}

// endpoint is the per-address state of the dense plane.
type endpoint struct {
	addr    Addr
	recvIdx IndexedReceiver // nil until attached
	lowID   int32           // lower service id (-1 until resolved)
}

var _ IndexedLower = (*ReliableDatagram)(nil)

// Compiled PDU schemas (field order is canonical/sorted). The *Inc
// variants carry the incarnation pair and are used only when either
// value exceeds 1, so fault-free runs emit exactly the legacy bytes.
// Receivers look fields up by name on the parsed view, so both shapes of
// each message name decode through one path (absent fields default to
// incarnation 1).
var (
	schemaRdpData    = codec.CompileSchema("rdp.data", "seq", "payload")
	schemaRdpAck     = codec.CompileSchema("rdp.ack", "cum")
	schemaRdpDataInc = codec.CompileSchema("rdp.data", "seq", "payload", "inc", "rinc")
	schemaRdpAckInc  = codec.CompileSchema("rdp.ack", "cum", "inc", "rinc")
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
// reachable distance without hashing. PDUs beyond the ring's horizon
// (possible only for non-conforming senders) spill into a lazily
// allocated overflow map, preserving the exact pre-ring semantics.
type recvFlow struct {
	expected uint64
	ring     []heldPDU
	held     int // ring + overflow occupancy, capped at ReorderBuffer
	overflow map[uint64]*codec.Buffer
	peerInc  uint32 // sender incarnation this flow tracks (0 until first data)
	free     *recvFlow
}

type heldPDU struct {
	seq uint64
	buf *codec.Buffer // nil = empty slot
}

// NewReliableDatagram layers reliability over lower (see AsIndexed),
// scheduling timers on kern.
func NewReliableDatagram(kern *sim.Kernel, lower LowerService, cfg ReliableDatagramConfig) *ReliableDatagram {
	cfg.applyDefaults()
	ip, _ := lower.(IncarnationProvider)
	return &ReliableDatagram{
		kern:  kern,
		lower: AsIndexed(lower),
		incp:  ip,
		cfg:   cfg,
		ids:   make(map[Addr]int32),
	}
}

// Name implements LowerService.
func (r *ReliableDatagram) Name() string { return "reliable-datagram/" + r.lower.Name() }

// Stats returns a snapshot of the layer counters.
func (r *ReliableDatagram) Stats() ReliableStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// internLocked returns addr's dense id, assigning one on first sight.
func (r *ReliableDatagram) internLocked(addr Addr) int32 {
	if id, ok := r.ids[addr]; ok {
		return id
	}
	id := int32(len(r.eps))
	r.ids[addr] = id
	r.eps = append(r.eps, endpoint{addr: addr, lowID: -1})
	r.incs = append(r.incs, 1)
	r.sendRows = append(r.sendRows, nil)
	r.recvRows = append(r.recvRows, nil)
	return id
}

// ownIDForLower translates a lower-service endpoint id to this layer's
// id, interning the address on first sight and caching the translation so
// the steady state never hashes.
func (r *ReliableDatagram) ownIDForLower(lowSrc int32) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	for int(lowSrc) >= len(r.lowerToOwn) {
		r.lowerToOwn = append(r.lowerToOwn, -1)
	}
	if own := r.lowerToOwn[lowSrc]; own >= 0 {
		return own
	}
	addr := r.lower.EndpointAddr(lowSrc)
	own := r.internLocked(addr)
	r.lowerToOwn[lowSrc] = own
	r.eps[own].lowID = lowSrc
	return own
}

// lowerIDLocked resolves an endpoint's lower-service id, caching it once
// found. ok=false means the peer is unknown to the lower service (not
// attached yet).
func (r *ReliableDatagram) lowerIDLocked(id int32) (int32, bool) {
	ep := &r.eps[id]
	if ep.lowID >= 0 {
		return ep.lowID, true
	}
	low, ok := r.lower.EndpointID(ep.addr)
	if !ok {
		return -1, false
	}
	ep.lowID = low
	for int(low) >= len(r.lowerToOwn) {
		r.lowerToOwn = append(r.lowerToOwn, -1)
	}
	r.lowerToOwn[low] = id
	return low, true
}

// Attach implements LowerService over AttachIndexed, resolving each
// source id back to its address.
func (r *ReliableDatagram) Attach(addr Addr, recv Receiver) error {
	if recv == nil {
		return fmt.Errorf("protocol: nil receiver for %q", addr)
	}
	_, err := r.AttachIndexed(addr, func(src int32, pdu []byte) {
		recv(r.EndpointAddr(src), pdu)
	})
	return err
}

// AttachIndexed implements IndexedLower: the returned id is this layer's
// dense endpoint id (receivers are handed peer ids from the same space).
func (r *ReliableDatagram) AttachIndexed(addr Addr, recv IndexedReceiver) (int32, error) {
	if recv == nil {
		return -1, fmt.Errorf("protocol: nil receiver for %q", addr)
	}
	r.mu.Lock()
	id := r.internLocked(addr)
	r.eps[id].recvIdx = recv
	r.mu.Unlock()
	lowID, err := r.lower.AttachIndexed(addr, func(lowSrc int32, pdu []byte) {
		r.dispatch(r.ownIDForLower(lowSrc), id, pdu)
	})
	if err != nil {
		return id, err
	}
	r.mu.Lock()
	r.eps[id].lowID = lowID
	for int(lowID) >= len(r.lowerToOwn) {
		r.lowerToOwn = append(r.lowerToOwn, -1)
	}
	r.lowerToOwn[lowID] = id
	r.mu.Unlock()
	return id, nil
}

// EndpointID implements IndexedLower: only attached addresses resolve.
func (r *ReliableDatagram) EndpointID(addr Addr) (int32, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id, ok := r.ids[addr]
	if !ok {
		return -1, false
	}
	if r.eps[id].recvIdx == nil {
		return -1, false
	}
	return id, true
}

// EndpointAddr implements IndexedLower.
func (r *ReliableDatagram) EndpointAddr(id int32) Addr {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id < 0 || int(id) >= len(r.eps) {
		return ""
	}
	return r.eps[id].addr
}

// sendFlowLocked returns the send flow src→dst, creating (or recycling)
// it on first use.
func (r *ReliableDatagram) sendFlowLocked(src, dst int32) *sendFlow {
	row := r.sendRows[src]
	if int(dst) >= len(row) {
		// Grow geometrically to just past dst, not to len(r.eps): on
		// star topologies (every client talking to one coordinator) a
		// dense row per client would cost O(E²) pointers at XL scale.
		need := int(dst) + 1
		if d := 2 * len(row); d > need {
			need = d
		}
		if need > len(r.eps) {
			need = len(r.eps)
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

// recvFlowLocked returns the receive flow src→dst (src is the data
// sender), creating (or recycling) it on first use.
func (r *ReliableDatagram) recvFlowLocked(src, dst int32) *recvFlow {
	row := r.recvRows[src]
	if int(dst) >= len(row) {
		// Same geometric growth as sendFlowLocked: keep per-source rows
		// proportional to the peers actually spoken to.
		need := int(dst) + 1
		if d := 2 * len(row); d > need {
			need = d
		}
		if need > len(r.eps) {
			need = len(r.eps)
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

// Send implements LowerService: payload is queued on the (src,dst) flow
// and delivered reliably and in order.
func (r *ReliableDatagram) Send(src, dst Addr, payload []byte) error {
	r.mu.Lock()
	srcID := r.internLocked(src)
	dstID := r.internLocked(dst)
	r.mu.Unlock()
	return r.SendIndexed(srcID, dstID, payload)
}

// SendIndexed implements IndexedLower: the dense-plane Send.
func (r *ReliableDatagram) SendIndexed(src, dst int32, payload []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if src < 0 || int(src) >= len(r.eps) || dst < 0 || int(dst) >= len(r.eps) {
		return fmt.Errorf("protocol: reliable send: id out of range (%d→%d)", src, dst)
	}
	f := r.sendFlowLocked(src, dst)
	if f.broken != nil {
		return f.broken
	}
	seq := f.next
	f.next++
	buf := codec.GetBuffer()
	buf.B = append(buf.B[:0], payload...)
	f.inFlight = append(f.inFlight, pending{seq: seq, buf: buf})
	// Transmit immediately if within window.
	if seq < f.base+uint64(r.cfg.Window) {
		r.transmitLocked(src, dst, f, seq, buf.B)
	}
	r.armTimerLocked(f)
	return nil
}

// SendMultiIndexed implements IndexedLower as a SendIndexed loop: each
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

// transmitLocked sends one data PDU, encoded through the compiled schema
// into a pooled buffer (the lower service copies synchronously, so the
// buffer is recycled on return). Caller holds r.mu. Incarnation fields
// ride only when a value exceeds 1, so fault-free traffic keeps the
// legacy wire shape byte for byte.
func (r *ReliableDatagram) transmitLocked(src, dst int32, f *sendFlow, seq uint64, payload []byte) {
	buf := codec.GetBuffer()
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
	if err := r.lowerSendLocked(src, dst, data); err != nil {
		f.broken = fmt.Errorf("protocol: flow %s→%s: %w", r.eps[src].addr, r.eps[dst].addr, err)
	}
	buf.B = data
	buf.Release()
}

// lowerSendLocked transmits raw bytes src→dst through the lower service.
// An endpoint the lower service cannot resolve fails the send with
// ErrUnknownEntity. Caller holds r.mu.
func (r *ReliableDatagram) lowerSendLocked(src, dst int32, data []byte) error {
	ls, ok := r.lowerIDLocked(src)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownEntity, r.eps[src].addr)
	}
	ld, ok := r.lowerIDLocked(dst)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownEntity, r.eps[dst].addr)
	}
	return r.lower.SendIndexed(ls, ld, data)
}

// armTimerLocked (re)arms the retransmission timer for a flow with unacked
// data. The timer rides the kernel's free-list ScheduleFuncRef path: arms
// and cancels recycle the same Timer structs, so steady-state window
// traffic schedules retransmission cover without allocating. Caller holds
// r.mu.
func (r *ReliableDatagram) armTimerLocked(f *sendFlow) {
	if len(f.inFlight) == 0 {
		f.timer.Cancel()
		f.timer = sim.TimerRef{}
		return
	}
	if f.timer.Pending() {
		return
	}
	f.timer = r.kern.ScheduleFuncRef(r.cfg.RetransmitTimeout, f.timerFn)
}

// onTimeout retransmits the whole window (go-back-N).
func (r *ReliableDatagram) onTimeout(src, dst int32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.sendRows[src][dst]
	if f == nil || len(f.inFlight) == 0 {
		return
	}
	f.retries++
	if r.cfg.MaxRetransmits > 0 && f.retries > r.cfg.MaxRetransmits {
		f.broken = fmt.Errorf("protocol: flow %s→%s: retransmit limit %d exceeded",
			r.eps[src].addr, r.eps[dst].addr, r.cfg.MaxRetransmits)
		f.timer = sim.TimerRef{}
		return
	}
	limit := f.base + uint64(r.cfg.Window)
	for _, p := range f.inFlight {
		if p.seq >= limit {
			break
		}
		r.stats.Retransmits++
		r.transmitLocked(src, dst, f, p.seq, p.buf.B)
	}
	f.timer = sim.TimerRef{}
	r.armTimerLocked(f)
}

// dispatch decodes one arriving PDU and hands it to the data or ack
// handler. Both endpoints arrive as own ids, translated from lower ids
// through cached tables (no hashing in steady state). The view decode
// walks the PDU in place — pdu aliases the
// network's pooled delivery buffer, so anything retained past this call
// must be copied.
func (r *ReliableDatagram) dispatch(src, dst int32, pdu []byte) {
	v, err := codec.ParseMessage(pdu)
	if err != nil {
		return // corrupted frame: drop silently, retransmission recovers
	}
	switch {
	case v.NameIs("rdp.data"):
		r.onData(src, dst, &v)
	case v.NameIs("rdp.ack"):
		r.onAck(src, dst, &v)
	}
}

// pduIncs extracts the incarnation pair of a parsed PDU; absent fields
// (the legacy wire shape) decode as incarnation 1.
func pduIncs(v *codec.MsgView) (inc, rinc uint32) {
	inc, rinc = 1, 1
	if x, ok := v.Uint("inc"); ok {
		inc = uint32(x)
	}
	if x, ok := v.Uint("rinc"); ok {
		rinc = uint32(x)
	}
	return inc, rinc
}

func (r *ReliableDatagram) onData(src, dst int32, v *codec.MsgView) {
	seq, ok := v.Uint("seq")
	if !ok {
		return
	}
	payload, _ := v.Bytes("payload")
	inc, rinc := pduIncs(v)

	r.mu.Lock()
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
		r.sendAckLocked(dst, src, 0, myInc, inc)
		r.mu.Unlock()
		return
	}
	f := r.recvFlowLocked(src, dst) // direction of data flow
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
		r.mu.Unlock()
		return
	case inc > f.peerInc:
		// The sender restarted: its numbering reset to zero and its view
		// of this flow is gone. Reset the receive flow in place — held
		// out-of-order PDUs carry the old numbering and must never reach
		// the application — and tear down the reverse send flow, whose
		// in-flight state targets the dead incarnation.
		r.stats.FlowResets++
		f.resetLocked()
		f.peerInc = inc
		if inc > r.incs[src] {
			r.incs[src] = inc
		}
		r.closeSendFlowLocked(dst, src)
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
		drained = f.drainLocked(drained)
	case seq < f.expected:
		r.stats.Duplicates++
	default:
		r.stats.OutOfOrder++
		f.holdLocked(seq, payload, r.cfg.ReorderBuffer)
	}
	if deliver {
		r.stats.DataDelivered += 1 + uint64(len(drained))
	}
	recv := r.eps[dst].recvIdx
	// Cumulative ack of everything in order so far (sent for every data
	// PDU, so a lost ack is repaired by the next one or a retransmit).
	// It travels dst→src (reverse path).
	r.sendAckLocked(dst, src, f.expected, myInc, f.peerInc)
	r.mu.Unlock()

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

// holdLocked buffers one out-of-order PDU, respecting the ReorderBuffer
// occupancy cap and duplicate-hold semantics of the original map-based
// buffer.
func (f *recvFlow) holdLocked(seq uint64, payload []byte, limit int) {
	if limit <= 0 {
		return
	}
	ringCap := uint64(len(f.ring))
	if dist := seq - f.expected; ringCap > 0 && dist <= ringCap {
		slot := &f.ring[seq%ringCap]
		if slot.buf != nil {
			// Occupied: same seq = duplicate hold (drop); a different
			// seq cannot collide within the window horizon, but a
			// non-conforming sender could force it — spill over.
			if slot.seq == seq {
				return
			}
		} else {
			if f.held >= limit {
				return
			}
			if len(f.overflow) > 0 {
				// The seq may have been overflow-held while it was
				// beyond the ring horizon and re-sent now that the
				// window moved: still a duplicate hold.
				if _, dup := f.overflow[seq]; dup {
					return
				}
			}
			b := codec.GetBuffer()
			b.B = append(b.B[:0], payload...)
			*slot = heldPDU{seq: seq, buf: b}
			f.held++
			return
		}
	}
	// Beyond the ring horizon (or a forced collision): overflow map,
	// lazily allocated — never touched by conforming traffic.
	if _, dup := f.overflow[seq]; dup || f.held >= limit {
		return
	}
	if f.overflow == nil {
		f.overflow = make(map[uint64]*codec.Buffer)
	}
	b := codec.GetBuffer()
	b.B = append(b.B[:0], payload...)
	f.overflow[seq] = b
	f.held++
}

// drainLocked pops consecutively held PDUs starting at f.expected,
// advancing it past each.
func (f *recvFlow) drainLocked(drained []*codec.Buffer) []*codec.Buffer {
	ringCap := uint64(len(f.ring))
	for f.held > 0 {
		if ringCap > 0 {
			slot := &f.ring[f.expected%ringCap]
			if slot.buf != nil && slot.seq == f.expected {
				drained = append(drained, slot.buf)
				*slot = heldPDU{}
				f.held--
				f.expected++
				continue
			}
		}
		if len(f.overflow) > 0 {
			if b, ok := f.overflow[f.expected]; ok {
				delete(f.overflow, f.expected)
				drained = append(drained, b)
				f.held--
				f.expected++
				continue
			}
		}
		break
	}
	return drained
}

// sendAckLocked encodes and transmits one cumulative ack from→to (the
// reverse path of a data flow). inc is the acker's own incarnation, rinc
// the data sender's; both ride the wire only when either exceeds 1, so
// fault-free acks keep the legacy shape. Caller holds r.mu.
func (r *ReliableDatagram) sendAckLocked(from, to int32, cum uint64, inc, rinc uint32) {
	ackBuf := codec.GetBuffer()
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
	_ = r.lowerSendLocked(from, to, data) //nolint:errcheck
	ackBuf.B = data
	ackBuf.Release()
}

func (r *ReliableDatagram) onAck(src, dst int32, v *codec.MsgView) {
	cum, ok := v.Uint("cum")
	if !ok {
		return
	}
	inc, rinc := pduIncs(v)
	r.mu.Lock()
	defer r.mu.Unlock()
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
		r.closeSendFlowLocked(dst, src)
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
			r.transmitLocked(dst, src, f, p.seq, p.buf.B)
		}
	}
	f.timer.Cancel()
	f.timer = sim.TimerRef{}
	r.armTimerLocked(f)
}

// CloseFlow tears down the directed flow pair between local and peer:
// the send flow local→peer and the receive flow peer→local. Unacked
// in-flight payloads and held out-of-order PDUs are discarded (their
// pooled buffers released), the retransmission timer is cancelled, and
// the flow structs return to a free list for reuse — the reclamation
// path for long-running deployments that churn through peers. A later
// Send to the same peer starts a fresh flow at sequence zero (and clears
// any broken-flow state), exactly as if the pair had never communicated.
func (r *ReliableDatagram) CloseFlow(local, peer Addr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	localID, ok1 := r.ids[local]
	peerID, ok2 := r.ids[peer]
	if !ok1 || !ok2 {
		return
	}
	r.closeSendFlowLocked(localID, peerID)
	r.closeRecvFlowLocked(peerID, localID)
}

// closeSendFlowLocked tears down the send flow local→peer: unacked
// in-flight buffers are released, the retransmit timer is cancelled, and
// the flow struct returns to the free list. Caller holds r.mu.
func (r *ReliableDatagram) closeSendFlowLocked(local, peer int32) {
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

// closeRecvFlowLocked tears down the receive flow sender→local,
// releasing held out-of-order buffers and returning the struct to the
// free list. Caller holds r.mu.
func (r *ReliableDatagram) closeRecvFlowLocked(sender, local int32) {
	row := r.recvRows[sender]
	if int(local) >= len(row) {
		return
	}
	f := row[local]
	if f == nil {
		return
	}
	f.resetLocked()
	f.free = r.freeRecv
	r.freeRecv = f
	row[local] = nil
}

// resetLocked drops every held out-of-order PDU and rewinds the flow to
// sequence zero — the in-place teardown used when the peer restarts
// mid-flow (old-numbering PDUs must never surface in the new flow).
func (f *recvFlow) resetLocked() {
	for i := range f.ring {
		if f.ring[i].buf != nil {
			f.ring[i].buf.Release()
			f.ring[i] = heldPDU{}
		}
	}
	for seq, b := range f.overflow {
		b.Release()
		delete(f.overflow, seq)
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
// tear their halves down lazily.
func (r *ReliableDatagram) NoteRestart(addr Addr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id, ok := r.ids[addr]
	if !ok {
		return
	}
	refreshed := false
	if r.incp != nil {
		if low, lok := r.lowerIDLocked(id); lok {
			if inc := r.incp.IncarnationOf(low); inc > 0 {
				r.incs[id] = inc
				refreshed = true
			}
		}
	}
	if !refreshed {
		r.incs[id]++
	}
	for peer := range r.sendRows[id] {
		r.closeSendFlowLocked(id, int32(peer))
	}
	for sender := range r.recvRows {
		r.closeRecvFlowLocked(int32(sender), id)
	}
}
