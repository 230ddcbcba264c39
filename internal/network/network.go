// Package network simulates the physical interconnection underlying every
// experiment in this repository: the "lower level service [that] provides
// physical interconnection and (reliable or unreliable) data transfer
// between protocol entities" (paper, §2).
//
// The network is a set of named nodes joined by configurable links. A link
// models latency, jitter, probabilistic loss and duplication, and an
// optional MTU. Delivery is scheduled on a sim.Kernel, so all behaviour
// is deterministic for a fixed seed.
//
// The service offered at this level is an *unreliable datagram* service:
// higher layers (internal/protocol) build reliable datagram delivery on top
// of it, exactly as the protocol-centred paradigm prescribes.
//
// # Data plane by slot, control plane by name
//
// Every node receives a dense small-int Slot at registration, and the
// data plane is addressed by slot only: SendSlot and SendMultiSlot send,
// and a SlotHandler receives. Handlers live in a slot-indexed slice and
// link state (config, partition flag) lives in lazily materialized
// per-source rows: a source with no explicit SetLink/Partition call has
// a nil row and pays one pointer of memory, so a million-node fabric
// with default links costs O(N), not O(N²). Sources that are configured
// get a dense toSlot-indexed row, and the steady-state send and delivery
// paths — SendSlot, SendMultiSlot and the pooled delivery events they
// schedule — perform zero map lookups and zero allocations. The control
// plane (SetLink, Partition, Heal, Crash, Restart, SlotOf) is addressed
// by name and resolves names to slots on entry.
// Registering nodes after traffic has started is supported: rows grow
// (amortised) and in-flight deliveries keep their slots, which stay
// valid for the network's lifetime.
package network

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/codec"
	"repro/internal/sim"
)

// Common errors.
var (
	ErrUnknownNode   = errors.New("network: unknown node")
	ErrDuplicateNode = errors.New("network: node already registered")
	ErrTooLarge      = errors.New("network: payload exceeds link MTU")
	ErrBadSlot       = errors.New("network: slot out of range")
	ErrCrashed       = errors.New("network: node already crashed")
	ErrNotCrashed    = errors.New("network: node is not crashed")
)

// NodeID names a node on the simulated network.
type NodeID string

// Slot is a node's dense index, assigned at registration time. Slots
// count up from zero in registration order and stay valid for the
// network's lifetime, so slot-indexed tables in higher layers never need
// rebuilding on their account. It is an alias for int32 so higher-layer
// dense id tables ([]int32) interoperate without conversions.
type Slot = int32

// SlotHandler receives datagrams delivered to a node. The source is
// identified by its slot, so the delivery path resolves no names.
//
// The payload slice is a pooled delivery buffer owned by the network: it
// is valid only until the handler returns, after which it is recycled
// for an unrelated datagram. Handlers that keep payload bytes beyond the
// call (buffering, reassembly) must copy them; decoding with
// internal/codec's materializing APIs copies implicitly, while MsgView
// accessors alias and must not outlive the call.
type SlotHandler func(src Slot, payload []byte)

// LinkConfig describes the behaviour of a directed link.
type LinkConfig struct {
	// Latency is the base one-way delay.
	Latency time.Duration
	// Jitter adds a uniformly random delay in [0, Jitter). Jitter larger
	// than the inter-send gap causes reordering, which is intended.
	Jitter time.Duration
	// LossRate is the probability in [0,1] that a datagram is dropped.
	LossRate float64
	// DuplicateRate is the probability in [0,1] that a datagram is
	// delivered twice.
	DuplicateRate float64
	// MTU, when positive, bounds payload size; larger sends fail with
	// ErrTooLarge. Zero means unlimited.
	MTU int
}

// validate reports configuration errors early rather than at send time.
func (c LinkConfig) validate() error {
	if c.Latency < 0 || c.Jitter < 0 {
		return fmt.Errorf("network: negative latency/jitter (%v/%v)", c.Latency, c.Jitter)
	}
	if c.LossRate < 0 || c.LossRate > 1 {
		return fmt.Errorf("network: loss rate %v out of [0,1]", c.LossRate)
	}
	if c.DuplicateRate < 0 || c.DuplicateRate > 1 {
		return fmt.Errorf("network: duplicate rate %v out of [0,1]", c.DuplicateRate)
	}
	if c.MTU < 0 {
		return fmt.Errorf("network: negative MTU %d", c.MTU)
	}
	return nil
}

// Stats is a snapshot of network-wide counters. Duplicated deliveries count
// once as sent and twice as delivered.
type Stats struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64
	BytesSent uint64
}

// Option configures a Network.
type Option func(*Network)

// WithDefaultLink sets the link configuration used for node pairs without
// an explicit SetLink call. The default is 1ms latency, no jitter, no loss.
func WithDefaultLink(cfg LinkConfig) Option {
	return func(n *Network) { n.defaultLink = cfg }
}

// linkState is one cell of a materialized link row: the effective
// directed link state between two registered slots.
type linkState struct {
	cfg LinkConfig
	// explicit marks cells configured via SetLink; others use the
	// network default.
	explicit    bool
	partitioned bool
}

// delivery is a pooled in-flight datagram: the closure scheduled on the
// kernel is built once per pooled object and reused, so steady-state
// delivery allocates nothing. dstInc is the destination's incarnation at
// send time: a delivery addressed to an earlier incarnation arrives at a
// host that crashed (and possibly restarted) while it was on the wire,
// and is dropped.
type delivery struct {
	n        *Network
	src, dst Slot
	dstInc   uint32
	buf      *codec.Buffer
	fn       func()
	next     *delivery
}

func (d *delivery) run() {
	n := d.n
	if n.crashed[d.dst] || n.incs[d.dst] != d.dstInc {
		// The destination crashed while this datagram was in flight
		// (a restart bumps the incarnation, so the old stamp no
		// longer matches): the datagram arrives at a dead host.
		n.stats.Dropped++
	} else {
		n.stats.Delivered++
		n.handlers[d.dst](d.src, d.buf.B)
	}
	buf := d.buf
	d.buf = nil
	buf.Release()
	d.next = n.freeDeliveries
	n.freeDeliveries = d
}

// Network is the simulated interconnection fabric. Create one with New.
type Network struct {
	kern        *sim.Kernel
	rng         *rand.Rand // kern.Rand(), cached: the kernel returns a stable source
	defaultLink LinkConfig

	slots    map[NodeID]Slot
	ids      []NodeID      // slot → name
	handlers []SlotHandler // slot → delivery handler
	crashed  []bool        // slot → node is currently crashed
	incs     []uint32      // slot → incarnation number (1-based; Restart increments)

	// rows is the lazily materialized link table: rows[src] is nil until
	// some link out of src is configured, then a dense toSlot-indexed
	// row of width rowW (a power of two grown geometrically with the
	// node count). links/partition remain the configuration source of
	// truth — they may name nodes registered later — and rows are the
	// materialized fast path over registered pairs. Default-link fabrics
	// (the common case at XL population sizes) keep every row nil and
	// cost one pointer per node.
	rows      [][]linkState
	rowW      int
	links     map[linkKey]LinkConfig
	partition map[linkKey]bool

	freeDeliveries *delivery
	stats          Stats
}

type linkKey struct{ src, dst NodeID }

// New creates a network scheduled on kern.
func New(kern *sim.Kernel, opts ...Option) *Network {
	n := &Network{
		kern:        kern,
		rng:         kern.Rand(),
		defaultLink: LinkConfig{Latency: time.Millisecond},
		slots:       make(map[NodeID]Slot),
		links:       make(map[linkKey]LinkConfig),
		partition:   make(map[linkKey]bool),
	}
	for _, opt := range opts {
		opt(n)
	}
	return n
}

// Time returns the kernel the network schedules on.
func (n *Network) Time() *sim.Kernel { return n.kern }

// Register adds a node with its delivery handler and returns its dense
// slot, the node's address on the data plane. Registration is
// valid at any time, including after traffic has started: the link grid
// grows to cover the new slot and existing slots are unaffected.
func (n *Network) Register(id NodeID, h SlotHandler) (Slot, error) {
	if h == nil {
		return -1, fmt.Errorf("network: nil handler for node %q", id)
	}
	if _, ok := n.slots[id]; ok {
		return -1, fmt.Errorf("%w: %q", ErrDuplicateNode, id)
	}
	s := Slot(len(n.ids))
	n.slots[id] = s
	n.ids = append(n.ids, id)
	n.handlers = append(n.handlers, h)
	n.crashed = append(n.crashed, false)
	n.incs = append(n.incs, 1)
	n.rows = append(n.rows, nil)
	n.ensureRowWidth(len(n.ids))
	n.materializeNode(id, s)
	return s, nil
}

// SetSlotHandler replaces the delivery handler of an existing node.
func (n *Network) SetSlotHandler(id NodeID, h SlotHandler) error {
	if h == nil {
		return fmt.Errorf("network: nil handler for node %q", id)
	}
	s, ok := n.slots[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	n.handlers[s] = h
	return nil
}

// SlotOf resolves a node name to its dense slot.
func (n *Network) SlotOf(id NodeID) (Slot, bool) {
	s, ok := n.slots[id]
	return s, ok
}

// IDOf resolves a slot back to its node name. It returns "" for slots
// the network never issued.
func (n *Network) IDOf(s Slot) NodeID {
	if s < 0 || int(s) >= len(n.ids) {
		return ""
	}
	return n.ids[s]
}

// ensureRowWidth grows the row width so materialized rows cover
// count slots. Growth is geometric and only already-materialized rows
// are copied — nil rows (the overwhelming majority at scale) cost
// nothing.
func (n *Network) ensureRowWidth(count int) {
	if count <= n.rowW {
		return
	}
	w := n.rowW * 2
	if w < 4 {
		w = 4
	}
	for w < count {
		w *= 2
	}
	for i, row := range n.rows {
		if row == nil {
			continue
		}
		grown := make([]linkState, w)
		copy(grown, row)
		n.rows[i] = grown
	}
	n.rowW = w
}

// rowOf returns the materialized link row of src, creating it on
// first use. Only sources with explicit link configuration ever get a
// row.
func (n *Network) rowOf(src Slot) []linkState {
	if n.rows[src] == nil {
		n.rows[src] = make([]linkState, n.rowW)
	}
	return n.rows[src]
}

// materializeNode fills the link cells involving a newly
// registered node from the configuration maps (SetLink/Partition calls
// may predate registration).
func (n *Network) materializeNode(id NodeID, s Slot) {
	for k, cfg := range n.links {
		if k.src != id && k.dst != id {
			continue
		}
		si, ok1 := n.slots[k.src]
		di, ok2 := n.slots[k.dst]
		if ok1 && ok2 {
			c := &n.rowOf(si)[di]
			c.cfg, c.explicit = cfg, true
		}
	}
	for k, cut := range n.partition {
		if !cut || (k.src != id && k.dst != id) {
			continue
		}
		si, ok1 := n.slots[k.src]
		di, ok2 := n.slots[k.dst]
		if ok1 && ok2 {
			n.rowOf(si)[di].partitioned = true
		}
	}
}

// SetLink configures the directed link src→dst. Either endpoint may be
// registered later; the configuration takes effect when both exist.
func (n *Network) SetLink(src, dst NodeID, cfg LinkConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	n.links[linkKey{src, dst}] = cfg
	if si, ok := n.slots[src]; ok {
		if di, ok := n.slots[dst]; ok {
			c := &n.rowOf(si)[di]
			c.cfg, c.explicit = cfg, true
		}
	}
	return nil
}

// Partition cuts the directed link src→dst: datagrams are silently
// dropped, as in a network partition. Toggling mid-run is supported and
// affects only datagrams sent after the call (in-flight deliveries
// already left the link).
func (n *Network) Partition(src, dst NodeID) {
	n.setPartition(src, dst, true)
}

// Heal restores the directed link src→dst after a Partition.
func (n *Network) Heal(src, dst NodeID) {
	n.setPartition(src, dst, false)
}

func (n *Network) setPartition(src, dst NodeID, cut bool) {
	if cut {
		n.partition[linkKey{src, dst}] = true
	} else {
		delete(n.partition, linkKey{src, dst})
	}
	if si, ok := n.slots[src]; ok {
		if di, ok := n.slots[dst]; ok {
			if cut {
				n.rowOf(si)[di].partitioned = true
			} else if row := n.rows[si]; row != nil {
				row[di].partitioned = false
			}
		}
	}
}

// SendSlot transmits payload from src to dst as an unreliable datagram.
// The payload is copied, so the caller may reuse its buffer. SendSlot
// never blocks; delivery (if any) happens later in virtual time. The
// whole path — link lookup, loss/jitter draws, delivery scheduling —
// performs no map lookups and no allocations in steady state.
//
//repolint:hotpath
func (n *Network) SendSlot(src, dst Slot, payload []byte) error {
	if int(src) >= len(n.ids) || src < 0 {
		return fmt.Errorf("%w: source %d", ErrBadSlot, src) //repolint:allow alloc -- cold: caller passed an invalid slot
	}
	if int(dst) >= len(n.ids) || dst < 0 {
		return fmt.Errorf("%w: destination %d", ErrBadSlot, dst) //repolint:allow alloc -- cold: caller passed an invalid slot
	}
	return n.transmit(src, dst, payload)
}

// SendMultiSlot transmits payload from src to every destination in
// order, exactly as if SendSlot were called once per destination (same
// random draws, same delivery order). Destinations that fail validation
// (bad slot, MTU) are skipped; the first such error is returned after
// all other destinations have been processed.
//
//repolint:hotpath
func (n *Network) SendMultiSlot(src Slot, dsts []Slot, payload []byte) error {
	if int(src) >= len(n.ids) || src < 0 {
		return fmt.Errorf("%w: source %d", ErrBadSlot, src) //repolint:allow alloc -- cold: caller passed an invalid slot
	}
	var firstErr error
	for _, dst := range dsts {
		if int(dst) >= len(n.ids) || dst < 0 {
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: destination %d", ErrBadSlot, dst) //repolint:allow alloc -- cold: caller passed an invalid slot
			}
			continue
		}
		if err := n.transmit(src, dst, payload); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// transmit validates one src→dst datagram, applies partition, loss
// and duplication, and schedules the resulting deliveries (0, 1 or 2).
// It consumes kernel randomness in a fixed order (loss, jitter,
// duplicate, duplicate jitter) to keep traces deterministic.
//
//repolint:hotpath
func (n *Network) transmit(src, dst Slot, payload []byte) error {
	// Unconfigured sources have a nil row — the default-link fast path
	// that keeps link state O(N) on XL fabrics.
	var cell *linkState
	cfg := &n.defaultLink
	if row := n.rows[src]; row != nil {
		cell = &row[dst]
		if cell.explicit {
			cfg = &cell.cfg
		}
	}
	if cfg.MTU > 0 && len(payload) > cfg.MTU {
		return fmt.Errorf("%w: %d > %d (link %s→%s)", ErrTooLarge, len(payload), cfg.MTU, n.ids[src], n.ids[dst]) //repolint:allow alloc -- cold: oversized datagram is rejected, not transmitted
	}
	n.stats.Sent++
	n.stats.BytesSent += uint64(len(payload))
	// Crashed endpoints drop traffic before the loss draw, exactly like a
	// partition: a crashed source emits nothing and a crashed destination
	// receives nothing (datagrams already in flight are dropped at
	// delivery time via the incarnation stamp instead).
	if (cell != nil && cell.partitioned) || n.crashed[src] || n.crashed[dst] {
		n.stats.Dropped++
		return nil
	}
	rng := n.rng
	if cfg.LossRate > 0 && rng.Float64() < cfg.LossRate {
		n.stats.Dropped++
		return nil
	}
	buf := n.kern.Buffers().Get()
	buf.B = append(buf.B[:0], payload...)
	n.newDelivery(src, dst, cfg, buf)
	if cfg.DuplicateRate > 0 && rng.Float64() < cfg.DuplicateRate {
		dup := n.kern.Buffers().Get()
		dup.B = append(dup.B[:0], payload...)
		n.newDelivery(src, dst, cfg, dup)
	}
	return nil
}

// newDelivery draws the link jitter and schedules the delivery event for
// one datagram copy, taken from the pooled delivery free list. The
// pooled buffer is recycled as soon as the handler returns (see
// SlotHandler's aliasing contract).
//
//repolint:hotpath
func (n *Network) newDelivery(src, dst Slot, cfg *LinkConfig, buf *codec.Buffer) {
	delay := cfg.Latency
	if cfg.Jitter > 0 {
		delay += time.Duration(n.rng.Int63n(int64(cfg.Jitter)))
	}
	d := n.freeDeliveries
	if d != nil {
		n.freeDeliveries = d.next
		d.next = nil
	} else {
		d = &delivery{n: n}
		d.fn = d.run
	}
	d.src, d.dst, d.buf = src, dst, buf
	d.dstInc = n.incs[dst]
	n.kern.ScheduleFunc(delay, d.fn)
}

// Crash marks a node as crashed (fail-stop): from this instant the slot
// emits nothing, receives nothing, and every delivery already in flight
// toward it is dropped on arrival. The node's handler and slot survive —
// Restart re-attaches them under a fresh incarnation. Crashing an
// already-crashed node is an error (fault plans alternate crash/restart
// per node; a double crash indicates a scheduling bug).
func (n *Network) Crash(id NodeID) error {
	s, ok := n.slots[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	if n.crashed[s] {
		return fmt.Errorf("%w: %q", ErrCrashed, id)
	}
	n.crashed[s] = true
	return nil
}

// Restart brings a crashed node back on the same slot with the same
// handler and a fresh incarnation number. Datagrams stamped with the old
// incarnation (sent before the crash, still in flight) are dropped on
// arrival; new traffic flows normally. Higher layers observe the
// incarnation change (IncarnationOfSlot) to tear down stale flow state.
func (n *Network) Restart(id NodeID) error {
	s, ok := n.slots[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	if !n.crashed[s] {
		return fmt.Errorf("%w: %q", ErrNotCrashed, id)
	}
	n.crashed[s] = false
	n.incs[s]++
	return nil
}

// Crashed reports whether a node is currently crashed. Unknown nodes
// report false.
func (n *Network) Crashed(id NodeID) bool {
	s, ok := n.slots[id]
	return ok && n.crashed[s]
}

// IncarnationOfSlot returns a node's current incarnation number (1 for a
// node that has never crashed; each Restart increments it). Out-of-range
// slots report 0.
func (n *Network) IncarnationOfSlot(s Slot) uint32 {
	if s < 0 || int(s) >= len(n.incs) {
		return 0
	}
	return n.incs[s]
}

// Stats returns a snapshot of the network counters.
func (n *Network) Stats() Stats {
	return n.stats
}
