package protocol

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/sim"
)

// Entity is a protocol entity in the sense of the paper's §2: "the
// behaviour of a protocol entity defines the service primitives between
// this entity and the service users, the service primitives between the
// protocol entity and the lower level service, and the relationships
// between these primitives."
//
// Concrete entities (the floor-control protocols of Figure 6 live in
// internal/floorcontrol) implement the three reaction points below; the
// Layer wires them to a lower service and to their local user.
type Entity interface {
	// Init is called once when the entity is added to a layer, before any
	// traffic; entities keep the context for sending PDUs and upcalls.
	Init(ctx *Context) error
	// FromUser handles a from-user service primitive executed by the local
	// user at this entity's service access point.
	FromUser(primitive string, params codec.Record) error
	// FromPeer handles a PDU received from a peer entity through the
	// lower level service. The view, and every byte slice read through
	// it, borrows the delivery buffer until FromPeer returns.
	FromPeer(src Addr, pdu codec.MsgView) error
}

// Context is an entity's window on its layer: its own address, PDU
// transmission, timers and the upcall to its local service user. The
// entity's own dense ids (layer slot, lower endpoint id) are resolved
// once at AddEntity time and cached here, so per-PDU work touches only
// slice-indexed tables.
type Context struct {
	layer   *Layer
	self    Addr
	selfID  int32 // layer-local entity slot
	selfLow int32 // lower-service endpoint id
}

// Self returns the entity's address.
func (c *Context) Self() Addr { return c.self }

// Time returns the layer's kernel (for time-dependent behaviour).
func (c *Context) Time() *sim.Kernel { return c.layer.kern }

// Schedule runs fn after a virtual delay; entities use it for polling
// intervals, hold times and timeouts. The returned ref cancels without
// pinning a timer allocation (see sim.TimerRef); callers that do not
// need to cancel may discard it.
func (c *Context) Schedule(delay time.Duration, fn func()) sim.TimerRef {
	return c.layer.kern.ScheduleFuncRef(delay, fn)
}

// PDU is one PDU type of an application protocol: its name, the encoded
// name every PDU of the type starts with, and the encoder of the field
// record that follows. Declare one per PDU type as a package-level var.
type PDU[T any] struct {
	name string
	head []byte
	enc  func([]byte, T) ([]byte, error)
}

// NewPDU declares the PDU type name whose field record enc appends (one
// record value — the encoder shape svc ports take).
func NewPDU[T any](name string, enc func([]byte, T) ([]byte, error)) PDU[T] {
	head, _ := codec.Append(nil, name) // a string always encodes
	return PDU[T]{name: name, head: head, enc: enc}
}

// Name returns the PDU type name.
func (p PDU[T]) Name() string { return p.name }

// Append appends the wire form of one PDU carrying v to buf.
func (p PDU[T]) Append(buf []byte, v T) ([]byte, error) {
	return p.enc(append(buf, p.head...), v)
}

// AppendRecord appends only the field record of one PDU carrying v.
func (p PDU[T]) AppendRecord(buf []byte, v T) ([]byte, error) { return p.enc(buf, v) }

// Send transmits one PDU carrying v from c's entity to the peer entity
// at dst through the layer's lower service. The encoding goes into a
// pooled scratch buffer: lower services copy synchronously (see
// LowerService.Send), so the buffer is recycled before Send returns.
func (p PDU[T]) Send(c *Context, dst Addr, v T) error {
	buf := codec.GetBuffer()
	defer buf.Release()
	data, err := p.Append(buf.B[:0], v)
	if err != nil {
		return fmt.Errorf("protocol: encode PDU %q: %w", p.name, err)
	}
	buf.B = data
	if err := c.layer.sendEncoded(c, dst, p.name, data); err != nil {
		return fmt.Errorf("protocol: send PDU %q %s→%s: %w", p.name, c.self, dst, err)
	}
	return nil
}

// SendMulti encodes v once and transmits it to every destination in
// order — the fan-out path for broadcast-style protocol entities — over
// the lower service's dense batch path. A destination the lower service
// cannot resolve is skipped and reported (ErrUnknownEntity) after the
// others are sent. Layer counters advance exactly as if Send were
// called once per destination.
func (p PDU[T]) SendMulti(c *Context, dsts []Addr, v T) error {
	if len(dsts) == 0 {
		return nil
	}
	buf := codec.GetBuffer()
	defer buf.Release()
	data, err := p.Append(buf.B[:0], v)
	if err != nil {
		return fmt.Errorf("protocol: encode PDU %q: %w", p.name, err)
	}
	buf.B = data
	if err := c.layer.sendEncodedMulti(c, dsts, p.name, data); err != nil {
		return fmt.Errorf("protocol: send PDU %q fan-out from %s: %w", p.name, c.self, err)
	}
	return nil
}

// DeliverToUser executes a to-user service primitive at this entity's SAP.
// It is a no-op if the user part has not attached a handler.
func (c *Context) DeliverToUser(primitive string, params codec.Record) {
	c.layer.deliverUp(c.selfID, primitive, params)
}

// LayerStats counts the PDU traffic a layer generated — the measurable
// footprint of a protocol solution.
//
// ByType is a lazily rebuilt snapshot shared between Stats callers:
// treat it as read-only. A fresh map is materialized only when counters
// changed since the last snapshot, so polling Stats in a loop does not
// allocate.
type LayerStats struct {
	PDUsSent  uint64
	BytesSent uint64
	ByType    map[string]uint64
}

// typeCounter is one interned per-PDU-type slot. Lookup is a linear scan
// with Go's pointer-equality string fast path: PDU names are string
// literals, so the steady-state stats hot path never hashes (layers see
// a handful of PDU types; the scan beats a map well past that).
type typeCounter struct {
	name string
	n    uint64
}

// entityEntry is the per-slot state of a layer's dense entity table.
type entityEntry struct {
	addr   Addr
	entity Entity
	upcall func(primitive string, params codec.Record)
}

// Layer binds protocol entities (one per address) over a lower-level
// service: the structure the paper's Figure 2 depicts. Its upper boundary
// is a service; expose it to user parts with NewServiceBinding.
//
// Entities, upcalls and stats counters live in dense slot-indexed tables
// resolved once at AddEntity time; per-message work does at most one
// small-map probe (destination address → lower id, cached after the
// first resolution).
type Layer struct {
	name  string
	kern  *sim.Kernel
	lower IndexedLower

	mu         sync.Mutex
	ids        map[Addr]int32
	ents       []entityEntry
	lowerAddrs []Addr         // lower endpoint id → address (receive cache)
	dstLow     map[Addr]int32 // destination → lower endpoint id (send cache)
	lowScratch []int32        // fan-out scratch, reused across SendMulti calls

	pdusSent  uint64
	bytesSent uint64
	types     []typeCounter
	snapshot  map[string]uint64
	snapDirty bool
}

// NewLayer creates an empty layer over lower (see AsIndexed), scheduled
// on kern.
func NewLayer(name string, kern *sim.Kernel, lower LowerService) *Layer {
	return &Layer{
		name:   name,
		kern:   kern,
		lower:  AsIndexed(lower),
		ids:    make(map[Addr]int32),
		dstLow: make(map[Addr]int32),
	}
}

// Name returns the layer's display name.
func (l *Layer) Name() string { return l.name }

// Time returns the layer's kernel.
func (l *Layer) Time() *sim.Kernel { return l.kern }

// internLocked returns addr's entity slot, assigning one on first sight.
func (l *Layer) internLocked(addr Addr) int32 {
	if id, ok := l.ids[addr]; ok {
		return id
	}
	id := int32(len(l.ents))
	l.ids[addr] = id
	l.ents = append(l.ents, entityEntry{addr: addr})
	return id
}

// addrForLower resolves a lower endpoint id to its address through a
// cached dense table (one lower query per id, ever).
func (l *Layer) addrForLower(lowSrc int32) Addr {
	l.mu.Lock()
	for int(lowSrc) >= len(l.lowerAddrs) {
		l.lowerAddrs = append(l.lowerAddrs, "")
	}
	a := l.lowerAddrs[lowSrc]
	if a == "" {
		a = l.lower.EndpointAddr(lowSrc)
		l.lowerAddrs[lowSrc] = a
	}
	l.mu.Unlock()
	return a
}

// AddEntity installs e at addr: attaches it to the lower service and
// initializes it.
func (l *Layer) AddEntity(addr Addr, e Entity) error {
	if e == nil {
		return fmt.Errorf("protocol: nil entity at %q", addr)
	}
	l.mu.Lock()
	id := l.internLocked(addr)
	if l.ents[id].entity != nil {
		l.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrDuplicate, addr)
	}
	l.ents[id].entity = e
	l.mu.Unlock()

	selfLow, err := l.lower.AttachIndexed(addr, func(lowSrc int32, data []byte) {
		receivePDU(e, l.addrForLower(lowSrc), data)
	})
	if err != nil {
		return fmt.Errorf("protocol: attach %q: %w", addr, err)
	}
	if err := e.Init(&Context{layer: l, self: addr, selfID: id, selfLow: selfLow}); err != nil {
		return fmt.Errorf("protocol: init entity at %q: %w", addr, err)
	}
	return nil
}

// receivePDU hands e a view of one PDU received from src; undecodable
// PDUs are dropped.
func receivePDU(e Entity, src Addr, data []byte) {
	v, err := codec.ParseMessage(data)
	if err != nil {
		return
	}
	_ = e.FromPeer(src, v) //nolint:errcheck // entity errors are local design errors surfaced in tests
}

// Entity returns the entity at addr.
func (l *Layer) Entity(addr Addr) (Entity, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	id, ok := l.ids[addr]
	if !ok || l.ents[id].entity == nil {
		return nil, false
	}
	return l.ents[id].entity, true
}

// SetUpcall registers the local user handler for to-user primitives at
// addr.
func (l *Layer) SetUpcall(addr Addr, fn func(primitive string, params codec.Record)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := l.internLocked(addr)
	l.ents[id].upcall = fn
}

func (l *Layer) deliverUp(id int32, primitive string, params codec.Record) {
	l.mu.Lock()
	fn := l.ents[id].upcall
	l.mu.Unlock()
	if fn != nil {
		fn(primitive, params)
	}
}

// countLocked advances the interned PDU-type counters. Caller holds l.mu.
func (l *Layer) countLocked(name string, bytes, n int) {
	l.pdusSent += uint64(n)
	l.bytesSent += uint64(n) * uint64(bytes)
	l.snapDirty = true
	for i := range l.types {
		if l.types[i].name == name {
			l.types[i].n += uint64(n)
			return
		}
	}
	l.types = append(l.types, typeCounter{name: name, n: uint64(n)})
}

// sendEncoded counts and transmits one already-encoded PDU to the
// destination's lower endpoint id.
func (l *Layer) sendEncoded(c *Context, dst Addr, name string, data []byte) error {
	l.mu.Lock()
	l.countLocked(name, len(data), 1)
	low := l.dstLowLocked(dst)
	l.mu.Unlock()
	if low < 0 {
		return fmt.Errorf("%w: %q", ErrUnknownEntity, dst)
	}
	return l.lower.SendIndexed(c.selfLow, low, data)
}

// sendEncodedMulti counts and transmits one encoded PDU to every
// destination through the lower service's batch path. Destinations with
// no lower id are skipped; the first is reported after the batch.
func (l *Layer) sendEncodedMulti(c *Context, dsts []Addr, name string, data []byte) error {
	l.mu.Lock()
	// The batch send happens with l.mu held so the reused scratch slice
	// cannot be clobbered by a concurrent fan-out. Lock order stays
	// acyclic: lower services never call back into the layer
	// synchronously (deliveries are kernel-scheduled).
	defer l.mu.Unlock()
	l.countLocked(name, len(data), len(dsts))
	lows := l.lowScratch[:0]
	var unknown error
	for _, dst := range dsts {
		low := l.dstLowLocked(dst)
		if low < 0 {
			if unknown == nil {
				unknown = fmt.Errorf("%w: %q", ErrUnknownEntity, dst)
			}
			continue
		}
		lows = append(lows, low)
	}
	l.lowScratch = lows[:0]
	if err := l.lower.SendMultiIndexed(c.selfLow, lows, data); err != nil {
		return err
	}
	return unknown
}

// dstLowLocked resolves a destination address to its lower endpoint id
// through the send cache. Unresolved destinations (peer not attached
// yet) are not cached, so late attachment is picked up. Caller holds
// l.mu.
func (l *Layer) dstLowLocked(dst Addr) int32 {
	if low, ok := l.dstLow[dst]; ok {
		return low
	}
	low, ok := l.lower.EndpointID(dst)
	if !ok {
		return -1
	}
	l.dstLow[dst] = low
	return low
}

// Stats returns a snapshot of the layer counters. The ByType map is
// rebuilt lazily: unchanged counters return the same (read-only) map.
func (l *Layer) Stats() LayerStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.snapshot == nil || l.snapDirty {
		m := make(map[string]uint64, len(l.types))
		for _, c := range l.types {
			m[c.name] = c.n
		}
		l.snapshot = m
		l.snapDirty = false
	}
	return LayerStats{PDUsSent: l.pdusSent, BytesSent: l.bytesSent, ByType: l.snapshot}
}

// ServiceBinding exposes a layer's upper boundary as a core.Provider by
// mapping service access points to entity addresses. This is the seam the
// paper argues for: user parts hold a Provider and never learn which
// protocol implements it.
type ServiceBinding struct {
	layer *Layer

	mu   sync.Mutex
	saps map[core.SAP]sapBinding
}

// sapBinding caches the entity resolved at Bind time (entities are never
// removed from a layer), so Submit dispatches with one map probe.
type sapBinding struct {
	addr   Addr
	entity Entity
}

var _ core.Provider = (*ServiceBinding)(nil)

// NewServiceBinding creates an empty SAP→entity binding for a layer.
func NewServiceBinding(layer *Layer) *ServiceBinding {
	return &ServiceBinding{layer: layer, saps: make(map[core.SAP]sapBinding)}
}

// Bind associates a SAP with the entity at addr.
func (b *ServiceBinding) Bind(sap core.SAP, addr Addr) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.layer.Entity(addr)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownEntity, addr)
	}
	if _, dup := b.saps[sap]; dup {
		return fmt.Errorf("%w: SAP %s", ErrDuplicate, sap)
	}
	b.saps[sap] = sapBinding{addr: addr, entity: e}
	return nil
}

// Submit implements core.Provider: the from-user primitive is handed to
// the entity serving the SAP.
func (b *ServiceBinding) Submit(sap core.SAP, primitive string, params codec.Record) error {
	b.mu.Lock()
	bind, ok := b.saps[sap]
	b.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotBound, sap)
	}
	if err := bind.entity.FromUser(primitive, params); err != nil {
		return fmt.Errorf("protocol: %s at %s: %w", primitive, sap, err)
	}
	return nil
}

// Attach implements core.Provider.
func (b *ServiceBinding) Attach(sap core.SAP, handler func(primitive string, params codec.Record)) {
	b.mu.Lock()
	bind, ok := b.saps[sap]
	b.mu.Unlock()
	if !ok {
		return
	}
	b.layer.SetUpcall(bind.addr, handler)
}

// ErrNotBound is reported when submitting at an unbound SAP.
var ErrNotBound = errors.New("protocol: SAP not bound")
