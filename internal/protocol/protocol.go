// Package protocol implements the protocol-centred (telecom) paradigm of
// the paper's §2: protocol entities that "communicate with each other by
// exchanging messages, often called Protocol Data Units (PDUs), through a
// lower level service", assembled into layers whose upper boundary is a
// service in the sense of internal/core.
//
// The package provides:
//
//   - LowerService: the abstraction of a lower-level data-transfer service;
//   - IndexedLower: its dense-id extension, which makes steady-state
//     delivery map-free. Every built-in service implements it, and
//     AsIndexed interns addresses for any service that does not, so the
//     layers above address their peers by endpoint id only;
//   - UnreliableDatagram: the raw simulated network as a lower service;
//   - ReliableDatagram: a go-back-N protocol layer that turns an unreliable
//     datagram service into reliable, in-order, exactly-once delivery — the
//     "(reliable datagram)" lower service the paper's Figure 6 assumes;
//   - Entity, Context and Layer: the framework for writing application
//     protocols (the floor-control protocols of Figure 6 are Entities) and
//     exposing the layer's upper boundary as a core.Provider. Entities
//     exchange PDUs as bytes: a PDU type (NewPDU) appends its name and
//     field record into a pooled buffer, and the receiving entity reads
//     it through a codec.MsgView valid until FromPeer returns. Records
//     are built only for the primitive params at the service boundary.
package protocol

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/network"
)

// Addr identifies a protocol entity endpoint. Addresses coincide with
// simulated network node ids.
type Addr = network.NodeID

// Errors shared by lower-service implementations.
var (
	ErrDuplicate     = errors.New("protocol: address already attached")
	ErrUnknownEntity = errors.New("protocol: unknown entity address")
)

// Receiver consumes PDUs delivered by a lower service.
//
// The pdu slice may alias a pooled delivery buffer owned by the service
// below: it is valid only until the receiver returns. Receivers that
// keep PDU bytes beyond the call must copy them (codec's materializing
// decoders copy implicitly; codec.MsgView accessors alias).
type Receiver func(src Addr, pdu []byte)

// IndexedReceiver is the dense-plane Receiver: the source endpoint is
// identified by the small-int id the lower service assigned it (see
// IndexedLower). The same pdu aliasing contract as Receiver applies.
type IndexedReceiver func(src int32, pdu []byte)

// LowerService is the paper's "lower level service": it provides
// interconnection and data transfer between protocol entities. Reliability
// properties depend on the implementation.
type LowerService interface {
	// Name identifies the service for diagnostics and metrics.
	Name() string
	// Attach registers the receiver for PDUs addressed to addr.
	Attach(addr Addr, r Receiver) error
	// Send transfers an encoded PDU from src to dst. Implementations must
	// not retain pdu after returning (copy if queueing), so callers may
	// encode into reusable scratch buffers.
	Send(src, dst Addr, pdu []byte) error
}

// MultiSender is a name-addressed fan-out extension: sending one PDU to
// many destinations in a single call. No built-in service implements it
// and nothing in this repository calls it; fan-out rides
// IndexedLower.SendMultiIndexed. The declaration remains only for
// decorators that still name it.
type MultiSender interface {
	SendMulti(src Addr, dsts []Addr, pdu []byte) error
}

// IndexedLower is the LowerService extension behind the repo's map-free
// delivery plane: endpoints receive dense small-int ids at attach time,
// receivers are handed source ids instead of names, and the id-addressed
// send paths do zero map lookups in steady state. Ids count up from
// zero, are assigned in attach (or first-sight) order, and stay valid
// for the service's lifetime.
//
// Layer, ReliableDatagram and the middleware Platform speak to their
// lower service through this interface only: they wrap what they are
// given with AsIndexed once, at construction.
type IndexedLower interface {
	LowerService
	// AttachIndexed registers r for PDUs addressed to addr and returns
	// addr's dense endpoint id. Re-attaching replaces the receiver and
	// returns the same id.
	AttachIndexed(addr Addr, r IndexedReceiver) (int32, error)
	// EndpointID resolves an address to its dense id; ok is false when
	// the service cannot reach addr.
	EndpointID(addr Addr) (int32, bool)
	// EndpointAddr resolves a dense id back to its address ("" for ids
	// the service never issued).
	EndpointAddr(id int32) Addr
	// SendIndexed is Send with both endpoints named by dense id.
	SendIndexed(src, dst int32, pdu []byte) error
	// SendMultiIndexed is the id-addressed fan-out: identical semantics
	// to repeated SendIndexed calls in destination order.
	SendMultiIndexed(src int32, dsts []int32, pdu []byte) error
}

// AsIndexed returns lower as an IndexedLower: unchanged when it already
// implements the extension, otherwise wrapped in an adapter that interns
// addresses into dense ids in first-sight order. The adapter forwards
// every send to lower's name-addressed Send (fan-outs as a Send loop in
// destination order), so traffic over it is exactly the traffic of the
// name-addressed methods. A name-only service cannot say which addresses
// are attached, so the adapter's EndpointID resolves any address.
func AsIndexed(lower LowerService) IndexedLower {
	if il, ok := lower.(IndexedLower); ok {
		return il
	}
	return &indexedAdapter{LowerService: lower, ids: make(map[Addr]int32)}
}

// indexedAdapter is the AsIndexed wrapper of a name-only LowerService.
type indexedAdapter struct {
	LowerService

	mu    sync.Mutex
	ids   map[Addr]int32
	addrs []Addr // id → address
}

// intern returns addr's dense id, assigning one on first sight.
func (a *indexedAdapter) intern(addr Addr) int32 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if id, ok := a.ids[addr]; ok {
		return id
	}
	id := int32(len(a.addrs))
	a.ids[addr] = id
	a.addrs = append(a.addrs, addr)
	return id
}

// AttachIndexed implements IndexedLower over the inner Attach.
func (a *indexedAdapter) AttachIndexed(addr Addr, r IndexedReceiver) (int32, error) {
	if r == nil {
		return -1, fmt.Errorf("protocol: nil receiver for %q", addr)
	}
	id := a.intern(addr)
	if err := a.Attach(addr, func(src Addr, pdu []byte) { r(a.intern(src), pdu) }); err != nil {
		return -1, err
	}
	return id, nil
}

// EndpointID implements IndexedLower: any address resolves.
func (a *indexedAdapter) EndpointID(addr Addr) (int32, bool) { return a.intern(addr), true }

// EndpointAddr implements IndexedLower.
func (a *indexedAdapter) EndpointAddr(id int32) Addr {
	a.mu.Lock()
	defer a.mu.Unlock()
	if id < 0 || int(id) >= len(a.addrs) {
		return ""
	}
	return a.addrs[id]
}

// SendIndexed implements IndexedLower over the inner Send.
func (a *indexedAdapter) SendIndexed(src, dst int32, pdu []byte) error {
	return a.Send(a.EndpointAddr(src), a.EndpointAddr(dst), pdu)
}

// SendMultiIndexed implements IndexedLower as a Send loop in destination
// order, returning the first error.
func (a *indexedAdapter) SendMultiIndexed(src int32, dsts []int32, pdu []byte) error {
	var firstErr error
	for _, dst := range dsts {
		if err := a.SendIndexed(src, dst, pdu); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// IncarnationProvider is an optional LowerService extension for churn:
// services whose endpoints can crash and restart report a per-endpoint
// incarnation number (1-based, bumped on every restart). ReliableDatagram
// uses it to stamp PDUs with endpoint incarnations so peers detect
// restarts and tear down stale flow state instead of ghost-acking it.
type IncarnationProvider interface {
	// IncarnationOf returns the current incarnation of the endpoint with
	// the given dense id (0 for unknown ids).
	IncarnationOf(id int32) uint32
}

// UnreliableDatagram adapts the simulated network directly: datagrams may
// be lost, duplicated or reordered according to the link configuration
// ("send and pray", §2). Its dense endpoint ids are exactly the network's
// node slots, so the indexed paths forward with no translation at all.
type UnreliableDatagram struct {
	net *network.Network

	mu       sync.Mutex
	attached map[Addr]int32 // addr → network slot
}

var (
	_ IndexedLower        = (*UnreliableDatagram)(nil)
	_ IncarnationProvider = (*UnreliableDatagram)(nil)
)

// NewUnreliableDatagram wraps a simulated network as a lower service.
func NewUnreliableDatagram(net *network.Network) *UnreliableDatagram {
	return &UnreliableDatagram{net: net, attached: make(map[Addr]int32)}
}

// Name implements LowerService.
func (u *UnreliableDatagram) Name() string { return "unreliable-datagram" }

// Attach implements LowerService. The address is registered as a network
// node on first attach.
func (u *UnreliableDatagram) Attach(addr Addr, r Receiver) error {
	if r == nil {
		return fmt.Errorf("protocol: nil receiver for %q", addr)
	}
	_, err := u.AttachIndexed(addr, func(src int32, payload []byte) {
		r(u.net.IDOf(src), payload)
	})
	return err
}

// AttachIndexed implements IndexedLower. The returned id is the network
// slot of addr's node.
func (u *UnreliableDatagram) AttachIndexed(addr Addr, r IndexedReceiver) (int32, error) {
	if r == nil {
		return -1, fmt.Errorf("protocol: nil receiver for %q", addr)
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	h := network.SlotHandler(r)
	if slot, ok := u.attached[addr]; ok {
		return slot, u.net.SetSlotHandler(addr, h)
	}
	slot, err := u.net.Register(addr, h)
	if err != nil {
		if errors.Is(err, network.ErrDuplicateNode) {
			// The node exists but was registered outside this service
			// (or by a previous wrapper): take its handler over.
			slot, _ := u.net.SlotOf(addr)
			u.attached[addr] = slot
			return slot, u.net.SetSlotHandler(addr, h)
		}
		return -1, err
	}
	u.attached[addr] = slot
	return slot, nil
}

// EndpointID implements IndexedLower.
func (u *UnreliableDatagram) EndpointID(addr Addr) (int32, bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	slot, ok := u.attached[addr]
	return slot, ok
}

// EndpointAddr implements IndexedLower.
func (u *UnreliableDatagram) EndpointAddr(id int32) Addr {
	return u.net.IDOf(id)
}

// IncarnationOf implements IncarnationProvider: this service's dense ids
// are exactly the network's node slots, so the incarnation is the
// network node's.
func (u *UnreliableDatagram) IncarnationOf(id int32) uint32 {
	return u.net.IncarnationOfSlot(id)
}

// Send implements LowerService.
func (u *UnreliableDatagram) Send(src, dst Addr, pdu []byte) error {
	return u.net.Send(src, dst, pdu)
}

// SendIndexed implements IndexedLower on the network's slot plane.
func (u *UnreliableDatagram) SendIndexed(src, dst int32, pdu []byte) error {
	return u.net.SendSlot(src, dst, pdu)
}

// SendMultiIndexed implements IndexedLower on the network's slot batch
// path.
func (u *UnreliableDatagram) SendMultiIndexed(src int32, dsts []int32, pdu []byte) error {
	return u.net.SendMultiSlot(src, dsts, pdu)
}
