// Package protocol implements the protocol-centred (telecom) paradigm of
// the paper's §2: protocol entities that "communicate with each other by
// exchanging messages, often called Protocol Data Units (PDUs), through a
// lower level service", assembled into layers whose upper boundary is a
// service in the sense of internal/core.
//
// The package provides:
//
//   - LowerService: the abstraction of a lower-level data-transfer
//     service, addressed by endpoint id. There is one id space: a
//     service layered on another passes the ids of the one below
//     through unchanged, so over UnreliableDatagram every endpoint id
//     is a network node slot, no layer translates ids, and
//     steady-state delivery is map-free;
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

// IndexedReceiver is the id-addressed Receiver: the source endpoint is
// identified by the endpoint id the lower service assigned it (see
// LowerService). The same pdu aliasing contract as Receiver applies.
type IndexedReceiver func(src int32, pdu []byte)

// LowerService is the paper's "lower level service": it provides
// interconnection and data transfer between protocol entities.
// Reliability properties depend on the implementation.
//
// Endpoints are addressed by id: attaching an address returns its
// endpoint id, receivers are handed source ids, and sends name both
// endpoints by id, so steady-state delivery does no map lookup. Ids are
// small non-negative ints that stay valid for the service's lifetime. A
// service layered on another reuses the ids of the service below, so
// one endpoint has one id from the network slot up.
type LowerService interface {
	// Name identifies the service for diagnostics and metrics.
	Name() string
	// AttachIndexed registers r for PDUs addressed to addr and returns
	// addr's endpoint id. Re-attaching replaces the receiver and
	// returns the same id.
	AttachIndexed(addr Addr, r IndexedReceiver) (int32, error)
	// EndpointID resolves an attached address to its id; ok is false
	// when the service never attached addr.
	EndpointID(addr Addr) (int32, bool)
	// EndpointAddr resolves an id back to its address.
	EndpointAddr(id int32) Addr
	// SendIndexed transfers an encoded PDU from src to dst.
	// Implementations must not retain pdu after returning (copy if
	// queueing), so callers may encode into reusable scratch buffers.
	SendIndexed(src, dst int32, pdu []byte) error
	// SendMultiIndexed is the fan-out: identical semantics to repeated
	// SendIndexed calls in destination order.
	SendMultiIndexed(src int32, dsts []int32, pdu []byte) error

	// Attach is AttachIndexed with the receiver handed source addresses.
	Attach(addr Addr, r Receiver) error
	// Send is SendIndexed with both endpoints named by address; an
	// address the service never attached fails with ErrUnknownEntity.
	Send(src, dst Addr, pdu []byte) error
}

// IndexedLower is another name for LowerService, kept for decorators
// compiled against it.
type IndexedLower = LowerService

// MultiSender is a name-addressed fan-out extension. No service
// implements it; fan-out rides LowerService.SendMultiIndexed. The
// declaration remains only for decorators that still name it.
type MultiSender interface {
	SendMulti(src Addr, dsts []Addr, pdu []byte) error
}

// attachByName implements LowerService.Attach over l's id plane.
func attachByName(l LowerService, addr Addr, r Receiver) error {
	if r == nil {
		return fmt.Errorf("protocol: nil receiver for %q", addr)
	}
	_, err := l.AttachIndexed(addr, func(src int32, pdu []byte) { r(l.EndpointAddr(src), pdu) })
	return err
}

// sendByName implements LowerService.Send over l's id plane.
func sendByName(l LowerService, src, dst Addr, pdu []byte) error {
	s, ok := l.EndpointID(src)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownEntity, src)
	}
	d, ok := l.EndpointID(dst)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownEntity, dst)
	}
	return l.SendIndexed(s, d, pdu)
}

// IncarnationProvider is an optional LowerService extension for churn:
// services whose endpoints can crash and restart report a per-endpoint
// incarnation number (1-based, bumped on every restart). ReliableDatagram
// uses it to stamp PDUs with endpoint incarnations so peers detect
// restarts and tear down stale flow state instead of ghost-acking it.
type IncarnationProvider interface {
	// IncarnationOf returns the current incarnation of the endpoint with
	// the given id (0 for unknown ids).
	IncarnationOf(id int32) uint32
}

// UnreliableDatagram adapts the simulated network directly: datagrams may
// be lost, duplicated or reordered according to the link configuration
// ("send and pray", §2). Its endpoint ids are exactly the network's node
// slots, so sends forward with no translation at all.
type UnreliableDatagram struct {
	net *network.Network

	attached []bool // network slot → attached through this service
}

var (
	_ LowerService        = (*UnreliableDatagram)(nil)
	_ IncarnationProvider = (*UnreliableDatagram)(nil)
)

// NewUnreliableDatagram wraps a simulated network as a lower service.
func NewUnreliableDatagram(net *network.Network) *UnreliableDatagram {
	return &UnreliableDatagram{net: net}
}

// Name implements LowerService.
func (u *UnreliableDatagram) Name() string { return "unreliable-datagram" }

// Attach implements LowerService.
func (u *UnreliableDatagram) Attach(addr Addr, r Receiver) error { return attachByName(u, addr, r) }

// AttachIndexed implements LowerService. The address is registered as
// a network node on first attach; the returned id is its network slot.
func (u *UnreliableDatagram) AttachIndexed(addr Addr, r IndexedReceiver) (int32, error) {
	if r == nil {
		return -1, fmt.Errorf("protocol: nil receiver for %q", addr)
	}
	h := network.SlotHandler(r)
	slot, err := u.net.Register(addr, h)
	if errors.Is(err, network.ErrDuplicateNode) {
		// Attached before, here or outside this service (or by a
		// previous wrapper): take its handler over.
		slot, _ = u.net.SlotOf(addr)
		err = u.net.SetSlotHandler(addr, h)
	}
	if err != nil {
		return -1, err
	}
	u.attach(slot)
	return slot, nil
}

// attach marks a network slot attached through this service.
func (u *UnreliableDatagram) attach(slot int32) {
	for int(slot) >= len(u.attached) {
		u.attached = append(u.attached, false)
	}
	u.attached[slot] = true
}

// EndpointID implements LowerService. The network resolves the name.
func (u *UnreliableDatagram) EndpointID(addr Addr) (int32, bool) {
	slot, ok := u.net.SlotOf(addr)
	if !ok || int(slot) >= len(u.attached) || !u.attached[slot] {
		return -1, false
	}
	return slot, true
}

// EndpointAddr implements LowerService.
func (u *UnreliableDatagram) EndpointAddr(id int32) Addr {
	return u.net.IDOf(id)
}

// IncarnationOf implements IncarnationProvider: this service's ids are
// exactly the network's node slots, so the incarnation is the
// network node's.
func (u *UnreliableDatagram) IncarnationOf(id int32) uint32 {
	return u.net.IncarnationOfSlot(id)
}

// Send implements LowerService.
func (u *UnreliableDatagram) Send(src, dst Addr, pdu []byte) error {
	return sendByName(u, src, dst, pdu)
}

// SendIndexed implements LowerService on the network's slot plane.
func (u *UnreliableDatagram) SendIndexed(src, dst int32, pdu []byte) error {
	return u.net.SendSlot(src, dst, pdu)
}

// SendMultiIndexed implements LowerService on the network's slot batch
// path.
func (u *UnreliableDatagram) SendMultiIndexed(src int32, dsts []int32, pdu []byte) error {
	return u.net.SendMultiSlot(src, dsts, pdu)
}
