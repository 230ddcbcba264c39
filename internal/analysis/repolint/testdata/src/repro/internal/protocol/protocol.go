// Package protocol is a type stub for the poolalias golden tests. Its
// types are declared as in the real package: Addr is an alias.
package protocol

import "repro/internal/network"

// Addr addresses a protocol endpoint.
type Addr = network.NodeID

// Receiver receives a PDU; pdu aliases a pooled buffer.
type Receiver func(src Addr, pdu []byte)

// IndexedReceiver is the id-addressed Receiver.
type IndexedReceiver func(src int32, pdu []byte)
