// Package network is a type stub for the poolalias golden tests: it
// declares just the names the analyzer matches structurally. It is also
// golden test data for the simdeterminism sync check: a deterministic
// package may not synchronize, so its sync import is reported.
package network

import "sync" // want `sync: sync imported in deterministic package repro/internal/network`

// guarded is the construct the sync check exists to keep out of the
// simulated layers.
type guarded struct {
	mu sync.Mutex
	n  int
}

// NodeID identifies a node.
type NodeID string

// Slot is a dense node index.
type Slot int32

// Handler receives a datagram; payload aliases a pooled buffer.
type Handler func(src NodeID, payload []byte)

// SlotHandler is the dense-plane variant of Handler.
type SlotHandler func(src Slot, payload []byte)
