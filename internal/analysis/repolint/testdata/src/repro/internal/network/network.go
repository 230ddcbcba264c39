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

// Slot is a dense node index: an alias, as in the real package.
type Slot = int32

// SlotHandler receives a datagram; payload aliases a pooled buffer.
type SlotHandler func(src Slot, payload []byte)
