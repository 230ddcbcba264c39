// Package codec is a type stub for the poolalias golden tests: the
// free-listed Buffer with its Release contract and the borrowing MsgView
// and Slots accessors, signature-compatible with the real package. It
// is also golden test data for the simdeterminism sync check: codec is
// a deterministic package, so a sync import is reported.
package codec

import "sync" // want `sync: sync imported in deterministic package repro/internal/codec`

// shared is the process-wide cache the sync check keeps out of codec:
// buffers belong to the kernel that owns their BufferList.
var shared sync.Pool

// Buffer is a recycled byte buffer.
type Buffer struct{ B []byte }

// BufferList is a free list of buffers.
type BufferList struct{ free []*Buffer }

// Get takes a buffer from the list.
func (l *BufferList) Get() *Buffer { return &Buffer{} }

// Release returns the buffer to its list.
func (b *Buffer) Release() {}

// MsgView is a zero-copy view over an encoded message.
type MsgView struct{ raw []byte }

// Name returns the message name, aliasing the input buffer.
func (v *MsgView) Name() []byte { return v.raw }

// Slot is the index of one field of a schema.
type Slot uint8

// Slots is a record parsed against a schema, read by slot.
type Slots struct{ v MsgView }

// StrAt returns a string field's bytes, aliasing the input buffer.
func (s *Slots) StrAt(i Slot) ([]byte, bool) { return s.v.raw, true }

// BytesAt returns a bytes field, aliasing the input buffer.
func (s *Slots) BytesAt(i Slot) ([]byte, bool) { return s.v.raw, true }

// RawAt returns the field's raw encoding, aliasing the input buffer.
func (s *Slots) RawAt(i Slot) ([]byte, bool) { return s.v.raw, true }

// StringsAt copies a list of strings out of the input buffer.
func (s *Slots) StringsAt(i Slot, dst []string) ([]string, bool) { return dst, true }
