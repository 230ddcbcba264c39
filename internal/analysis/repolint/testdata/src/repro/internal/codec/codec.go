// Package codec is a type stub for the poolalias golden tests: the
// pooled Buffer with its Release contract and the borrowing MsgView
// accessors, signature-compatible with the real package.
package codec

// Buffer is a pooled byte buffer.
type Buffer struct{ B []byte }

// GetBuffer acquires a buffer from the pool.
func GetBuffer() *Buffer { return &Buffer{} }

// Release returns the buffer to the pool.
func (b *Buffer) Release() {}

// MsgView is a zero-copy view over an encoded message.
type MsgView struct{ raw []byte }

// Name returns the message name, aliasing the input buffer.
func (v *MsgView) Name() []byte { return v.raw }

// Str returns a string field's bytes, aliasing the input buffer.
func (v *MsgView) Str(field string) ([]byte, bool) { return v.raw, true }

// Bytes returns a bytes field, aliasing the input buffer.
func (v *MsgView) Bytes(field string) ([]byte, bool) { return v.raw, true }

// Raw returns the field's raw encoding, aliasing the input buffer.
func (v *MsgView) Raw(field string) ([]byte, bool) { return v.raw, true }
