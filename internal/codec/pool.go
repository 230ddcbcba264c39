package codec

import "sync"

// Buffer is a pooled scratch buffer for encoding and for carrying wire
// bytes through a delivery pipeline. The data plane (network delivery,
// middleware fan-out, reliability PDUs) threads Buffers through a
// publish→deliver→decode cycle so the steady state allocates nothing.
//
// Usage:
//
//	buf := codec.GetBuffer()
//	buf.B = append(buf.B[:0], ...)   // or hand buf.B[:0] to an Encoder
//	...
//	buf.Release()
//
// After Release the buffer (and any slice aliasing buf.B) must not be
// touched: it will be handed to an unrelated caller. Built with
// -tags poolcheck, Release poisons the released bytes and panics on a
// second Release before the next GetBuffer.
type Buffer struct {
	check poolState // zero-size unless built with -tags poolcheck
	B     []byte
}

// maxPooledCap bounds the capacity of buffers returned to the pool, so a
// single oversized message does not pin a large allocation forever.
const maxPooledCap = 64 << 10

var bufferPool = sync.Pool{
	New: func() any { return &Buffer{B: make([]byte, 0, 512)} },
}

// GetBuffer takes a scratch buffer from the pool. The returned buffer has
// unspecified length and at least some capacity; callers should start
// from buf.B[:0].
func GetBuffer() *Buffer {
	b := bufferPool.Get().(*Buffer)
	if poolcheck {
		b.checkGet()
	}
	return b
}

// Release returns the buffer to the pool. Oversized buffers are dropped
// rather than pooled.
func (b *Buffer) Release() {
	if poolcheck {
		b.checkRelease()
	}
	if b == nil || cap(b.B) > maxPooledCap {
		return
	}
	b.B = b.B[:0]
	bufferPool.Put(b)
}
