package codec

// Buffer is a recycled scratch buffer for encoding and for carrying wire
// bytes through a delivery pipeline. The data plane (network delivery,
// middleware fan-out, reliability PDUs) threads Buffers through a
// publish→deliver→decode cycle so the steady state allocates nothing.
//
// Every Buffer comes from a BufferList, and each simulation kernel owns
// one (sim.Kernel.Buffers). A layer takes its buffers from the kernel
// it runs on:
//
//	buf := kern.Buffers().Get()
//	buf.B = append(buf.B[:0], ...)   // or hand buf.B[:0] to an Encoder
//	...
//	buf.Release()
//
// After Release the buffer (and any slice aliasing buf.B) must not be
// touched: it will be handed to an unrelated caller. Built with
// -tags poolcheck, Release poisons the released bytes and panics on a
// second Release before the next Get.
type Buffer struct {
	check poolState // zero-size unless built with -tags poolcheck
	B     []byte
	list  *BufferList // the list Release returns the buffer to
}

// maxPooledCap bounds the capacity of buffers returned to a list, so a
// single oversized message does not pin a large allocation forever.
const maxPooledCap = 64 << 10

// BufferList is a free list of Buffers. It belongs to the goroutine
// that owns it (a kernel's, see sim.Kernel.Buffers) and takes no lock.
// The zero value is an empty list ready to use.
type BufferList struct {
	free []*Buffer
}

// Get takes the most recently released buffer from the list, or a new
// one if the list is empty. A new buffer has no capacity: its first
// append sizes it. Callers should start from buf.B[:0].
func (l *BufferList) Get() *Buffer {
	var b *Buffer
	if n := len(l.free); n > 0 {
		b = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
	} else {
		b = &Buffer{list: l}
	}
	if poolcheck {
		b.checkGet()
	}
	return b
}

// Release returns the buffer to the list it came from. Oversized
// buffers are dropped rather than kept.
func (b *Buffer) Release() {
	if poolcheck {
		b.checkRelease()
	}
	if b == nil || b.list == nil || cap(b.B) > maxPooledCap {
		return
	}
	b.B = b.B[:0]
	b.list.free = append(b.list.free, b)
}
