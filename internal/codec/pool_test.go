package codec

import "testing"

// TestBufferListWarmGetReleaseAllocatesNothing pins the steady state: a
// Get/fill/Release cycle on a warm list allocates nothing.
func TestBufferListWarmGetReleaseAllocatesNothing(t *testing.T) {
	var l BufferList
	warm := l.Get()
	warm.B = append(warm.B[:0], make([]byte, 128)...)
	warm.Release()
	allocs := testing.AllocsPerRun(100, func() {
		buf := l.Get()
		buf.B = append(buf.B[:0], "payload"...)
		buf.Release()
	})
	if allocs != 0 {
		t.Fatalf("warm Get/Release allocates %v times per run, want 0", allocs)
	}
}

// TestBufferListReusesReleased pins that Get hands back the buffer
// released last, with its capacity, and that a new buffer starts with
// none.
func TestBufferListReusesReleased(t *testing.T) {
	var l BufferList
	a := l.Get()
	if cap(a.B) != 0 {
		t.Fatalf("new buffer has capacity %d, want 0 (its first append sizes it)", cap(a.B))
	}
	a.B = append(a.B[:0], "sized by use"...)
	size := cap(a.B)
	a.Release()
	b := l.Get()
	if b != a {
		t.Fatal("Get after Release returned a different buffer")
	}
	if len(b.B) != 0 || cap(b.B) != size {
		t.Fatalf("reused buffer has len %d cap %d, want len 0 cap %d", len(b.B), cap(b.B), size)
	}
	b.Release()
}

// TestBufferListDropsOversized pins that a buffer grown past
// maxPooledCap is not kept on Release.
func TestBufferListDropsOversized(t *testing.T) {
	var l BufferList
	big := l.Get()
	big.B = append(big.B[:0], make([]byte, maxPooledCap+1)...)
	big.Release()
	if n := len(l.free); n != 0 {
		t.Fatalf("list keeps %d buffers after releasing an oversized one, want 0", n)
	}
	if b := l.Get(); b == big {
		t.Fatal("Get returned the oversized buffer")
	}
}

// TestBufferListsNeverExchange pins that a buffer returns to the list it
// came from: releasing one list's buffer never stocks another list.
func TestBufferListsNeverExchange(t *testing.T) {
	var l1, l2 BufferList
	a := l1.Get()
	a.Release()
	b := l2.Get()
	if b == a {
		t.Fatal("l2.Get returned a buffer released to l1")
	}
	b.Release()
	if got := l1.Get(); got != a {
		t.Fatal("l1.Get did not return l1's own released buffer")
	}
	if got := l2.Get(); got != b {
		t.Fatal("l2.Get did not return l2's own released buffer")
	}
}
