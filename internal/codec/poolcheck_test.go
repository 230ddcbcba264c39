//go:build poolcheck

package codec

import "testing"

// TestPoolcheckPoisonsRetainedAlias pins the poolcheck build: a slice
// kept past Release reads the poison byte, and a second Release before
// the next GetBuffer panics.
func TestPoolcheckPoisonsRetainedAlias(t *testing.T) {
	buf := GetBuffer()
	buf.B = append(buf.B[:0], "retained"...)
	alias := buf.B
	buf.Release()
	for i, c := range alias {
		if c != poisonByte {
			t.Fatalf("alias[%d] = %#x after Release, want poison %#x", i, c, poisonByte)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	buf.Release()
}

// TestPoolcheckRearmsOnGet pins that a buffer taken from the pool again
// may be released again. The buffer is oversized, so Release never
// pools it and the test cannot leak it into the shared pool.
func TestPoolcheckRearmsOnGet(t *testing.T) {
	b := &Buffer{B: make([]byte, 0, maxPooledCap+1)}
	b.Release()
	b.checkGet()
	b.Release() // must not panic
}
