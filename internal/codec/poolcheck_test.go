//go:build poolcheck

package codec

import "testing"

// TestPoolcheckPoisonsRetainedAlias pins the poolcheck build: a slice
// kept past Release reads the poison byte, and a second Release before
// the next Get panics.
func TestPoolcheckPoisonsRetainedAlias(t *testing.T) {
	var l BufferList
	buf := l.Get()
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

// TestPoolcheckRearmsOnGet pins that a buffer taken from its list again
// may be released again.
func TestPoolcheckRearmsOnGet(t *testing.T) {
	var l BufferList
	b := l.Get()
	b.Release()
	if l.Get() != b {
		t.Fatal("Get after Release returned a different buffer")
	}
	b.Release() // must not panic
}
