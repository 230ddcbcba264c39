//go:build poolcheck

package codec

const poolcheck = true

// poisonByte overwrites every released buffer byte in poolcheck builds.
const poisonByte = 0xDB

// poolState is a Buffer's pool-misuse state in poolcheck builds.
type poolState struct{ released bool }

func (b *Buffer) checkGet() { b.check.released = false }

// checkRelease panics on a second Release and poisons the whole capacity.
func (b *Buffer) checkRelease() {
	if b == nil {
		return
	}
	if b.check.released {
		panic("codec: Buffer released twice")
	}
	b.check.released = true
	full := b.B[:cap(b.B)]
	for i := range full {
		full[i] = poisonByte
	}
}
