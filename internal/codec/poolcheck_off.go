//go:build !poolcheck

package codec

// poolcheck is off: Buffer carries no check state (see poolcheck_on.go).
const poolcheck = false

type poolState struct{}

func (*Buffer) checkGet()     {}
func (*Buffer) checkRelease() {}
