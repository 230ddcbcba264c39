//go:build race

package protocol

// raceEnabled reports a -race build, whose runtime drops sync.Pool items
// at random and so makes allocation counts nondeterministic.
const raceEnabled = true
