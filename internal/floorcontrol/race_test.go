//go:build race

package floorcontrol

// raceEnabled reports a -race build, whose instrumented runtime makes
// allocation counts differ from a normal build's.
const raceEnabled = true
