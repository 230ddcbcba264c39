//go:build !race

package floorcontrol

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
