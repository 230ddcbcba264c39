//go:build !race

package protocol

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
