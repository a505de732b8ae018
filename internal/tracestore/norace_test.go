//go:build !race

package tracestore

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
