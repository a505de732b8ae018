//go:build !race

package report

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
