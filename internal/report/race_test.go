//go:build race

package report

// raceEnabled reports a race-detector build. sync.Pool drops items at
// random under the detector, so a fleet call then builds the stacks a
// normal build takes from the pool, and allocation bounds do not hold.
const raceEnabled = true
