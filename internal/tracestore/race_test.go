//go:build race

package tracestore

// raceEnabled reports a race-detector build. sync.Pool drops items at
// random under the detector, so a scan then allocates decompressors that
// a normal build takes from the pool, and allocation bounds do not hold.
const raceEnabled = true
