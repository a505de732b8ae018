//go:build race

package tracestore

// raceEnabled reports a race-detector build. sync.Pool drops items at
// random under the detector, so a scan or a write then allocates the
// decompressors or compressors that a normal build takes from the pool,
// and allocation bounds do not hold.
const raceEnabled = true
