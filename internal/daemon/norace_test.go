//go:build !race

package daemon

// raceEnabled reports that this test binary carries the race detector.
const raceEnabled = false
