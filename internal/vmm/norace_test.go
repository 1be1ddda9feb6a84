//go:build !race

package vmm_test

// raceEnabled reports that this test binary carries the race detector.
const raceEnabled = false
