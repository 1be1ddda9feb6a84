//go:build !race

package credit_test

// raceEnabled reports that this test binary carries the race detector.
const raceEnabled = false
