//go:build race

package daemon

// raceEnabled reports that this test binary carries the race detector,
// whose instrumentation allocates: the allocation pins skip under it.
const raceEnabled = true
