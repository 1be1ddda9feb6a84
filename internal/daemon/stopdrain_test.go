package daemon

import (
	"testing"
	"time"

	"atcsched/internal/sim"
)

// stopRacingActuator fails its first Apply after asking the fleet to
// stop — the exact shape of a shutdown signal racing an actuation retry.
type stopRacingActuator struct {
	MapActuator
	f      *Fleet
	failed bool
}

func (a *stopRacingActuator) ApplyNode(node int, slices map[int]sim.Time) error {
	if !a.failed {
		a.failed = true
		a.f.Stop()
		return errActuator
	}
	return a.MapActuator.ApplyNode(node, slices)
}

// TestStopDrainsInFlightActuation pins the stop-path bugfix: a Stop
// arriving while a period is mid-retry must (a) cut the backoff wait
// short instead of sleeping it out, and (b) still run the remaining
// retry attempts so the final Apply lands. The 30 s backoff makes a
// regression unmissable — the old stop path would sleep the full
// backoff before draining.
func TestStopDrainsInFlightActuation(t *testing.T) {
	periods := [][]VMSample{
		{{ID: 1, AvgSpinLatency: 2 * sim.Millisecond, Parallel: true}},
		{{ID: 1, AvgSpinLatency: 2 * sim.Millisecond, Parallel: true}},
	}
	act := &stopRacingActuator{}
	f := sliceFleet(t, periods, act, Options{MaxRetries: 1, RetryBackoff: 30 * time.Second})
	act.f = f

	start := time.Now()
	err := f.Run()
	elapsed := time.Since(start)

	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("Run took %v; stop did not cut the 30s backoff short", elapsed)
	}
	if f.Decisions() != 1 {
		t.Fatalf("Decisions = %d, want 1 (the in-flight period must drain, the next must not start)", f.Decisions())
	}
	if len(act.Last[0]) == 0 {
		t.Fatal("final Apply was dropped on stop; no slices landed")
	}
	if got := f.Stats().Retries; got != 1 {
		t.Errorf("Retries = %d, want 1", got)
	}
	if got := f.Stats().DroppedPeriods; got != 0 {
		t.Errorf("DroppedPeriods = %d, want 0 — the stop path dropped the period", got)
	}
}
