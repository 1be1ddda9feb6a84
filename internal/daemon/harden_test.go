package daemon

import (
	"errors"
	"testing"
	"time"

	"atcsched/internal/core"
	"atcsched/internal/fault"
	"atcsched/internal/sim"
	"atcsched/internal/workload"
)

// scriptedActuator fails according to a per-call script (call n consults
// script[n-1]; calls past the script succeed) and otherwise records like
// MapActuator. It serves a 1-shard fleet, whose single applier makes
// every call.
type scriptedActuator struct {
	MapActuator
	script []error
	calls  int
}

func (a *scriptedActuator) ApplyNode(node int, slices map[int]sim.Time) error {
	a.calls++
	if a.calls <= len(a.script) && a.script[a.calls-1] != nil {
		return a.script[a.calls-1]
	}
	return a.MapActuator.ApplyNode(node, slices)
}

var errActuator = errors.New("hypervisor knob unavailable")

// noSleep drops backoff waits so failure tests run instantly.
func noSleep(time.Duration) {}

// TestFailedApplyCommitsNothing pins the state-drift fix: a period whose
// actuation never lands must leave the node's committed state — the
// last-applied map and the committed-period counter — exactly as it was, so the
// next period's Observe uses the slice actually in force rather than one
// that never took effect.
func TestFailedApplyCommitsNothing(t *testing.T) {
	var periods [][]VMSample
	for i := 0; i < 7; i++ { // rising latency: the controller keeps shortening
		periods = append(periods, []VMSample{{ID: 1, AvgSpinLatency: ms(float64(i + 1)), Parallel: true}})
	}
	act := &scriptedActuator{script: []error{errActuator}}
	f := sliceFleet(t, periods, act, Options{MaxRetries: -1, GiveUpAfter: 10, Sleep: noSleep})

	if err := f.Step(); err != nil {
		t.Fatalf("dropped period must not be terminal: %v", err)
	}
	if last := f.LastSlices(0); len(last) != 0 {
		t.Errorf("last-applied map committed after failed Apply: %v", last)
	}
	if f.Decisions() != 0 {
		t.Errorf("decisions = %d after failed Apply, want 0", f.Decisions())
	}
	if f.Stats().DroppedPeriods != 1 {
		t.Errorf("dropped = %d, want 1", f.Stats().DroppedPeriods)
	}

	// Subsequent periods actuate. The committed record must track what
	// the actuator really applied at every step — the drift the fix
	// removes is exactly a divergence between these two.
	for i := 0; i < 6; i++ {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
		if got, want := f.LastSlices(0)[1], act.Last[0][1]; got != want {
			t.Fatalf("period %d: committed %v differs from actuated %v", i+2, got, want)
		}
	}
	if tbl := f.Table(); len(tbl) != 1 || tbl[0].Periods != 6 {
		t.Errorf("table = %+v, want node 0 at 6 committed periods (the dropped one must not count)", tbl)
	}
	def := core.DefaultConfig().Default
	if got := f.LastSlices(0)[1]; got >= def {
		t.Errorf("sustained contention left slice at %v, want shortened below %v", got, def)
	}
}

// TestRetryBackoffDoubles pins the retry policy: each re-attempt waits
// twice the previous backoff, and a period that eventually lands commits
// normally.
func TestRetryBackoffDoubles(t *testing.T) {
	periods := [][]VMSample{
		{{ID: 1, AvgSpinLatency: ms(1), Parallel: true}},
	}
	act := &scriptedActuator{script: []error{errActuator, errActuator}}
	var waits []time.Duration
	f := sliceFleet(t, periods, act, Options{
		MaxRetries:   3,
		RetryBackoff: 10 * time.Millisecond,
		Sleep:        func(dt time.Duration) { waits = append(waits, dt) },
	})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(waits) != len(want) || waits[0] != want[0] || waits[1] != want[1] {
		t.Errorf("backoffs = %v, want %v", waits, want)
	}
	if f.Stats().Retries != 2 {
		t.Errorf("retries = %d, want 2", f.Stats().Retries)
	}
	if f.Decisions() != 1 || f.Stats().DroppedPeriods != 0 {
		t.Errorf("decisions = %d dropped = %d, want 1/0", f.Decisions(), f.Stats().DroppedPeriods)
	}
}

// TestRunSurvivesTransientActuatorFailure pins the loop-level contract:
// retried and even fully dropped periods do not end Run; only the
// give-up threshold is terminal.
func TestRunSurvivesTransientActuatorFailure(t *testing.T) {
	var periods [][]VMSample
	for i := 0; i < 6; i++ {
		periods = append(periods, []VMSample{{ID: 1, AvgSpinLatency: ms(2), Parallel: true}})
	}
	// Period 2's first attempt fails (retry lands it); period 4 fails both
	// attempts and drops.
	act := &scriptedActuator{script: []error{
		nil,              // period 1
		errActuator, nil, // period 2: fail, retry ok
		nil,                      // period 3
		errActuator, errActuator, // period 4: dropped
		nil, // period 5
	}}
	f := sliceFleet(t, periods, act, Options{
		MaxRetries: 1, RetryBackoff: time.Millisecond, GiveUpAfter: 3, Sleep: noSleep})
	if err := f.Run(); err != nil {
		t.Fatalf("Run must absorb transient failures: %v", err)
	}
	if f.Decisions() != 5 {
		t.Errorf("decisions = %d, want 5 (one of six dropped)", f.Decisions())
	}
	st := f.Stats()
	if st.Retries != 2 || st.DroppedPeriods != 1 {
		t.Errorf("retries = %d dropped = %d, want 2/1", st.Retries, st.DroppedPeriods)
	}
}

// TestGiveUpAfterConsecutiveDrops pins the terminal path: persistent
// actuation failure eventually surfaces as an error instead of spinning
// forever, and a success in between resets the counter.
func TestGiveUpAfterConsecutiveDrops(t *testing.T) {
	var periods [][]VMSample
	for i := 0; i < 10; i++ {
		periods = append(periods, []VMSample{{ID: 1, Parallel: true}})
	}
	// One drop, one success (resets the run), then drops until give-up.
	act := &scriptedActuator{script: []error{
		errActuator, nil, errActuator, errActuator, errActuator,
	}}
	f := sliceFleet(t, periods, act, Options{MaxRetries: -1, GiveUpAfter: 2, Sleep: noSleep})
	err := f.Run()
	if err == nil {
		t.Fatal("Run returned nil despite give-up threshold")
	}
	if !errors.Is(err, errActuator) {
		t.Errorf("terminal error %v does not wrap the actuator error", err)
	}
	if f.Stats().DroppedPeriods != 3 {
		t.Errorf("dropped = %d, want 3 (1 reset + 2 consecutive)", f.Stats().DroppedPeriods)
	}
	if f.Decisions() != 1 {
		t.Errorf("decisions = %d, want 1", f.Decisions())
	}
}

// TestStaleSamplesSkippedThenDegraded pins the blackout policy: a
// repeated sequence number is not fed to the controller; the last slice
// holds for StaleAfter-1 periods and then walks back toward the default.
func TestStaleSamplesSkippedThenDegraded(t *testing.T) {
	var periods [][]VMSample
	seq := uint64(0)
	for i := 0; i < 6; i++ { // rising contention: slice walks down
		seq++
		periods = append(periods, []VMSample{
			{ID: 1, AvgSpinLatency: ms(float64(i + 1)), Parallel: true, Seq: seq}})
	}
	for i := 0; i < 8; i++ { // monitor wedged: same seq repeated
		periods = append(periods, []VMSample{
			{ID: 1, AvgSpinLatency: ms(6), Parallel: true, Seq: seq}})
	}
	act := &scriptedActuator{}
	f := sliceFleet(t, periods, act, Options{StaleAfter: 2})

	// Drive the contention phase and note the shortened slice.
	for i := 0; i < 6; i++ {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	short := act.Last[0][1]
	def := core.DefaultConfig().Default
	if short >= def {
		t.Fatalf("contention phase did not shorten the slice (%v)", short)
	}

	// First stale period: hold.
	if err := f.Step(); err != nil {
		t.Fatal(err)
	}
	if act.Last[0][1] != short {
		t.Errorf("first stale period moved the slice: %v -> %v", short, act.Last[0][1])
	}
	// Further stale periods: degrade toward the default, never past it.
	prev := act.Last[0][1]
	for i := 0; i < 7; i++ {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
		if act.Last[0][1] < prev || act.Last[0][1] > def {
			t.Fatalf("degradation not monotone toward default: %v -> %v", prev, act.Last[0][1])
		}
		prev = act.Last[0][1]
	}
	if act.Last[0][1] != def {
		t.Errorf("slice = %v after long blackout, want default %v", act.Last[0][1], def)
	}
	st := f.Stats()
	if st.StaleSamples != 8 {
		t.Errorf("stale samples = %d, want 8", st.StaleSamples)
	}
	if st.Degraded == 0 {
		t.Error("no degradation recorded")
	}
}

// TestDropoutDegrades pins the other blackout face: a known VM missing
// from the sample set entirely is still actuated, held first and then
// degraded.
func TestDropoutDegrades(t *testing.T) {
	periods := [][]VMSample{
		{{ID: 1, AvgSpinLatency: ms(5), Parallel: true, Seq: 1},
			{ID: 2, Parallel: false, AdminSlice: ms(6), Seq: 1}},
	}
	for i := 0; i < 6; i++ { // both VMs vanish from the monitor
		periods = append(periods, []VMSample{})
	}
	act := &scriptedActuator{}
	f := sliceFleet(t, periods, act, Options{StaleAfter: 2})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	def := core.DefaultConfig().Default
	if act.Last[0][1] != def {
		t.Errorf("parallel dropout slice = %v, want degraded to default %v", act.Last[0][1], def)
	}
	if act.Last[0][2] != ms(6) {
		t.Errorf("non-parallel dropout slice = %v, want admin 6ms", act.Last[0][2])
	}
	if f.Decisions() != 7 {
		t.Errorf("decisions = %d, want 7", f.Decisions())
	}
}

// TestClosedLoopRidesOutInjectedFaults drives the full fleet against
// the sim backend with a fault plan injecting actuation failures and
// monitor dropouts: the hardened loop must retry through the failures,
// skip the blacked-out samples, and still finish its period budget.
func TestClosedLoopRidesOutInjectedFaults(t *testing.T) {
	b, err := NewSimBackend(SimBackendConfig{
		Nodes:      2,
		VCPUsPerVM: 4,
		Clusters:   2,
		Kernel:     "lu",
		Class:      workload.ClassA,
		MaxPeriods: 100,
		Seed:       3,
		Faults: &fault.Spec{Windows: []fault.Window{
			{Kind: fault.ActuatorFail, StartSec: 0.5, DurSec: 1, Severity: 0.4},
			{Kind: fault.MonitorDrop, StartSec: 0.5, DurSec: 1, Severity: 0.5},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFleet(core.DefaultConfig(), b, b, FleetOptions{Node: Options{
		MaxRetries: 3, RetryBackoff: time.Millisecond, GiveUpAfter: 50, Sleep: noSleep}})
	defer f.Close()
	if err := f.Run(); !IsDone(err) {
		t.Fatalf("fleet ended with %v, want clean period-budget end", err)
	}
	rep := b.FaultReport()
	if rep.ActuationsFailed == 0 {
		t.Error("no actuation failures injected — plan not live on Apply")
	}
	if rep.SamplesDropped == 0 {
		t.Error("no monitor dropouts injected — plan not live on Sample")
	}
	if f.Stats().Retries == 0 {
		t.Error("injected actuation failures never triggered a retry")
	}
	if f.Periods() != 100 {
		t.Errorf("fleet periods = %d, want the 100-period budget", f.Periods())
	}
	// Every node decides in every period, dropouts included: each
	// node-period either landed or was dropped.
	if want := uint64(2 * 100); f.Decisions() == 0 || f.Decisions()+f.Stats().DroppedPeriods != want {
		t.Errorf("decisions=%d dropped=%d, want their sum to be the %d node-periods",
			f.Decisions(), f.Stats().DroppedPeriods, want)
	}
	if errs := b.World.Audit(); len(errs) > 0 {
		t.Fatalf("audit under faults: %v", errs[0])
	}
}

// TestSeqZeroKeepsLegacyBehaviour pins backward compatibility: sources
// that do not track sequence numbers are never treated as stale.
func TestSeqZeroKeepsLegacyBehaviour(t *testing.T) {
	var periods [][]VMSample
	for i := 0; i < 5; i++ {
		periods = append(periods, []VMSample{{ID: 1, AvgSpinLatency: ms(1), Parallel: true}})
	}
	act := &scriptedActuator{}
	f := sliceFleet(t, periods, act, Options{})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.StaleSamples != 0 || st.Degraded != 0 {
		t.Errorf("legacy source tripped fault handling: %+v", st)
	}
	if f.Decisions() != 5 {
		t.Errorf("decisions = %d, want 5", f.Decisions())
	}
}

// TestZeroFleetOptionsRetry pins the option defaults: a fleet built
// with zero FleetOptions takes DefaultOptions per node, so one failed
// actuation is retried and committed instead of giving up on the spot.
func TestZeroFleetOptionsRetry(t *testing.T) {
	periods := [][]VMSample{
		{{ID: 1, AvgSpinLatency: ms(2), Parallel: true}},
		{{ID: 1, AvgSpinLatency: ms(2), Parallel: true}},
	}
	act := &scriptedActuator{script: []error{errActuator}}
	f := NewFleet(core.DefaultConfig(), &SliceSource{Periods: periods}, act, FleetOptions{})
	defer f.Close()
	if err := f.Run(); err != nil {
		t.Fatalf("one failed actuation ended the run: %v", err)
	}
	if f.Decisions() != 2 {
		t.Errorf("decisions = %d, want 2 (the failed attempt retried and landed)", f.Decisions())
	}
	if st := f.Stats(); st.Retries != 1 || st.DroppedPeriods != 0 {
		t.Errorf("retries = %d dropped = %d, want 1/0", st.Retries, st.DroppedPeriods)
	}
}

// TestSimDropoutDegradesToDefault pins the blackout guarantee on the
// sim backend: when every VM of a node drops out, the node still gets
// a (empty) batch each period, so its loop degrades the short parallel
// slice back toward the default instead of pinning it for the whole
// blackout.
func TestSimDropoutDegradesToDefault(t *testing.T) {
	b, err := NewSimBackend(SimBackendConfig{
		Nodes:      2,
		VCPUsPerVM: 8,
		Clusters:   1,
		Kernel:     "lu",
		Class:      workload.ClassA,
		MaxPeriods: 100,
		Seed:       3,
		Faults: &fault.Spec{Windows: []fault.Window{
			{Kind: fault.MonitorDrop, StartSec: 1.5, DurSec: 1.5},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFleet(core.DefaultConfig(), b, b, FleetOptions{})
	defer f.Close()
	step := func(n int) {
		for i := 0; i < n; i++ {
			if err := f.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	vm := b.World.Node(0).VMs()[0].ID()
	def := core.DefaultConfig().Default
	step(50) // 1.5 s: the controller has shortened the slice
	before := f.LastSlices(0)[vm]
	if before >= def {
		t.Fatalf("slice before the blackout = %v, want shorter than the %v default", before, def)
	}
	step(49) // inside the blackout
	if st := f.Stats(); st.Degraded == 0 {
		t.Errorf("no degradation during a full monitor blackout: %+v", st)
	}
	if got := f.LastSlices(0)[vm]; got != def {
		t.Errorf("slice after a 1.5 s blackout = %v (was %v), want it walked back to the %v default", got, before, def)
	}
}
