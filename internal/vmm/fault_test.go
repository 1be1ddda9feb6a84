package vmm

import (
	"testing"

	"atcsched/internal/sim"
)

// TestSlowdownStretchesCompute pins the straggler hook's timing: a 4×
// factor makes a compute segment take 4× the wall time while the cache
// and burn accounting still see the unstretched work.
func TestSlowdownStretchesCompute(t *testing.T) {
	w := testWorld(t, 1, 1, 30*sim.Millisecond)
	w.SetSlowdown(func(node int, now sim.Time) float64 { return 4 })
	vm := w.Node(0).NewVM("vm0", ClassParallel, 1, 0, 1)
	v := vm.VCPU(0)
	var doneAt sim.Time
	v.SetProcess(&seqProc{actions: []Action{
		{Kind: ActCompute, Work: 5 * sim.Millisecond, Then: func() { doneAt = w.Node(0).Engine().Now() }},
	}}, nil)
	w.Start()
	w.RunUntil(sim.Second)
	// 5 ms of warm-speed work at a 4× straggler factor: ~20 ms of wall
	// time (plus a few µs of dispatch overhead).
	if doneAt < 20*sim.Millisecond || doneAt > 20*sim.Millisecond+100*sim.Microsecond {
		t.Errorf("slowed compute finished at %v, want ~20ms", doneAt)
	}
	if v.Rounds() != 1 || v.State() != StateIdle {
		t.Errorf("rounds=%d state=%v", v.Rounds(), v.State())
	}
}

// TestSlowdownWindowEnds pins that segments dispatched after the window
// closes run at full speed again.
func TestSlowdownWindowEnds(t *testing.T) {
	w := testWorld(t, 1, 1, 30*sim.Millisecond)
	end := 100 * sim.Millisecond
	w.SetSlowdown(func(node int, now sim.Time) float64 {
		if now < end {
			return 4
		}
		return 1
	})
	vm := w.Node(0).NewVM("vm0", ClassParallel, 1, 0, 1)
	v := vm.VCPU(0)
	var slowDone, fastDone sim.Time
	v.SetProcess(&seqProc{actions: []Action{
		{Kind: ActCompute, Work: 10 * sim.Millisecond, Then: func() { slowDone = w.Node(0).Engine().Now() }},
		Sleep(60 * sim.Millisecond), // idle past the window's end
		{Kind: ActCompute, Work: 10 * sim.Millisecond, Then: func() { fastDone = w.Node(0).Engine().Now() }},
	}}, nil)
	w.Start()
	w.RunUntil(sim.Second)
	// First segment: 10 ms at 4× — but preempted each 30 ms slice, so it
	// completes after ~40 ms of stretched wall time.
	if slowDone < 40*sim.Millisecond || slowDone > 41*sim.Millisecond {
		t.Errorf("slowed segment finished at %v, want ~40ms", slowDone)
	}
	// Second segment dispatches after 100 ms: full speed, ~10 ms.
	wall := fastDone - slowDone - 60*sim.Millisecond
	if wall < 10*sim.Millisecond || wall > 11*sim.Millisecond {
		t.Errorf("post-window segment took %v, want ~10ms", wall)
	}
}

// TestSlowFactorIgnoresInvalidValues pins the hook's contract: factors
// at or below 1 mean full speed.
func TestSlowFactorIgnoresInvalidValues(t *testing.T) {
	w := testWorld(t, 1, 1, 30*sim.Millisecond)
	w.SetSlowdown(func(node int, now sim.Time) float64 { return 0.25 })
	n := w.Node(0)
	if f := n.slowFactor(0); f != 1 {
		t.Errorf("slowFactor(<1) = %v, want clamped to 1", f)
	}
	w.SetSlowdown(nil)
	if f := n.slowFactor(0); f != 1 {
		t.Errorf("slowFactor(nil hook) = %v, want 1", f)
	}
}

// TestStretchSaturates pins the overflow guard: a freeze-scale factor on
// a long segment must saturate instead of wrapping negative.
func TestStretchSaturates(t *testing.T) {
	got := stretch(sim.FromSeconds(3600), 1e6)
	if got <= 0 {
		t.Fatalf("stretch overflowed: %v", got)
	}
	if got != sim.Time(1e18) {
		t.Errorf("stretch = %v, want saturation at 1e18", got)
	}
	if dt := unstretch(sim.Millisecond, 4); dt != 250*sim.Microsecond {
		t.Errorf("unstretch(1ms, 4) = %v, want 250µs", dt)
	}
	if dt := unstretch(sim.Millisecond, 1); dt != sim.Millisecond {
		t.Errorf("unstretch(1ms, 1) = %v, want identity", dt)
	}
}

// TestMonitorTapVerdicts pins the tap semantics: drop yields no sample,
// stale re-serves the previous value and sequence, noise perturbs the
// reading, and a fresh read advances the sequence.
func TestMonitorTapVerdicts(t *testing.T) {
	w := testWorld(t, 1, 1, 30*sim.Millisecond)
	vm := w.Node(0).NewVM("vm0", ClassParallel, 1, 0, 1)
	var verdict MonitorVerdict
	w.SetMonitorTap(func(*VM) MonitorVerdict { return verdict })

	// Fresh sample.
	vm.SpinMon.Record(2 * sim.Millisecond)
	avg, seq, ok := vm.SampleSpinPeriod()
	if !ok || seq != 1 || avg != 2*sim.Millisecond {
		t.Fatalf("fresh: avg=%v seq=%d ok=%v", avg, seq, ok)
	}

	// Dropped sample: nothing, and the accumulator is still consumed.
	vm.SpinMon.Record(4 * sim.Millisecond)
	verdict = MonitorVerdict{Drop: true}
	if _, _, ok := vm.SampleSpinPeriod(); ok {
		t.Fatal("dropped sample reported ok")
	}

	// Stale sample: last remembered value and sequence again.
	verdict = MonitorVerdict{Stale: true}
	avg, seq, ok = vm.SampleSpinPeriod()
	if !ok || seq != 1 || avg != 2*sim.Millisecond {
		t.Fatalf("stale: avg=%v seq=%d ok=%v, want remembered 2ms seq 1", avg, seq, ok)
	}

	// Noisy sample: perturbed, sequence advances.
	vm.SpinMon.Record(sim.Millisecond)
	verdict = MonitorVerdict{Noise: 500 * sim.Microsecond}
	avg, seq, ok = vm.SampleSpinPeriod()
	if !ok || seq != 2 || avg != 1500*sim.Microsecond {
		t.Fatalf("noisy: avg=%v seq=%d ok=%v, want 1.5ms seq 2", avg, seq, ok)
	}

	// Negative noise clamps at zero.
	verdict = MonitorVerdict{Noise: -sim.Second}
	avg, seq, ok = vm.SampleSpinPeriod()
	if !ok || seq != 3 || avg != 0 {
		t.Fatalf("clamped: avg=%v seq=%d ok=%v, want 0 seq 3", avg, seq, ok)
	}
}

// TestMonitorTapStaleBeforeFirstSample pins the cold-start corner: a
// stale verdict with nothing remembered yields no sample rather than a
// fabricated zero.
func TestMonitorTapStaleBeforeFirstSample(t *testing.T) {
	w := testWorld(t, 1, 1, 30*sim.Millisecond)
	vm := w.Node(0).NewVM("vm0", ClassParallel, 1, 0, 1)
	w.SetMonitorTap(func(*VM) MonitorVerdict { return MonitorVerdict{Stale: true} })
	if _, _, ok := vm.SampleSpinPeriod(); ok {
		t.Error("stale-before-first-sample reported ok")
	}
}

// TestNoTapKeepsLegacyPath pins that without a tap the sample is the raw
// monitor reading with an advancing sequence.
func TestNoTapKeepsLegacyPath(t *testing.T) {
	w := testWorld(t, 1, 1, 30*sim.Millisecond)
	vm := w.Node(0).NewVM("vm0", ClassParallel, 1, 0, 1)
	for i := 1; i <= 3; i++ {
		vm.SpinMon.Record(sim.Millisecond)
		avg, seq, ok := vm.SampleSpinPeriod()
		if !ok || seq != uint64(i) || avg != sim.Millisecond {
			t.Fatalf("sample %d: avg=%v seq=%d ok=%v", i, avg, seq, ok)
		}
	}
}
