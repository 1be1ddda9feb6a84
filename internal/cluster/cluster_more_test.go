package cluster

import (
	"testing"

	"atcsched/internal/sim"
	"atcsched/internal/vmm"
	"atcsched/internal/workload"
)

func TestGoForRunsExactDuration(t *testing.T) {
	cfg := DefaultConfig(1, CR)
	cfg.Node.PCPUs = 1
	s := MustNew(cfg)
	vm := s.IndependentVM("x", 0, 1, vmm.ClassNonParallel)
	job := workload.NewCPUJob(vm.VCPU(0), workload.SPECProfiles()[0])
	s.GoFor(2 * sim.Second)
	if now := s.World.Now(); now != 2*sim.Second {
		t.Errorf("Now = %v, want exactly 2s", now)
	}
	if job.Rounds() < 4 {
		t.Errorf("rounds = %d, want ~5 in 2s", job.Rounds())
	}
}

func TestContinueForAfterCompletion(t *testing.T) {
	cfg := DefaultConfig(1, CR)
	cfg.Node.PCPUs = 2
	s := MustNew(cfg)
	prof := workload.NPB("ep", workload.ClassA)
	prof.Iterations = 3
	run := s.RunParallel(prof, s.VirtualCluster("vc", 1, 2, nil), 1, true)
	if !s.Go(120 * sim.Second) {
		t.Fatal("did not complete")
	}
	doneAt := s.World.Now()
	s.ContinueFor(3 * sim.Second)
	if got := s.World.Now(); got != doneAt+3*sim.Second {
		t.Errorf("continued to %v, want %v", got, doneAt+3*sim.Second)
	}
	// Forever run kept going during the extension.
	if run.Rounds() < 2 {
		t.Errorf("rounds = %d after ContinueFor", run.Rounds())
	}
}

func TestContinueUntilConditionAndCap(t *testing.T) {
	cfg := DefaultConfig(1, CR)
	cfg.Node.PCPUs = 1
	s := MustNew(cfg)
	vm := s.IndependentVM("x", 0, 1, vmm.ClassNonParallel)
	job := workload.NewDiskJob(vm.VCPU(0))
	s.GoFor(100 * sim.Millisecond)
	ok := s.ContinueUntil(func() bool { return job.Requests() >= 20 }, 100*sim.Millisecond, 10*sim.Second)
	if !ok {
		t.Fatalf("condition not met (requests=%d)", job.Requests())
	}
	// Cap path: an impossible condition stops at the cap.
	start := s.World.Now()
	ok = s.ContinueUntil(func() bool { return false }, 100*sim.Millisecond, 500*sim.Millisecond)
	if ok {
		t.Fatal("impossible condition reported met")
	}
	if got := s.World.Now() - start; got != 500*sim.Millisecond {
		t.Errorf("ran %v past cap, want exactly 500ms", got)
	}
}

func TestHYApproachBuilds(t *testing.T) {
	cfg := DefaultConfig(1, HY)
	s := MustNew(cfg)
	if got := s.World.Node(0).Scheduler().Name(); got != "HY" {
		t.Errorf("Name = %q", got)
	}
	if len(ExtendedApproaches()) != len(Approaches())+3 {
		t.Error("ExtendedApproaches wrong")
	}
}

func TestDisableTogglesReachScheduler(t *testing.T) {
	cfg := DefaultConfig(1, CR)
	cfg.Sched.DisableBoost = true
	cfg.Sched.DisableSteal = true
	s := MustNew(cfg)
	// Indirect check: the scheduler still works end to end.
	prof := workload.NPB("ep", workload.ClassA)
	prof.Iterations = 2
	run := s.RunParallel(prof, s.VirtualCluster("vc", 1, 2, nil), 1, false)
	if !s.Go(120 * sim.Second) {
		t.Fatal("did not complete")
	}
	if run.MeanTime() <= 0 {
		t.Fatal("no timing")
	}
}

func TestVSSmallFixedSliceBuilds(t *testing.T) {
	// Regression: a fixed base slice at or below VS's 1ms default
	// microslice used to panic in the vslicer constructor. The factory
	// now rescales the microslice to the 30:1 ratio.
	for _, ms := range []float64{0.3, 1} {
		cfg := DefaultConfig(1, VS)
		cfg.Sched.FixedSlice = sim.FromMillis(ms)
		if _, err := New(cfg); err != nil {
			t.Fatalf("slice %vms: %v", ms, err)
		}
	}
	// A base slice too small to subdivide must error, not panic.
	cfg := DefaultConfig(1, VS)
	cfg.Sched.FixedSlice = 10 * sim.Nanosecond
	if _, err := New(cfg); err == nil {
		t.Fatal("nanosecond base slice accepted for VS")
	}
}

func TestAuditHookObservesRun(t *testing.T) {
	var times []sim.Time
	var sick int
	cfg := DefaultConfig(1, CR)
	cfg.AuditEvery = 10 * sim.Millisecond
	cfg.OnAudit = func(at sim.Time, errs []error) {
		times = append(times, at)
		sick += len(errs)
	}
	s := MustNew(cfg)
	prof := workload.NPB("ep", workload.ClassA)
	prof.Iterations = 2
	s.RunParallel(prof, s.VirtualCluster("vc", 1, 2, nil), 1, false)
	if !s.Go(120 * sim.Second) {
		t.Fatal("did not complete")
	}
	if len(times) == 0 {
		t.Fatal("audit hook never fired")
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("audit clock regressed: %v -> %v", times[i-1], times[i])
		}
	}
	if sick != 0 {
		t.Fatalf("%d audit violations on a healthy run", sick)
	}
	if got := s.AuditViolations(); len(got) != 0 {
		t.Fatalf("AuditViolations = %v", got)
	}
}
