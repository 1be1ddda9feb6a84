package cosched_test

import (
	"testing"

	"atcsched/internal/sched/cosched"
	"atcsched/internal/sim"
	"atcsched/internal/vmm"
	"atcsched/internal/vmmtest"
)

func TestMarkingFollowsSpinWait(t *testing.T) {
	opts := cosched.DefaultOptions()
	w := vmmtest.World(1, 1, cosched.Factory(opts))
	node := w.Node(0)
	vmA, _ := vmmtest.SpinPair(node, opts.Credit.TimeSlice)
	w.Start()
	w.RunUntil(sim.Second)
	s := node.Scheduler().(*cosched.Scheduler)
	if !s.Marked(vmA) {
		t.Error("contended VM not marked for co-scheduling")
	}
}

func TestUnmarkAfterCalm(t *testing.T) {
	opts := cosched.DefaultOptions()
	w := vmmtest.World(1, 1, cosched.Factory(opts))
	node := w.Node(0)
	vmA := node.NewVM("par", vmm.ClassParallel, 2, 0, 1)
	l := vmA.NewLock()
	deadline := sim.Second
	lockLoop := []vmm.Action{
		vmm.Compute(150 * sim.Microsecond),
		vmm.Acquire(l), vmm.Compute(100 * sim.Microsecond), vmm.Release(l),
	}
	for _, v := range vmA.VCPUs() {
		v.SetProcess(&vmmtest.SeqProc{Actions: lockLoop}, func(*vmm.VCPU) vmm.Process {
			if node.Engine().Now() > deadline {
				return nil
			}
			return &vmmtest.SeqProc{Actions: lockLoop}
		})
	}
	hog := node.NewVM("hog", vmm.ClassNonParallel, 1, 0, 1)
	vmmtest.Loop(hog.VCPU(0), vmm.Compute(sim.Second))
	w.Start()
	w.RunUntil(sim.Second)
	s := node.Scheduler().(*cosched.Scheduler)
	if !s.Marked(vmA) {
		t.Fatal("VM not marked during contention")
	}
	w.RunUntil(3 * sim.Second)
	if s.Marked(vmA) {
		t.Error("VM still marked after contention stopped")
	}
}

func TestGangRunsSiblingsConcurrently(t *testing.T) {
	// Two PCPUs, a 2-VCPU parallel VM under contention, plus two hogs.
	// Under CS the marked VM's VCPUs should frequently run at the same
	// time on both PCPUs; under plain credit they drift apart.
	overlap := func(factory vmm.SchedulerFactory) float64 {
		w := vmmtest.World(1, 2, factory)
		node := w.Node(0)
		vmA, _ := vmmtest.SpinPair(node, 30*sim.Millisecond)
		hog2 := node.NewVM("hog2", vmm.ClassNonParallel, 1, 0, 1)
		vmmtest.Loop(hog2.VCPU(0), vmm.Compute(sim.Second))
		w.Start()
		// Sample co-run state at fine granularity.
		samples, both := 0, 0
		for ti := sim.Time(0); ti < 3*sim.Second; ti += sim.Millisecond {
			w.RunUntil(ti)
			running := 0
			for _, v := range vmA.VCPUs() {
				if v.State() == vmm.StateRunning {
					running++
				}
			}
			if running >= 1 {
				samples++
				if running == 2 {
					both++
				}
			}
		}
		if samples == 0 {
			t.Fatal("VM never ran")
		}
		return float64(both) / float64(samples)
	}
	cs := overlap(cosched.Factory(cosched.DefaultOptions()))
	// Compare against CS with an impossible threshold (never marks), i.e.
	// the plain credit behaviour with identical parameters.
	noGang := cosched.DefaultOptions()
	noGang.SpinWaitThreshold = sim.Second
	cr := overlap(cosched.Factory(noGang))
	if cs <= cr {
		t.Errorf("co-run fraction CS=%.3f <= CR=%.3f; gang dispatch ineffective", cs, cr)
	}
}

func TestCoSchedulingSpeedsUpMarkedVM(t *testing.T) {
	// A lock-coupled pair on an overloaded node: when its VCPUs are
	// gang-dispatched (always marked, 2µs threshold) the pair completes
	// more lock rounds in the same virtual time than when co-scheduling
	// never engages (impossible threshold) — the throughput effect the
	// paper's Figure 1 measures for CS.
	run := func(threshold sim.Time) uint64 {
		opts := cosched.DefaultOptions()
		opts.SpinWaitThreshold = threshold
		w := vmmtest.World(1, 2, cosched.Factory(opts))
		node := w.Node(0)
		vmA, l := vmmtest.SpinPair(node, 30*sim.Millisecond)
		_ = vmA
		for i := 0; i < 3; i++ {
			hog := node.NewVM("hog2", vmm.ClassNonParallel, 1, 0, 1)
			vmmtest.Loop(hog.VCPU(0), vmm.Compute(sim.Second))
		}
		w.Start()
		w.RunUntil(5 * sim.Second)
		return l.Acquisitions()
	}
	withCS := run(2 * sim.Microsecond)
	withoutCS := run(sim.Second)
	if withCS <= withoutCS {
		t.Errorf("lock rounds with CS %d <= without %d", withCS, withoutCS)
	}
}

func TestName(t *testing.T) {
	w := vmmtest.World(1, 1, cosched.Factory(cosched.DefaultOptions()))
	if got := w.Node(0).Scheduler().Name(); got != "CS" {
		t.Errorf("Name = %q", got)
	}
}

func TestGangWithMoreVCPUsThanPCPUs(t *testing.T) {
	// A marked VM with 4 runnable VCPUs on a 2-PCPU node: gang places
	// what fits and must not panic or lose VCPUs.
	opts := cosched.DefaultOptions()
	opts.SpinWaitThreshold = 2 * sim.Microsecond // marks immediately
	w := vmmtest.World(1, 2, cosched.Factory(opts))
	node := w.Node(0)
	vmA := node.NewVM("wide", vmm.ClassParallel, 4, 0, 1)
	l := vmA.NewLock()
	for _, v := range vmA.VCPUs() {
		vmmtest.Loop(v,
			vmm.Compute(100*sim.Microsecond),
			vmm.Acquire(l), vmm.Compute(50*sim.Microsecond), vmm.Release(l),
		)
	}
	w.Start()
	w.RunUntil(2 * sim.Second)
	for i, v := range vmA.VCPUs() {
		if v.RunTime() == 0 {
			t.Errorf("vcpu %d starved by gang dispatch", i)
		}
	}
	w.MustAudit()
}

func TestGangLeavesBlockedVCPUsAlone(t *testing.T) {
	opts := cosched.DefaultOptions()
	opts.SpinWaitThreshold = 2 * sim.Microsecond
	w := vmmtest.World(1, 2, cosched.Factory(opts))
	node := w.Node(0)
	vmA := node.NewVM("par", vmm.ClassParallel, 2, 0, 1)
	l := vmA.NewLock()
	vmmtest.Loop(vmA.VCPU(0),
		vmm.Compute(100*sim.Microsecond),
		vmm.Acquire(l), vmm.Compute(50*sim.Microsecond), vmm.Release(l),
	)
	// VCPU 1 sleeps forever after one compute: the gang must not revive
	// a blocked VCPU.
	vmA.VCPU(1).SetProcess(&vmmtest.SeqProc{Actions: []vmm.Action{
		vmm.Compute(sim.Millisecond),
		vmm.Sleep(10 * sim.Second),
	}}, nil)
	w.Start()
	w.RunUntil(2 * sim.Second)
	if rt := vmA.VCPU(1).RunTime(); rt > 2*sim.Millisecond {
		t.Errorf("blocked VCPU ran %v; gang must not revive sleepers", rt)
	}
	w.MustAudit()
}
