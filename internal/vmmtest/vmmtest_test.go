package vmmtest

import (
	"testing"

	"atcsched/internal/sim"
	"atcsched/internal/vmm"
)

// rr is a minimal FIFO scheduler so the builders can be exercised
// without depending on any real policy package.
type rr struct {
	q     []*vmm.VCPU
	slice sim.Time
}

func (s *rr) Name() string                               { return "rr" }
func (s *rr) Register(v *vmm.VCPU)                       {}
func (s *rr) Enqueue(v *vmm.VCPU, r vmm.EnqueueReason)   { s.q = append(s.q, v) }
func (s *rr) Dequeue(v *vmm.VCPU) bool                   { return false }
func (s *rr) Slice(v *vmm.VCPU) sim.Time                 { return s.slice }
func (s *rr) WakePreempts(p *vmm.PCPU, w *vmm.VCPU) bool { return false }
func (s *rr) OnTick(n *vmm.Node)                         {}
func (s *rr) OnPeriod(n *vmm.Node)                       {}
func (s *rr) PickNext(p *vmm.PCPU) *vmm.VCPU {
	for i, v := range s.q {
		if v.AllowedOn(p.Index()) {
			s.q = append(s.q[:i], s.q[i+1:]...)
			return v
		}
	}
	return nil
}

func factory() vmm.SchedulerFactory {
	return func(n *vmm.Node) vmm.Scheduler { return &rr{slice: 30 * sim.Millisecond} }
}

func TestWorldBuilderShape(t *testing.T) {
	w := World(2, 3, factory())
	if got := len(w.Nodes()); got != 2 {
		t.Fatalf("nodes = %d, want 2", got)
	}
	for _, n := range w.Nodes() {
		if got := len(n.PCPUs()); got != 3 {
			t.Errorf("node %d pcpus = %d, want 3", n.ID(), got)
		}
		if got := len(n.Dom0().VCPUs()); got != 1 {
			t.Errorf("node %d dom0 vcpus = %d, want 1", n.ID(), got)
		}
	}
	if errs := w.Audit(); len(errs) > 0 {
		t.Fatalf("fresh builder world fails audit: %v", errs)
	}
}

func TestSeqRunsOnceThenIdles(t *testing.T) {
	w := World(1, 1, factory())
	vmA := w.Node(0).NewVM("a", vmm.ClassParallel, 1, 0, 1)
	v := vmA.VCPU(0)
	Seq(v, vmm.Compute(2*sim.Millisecond), vmm.Compute(sim.Millisecond))
	w.Start()
	w.RunUntil(sim.Second)
	if got := v.Rounds(); got != 1 {
		t.Fatalf("rounds = %d, want exactly 1 (Seq is one-shot)", got)
	}
	if v.State() != vmm.StateIdle {
		t.Fatalf("state = %v after one-shot sequence", v.State())
	}
	// CPUTime includes the dispatch context-switch cost, so allow a small
	// overhead band above the 3ms of pure compute.
	if got := v.CPUTime(); got < 3*sim.Millisecond || got > 3*sim.Millisecond+100*sim.Microsecond {
		t.Errorf("cpu time = %v, want 3ms plus switch overhead", got)
	}
	w.MustAudit()
}

func TestLoopRestartsForever(t *testing.T) {
	w := World(1, 1, factory())
	vmA := w.Node(0).NewVM("a", vmm.ClassParallel, 1, 0, 1)
	v := vmA.VCPU(0)
	Loop(v, vmm.Compute(sim.Millisecond))
	w.Start()
	w.RunUntil(100 * sim.Millisecond)
	if got := v.Rounds(); got < 50 {
		t.Fatalf("rounds = %d in 100ms of 1ms loops, want many", got)
	}
	if v.State() == vmm.StateIdle {
		t.Fatal("looping VCPU went idle")
	}
	w.MustAudit()
}

func TestLoopNStopsAtNAndReportsRounds(t *testing.T) {
	w := World(1, 1, factory())
	vmA := w.Node(0).NewVM("a", vmm.ClassParallel, 1, 0, 1)
	v := vmA.VCPU(0)
	var rounds []int
	var stamps []sim.Time
	LoopN(v, 3, func(round int, now sim.Time) {
		rounds = append(rounds, round)
		stamps = append(stamps, now)
	}, w.Node(0).Engine(), vmm.Compute(2*sim.Millisecond))
	w.Start()
	w.RunUntil(sim.Second)
	if got := v.Rounds(); got != 3 {
		t.Fatalf("rounds = %d, want exactly 3", got)
	}
	if len(rounds) != 3 || rounds[0] != 1 || rounds[2] != 3 {
		t.Fatalf("onRound calls = %v", rounds)
	}
	// Stamps land at 2ms intervals shifted by per-dispatch overhead, so
	// check ordering and minimum spacing rather than exact instants.
	for i, at := range stamps {
		want := sim.Time(i+1) * 2 * sim.Millisecond
		if at < want || at > want+sim.Millisecond {
			t.Errorf("round %d at %v, want within 1ms above %v", i+1, at, want)
		}
	}
	if v.State() != vmm.StateIdle {
		t.Fatalf("state = %v after LoopN finished", v.State())
	}
	w.MustAudit()
}

func TestSpinPairGeneratesSpinWaits(t *testing.T) {
	// The builder's contract: sustained lock-holder preemption, i.e. the
	// parallel VM accumulates real spin-wait time under a small slice.
	w := World(1, 1, factory())
	vmA, l := SpinPair(w.Node(0), 30*sim.Millisecond)
	if l.VM() != vmA {
		t.Fatal("lock not owned by the parallel VM")
	}
	w.Start()
	w.RunUntil(2 * sim.Second)
	if got := vmA.SpinWaitTotal(); got == 0 {
		t.Fatal("SpinPair produced no spin waiting")
	}
	w.MustAudit()
}

func TestMisuseFailsLoudly(t *testing.T) {
	// Builders sit on the vmm substrate's own misuse checks: installing a
	// process on a VCPU that already has one must panic, not silently
	// replace the workload mid-run.
	w := World(1, 1, factory())
	vmA := w.Node(0).NewVM("a", vmm.ClassParallel, 1, 0, 1)
	v := vmA.VCPU(0)
	Seq(v, vmm.Compute(sim.Millisecond))
	defer func() {
		if recover() == nil {
			t.Fatal("second SetProcess on a busy VCPU did not panic")
		}
	}()
	Seq(v, vmm.Compute(sim.Millisecond))
}
