package credit_test

import (
	"testing"

	"atcsched/internal/sched/credit"
	"atcsched/internal/sim"
	"atcsched/internal/vmm"
	"atcsched/internal/vmmtest"
)

func world(t *testing.T, nodes, pcpus int, opts credit.Options) *vmm.World {
	t.Helper()
	return vmmtest.World(nodes, pcpus, credit.Factory(opts))
}

func TestOptionsValidation(t *testing.T) {
	w := vmmtest.World(1, 1, credit.Factory(credit.DefaultOptions()))
	n := w.Node(0)
	for name, opts := range map[string]credit.Options{
		"zero slice":  {TimeSlice: 0, DefaultWeight: 256},
		"zero weight": {TimeSlice: sim.Millisecond, DefaultWeight: 0},
	} {
		opts := opts
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", name)
				}
			}()
			credit.New(n, opts)
		}()
	}
}

func TestProportionalShare(t *testing.T) {
	// Two CPU-hog VMs on one PCPU, weights 256 vs 768: over time the
	// heavier VM should get ~3x the CPU.
	opts := credit.DefaultOptions()
	opts.TimeSlice = 5 * sim.Millisecond
	w := world(t, 1, 1, opts)
	node := w.Node(0)
	vmA := node.NewVM("a", vmm.ClassNonParallel, 1, 0, 1)
	vmB := node.NewVM("b", vmm.ClassNonParallel, 1, 0, 1)
	s := node.Scheduler().(*credit.Scheduler)
	s.SetWeight(vmA, 256)
	s.SetWeight(vmB, 768)
	vmmtest.Loop(vmA.VCPU(0), vmm.Compute(100*sim.Millisecond))
	vmmtest.Loop(vmB.VCPU(0), vmm.Compute(100*sim.Millisecond))
	w.Start()
	w.RunUntil(3 * sim.Second)
	ra, rb := float64(vmA.RunTime()), float64(vmB.RunTime())
	ratio := rb / ra
	if ratio < 2.0 || ratio > 4.5 {
		t.Errorf("runtime ratio = %.2f, want ~3 (a=%v b=%v)", ratio, vmA.RunTime(), vmB.RunTime())
	}
}

func TestEqualWeightsShareFairly(t *testing.T) {
	opts := credit.DefaultOptions()
	w := world(t, 1, 2, opts)
	node := w.Node(0)
	vms := make([]*vmm.VM, 4)
	for i := range vms {
		vms[i] = node.NewVM("vm", vmm.ClassNonParallel, 1, 0, 1)
		vmmtest.Loop(vms[i].VCPU(0), vmm.Compute(50*sim.Millisecond))
	}
	w.Start()
	w.RunUntil(2 * sim.Second)
	// 4 hogs on 2 PCPUs for 2s: each should get ~1s.
	for i, vm := range vms {
		r := vm.RunTime().Seconds()
		if r < 0.8 || r > 1.2 {
			t.Errorf("vm%d runtime = %.3fs, want ~1s", i, r)
		}
	}
}

func TestBoostQueueJump(t *testing.T) {
	// Unit-level boost semantics: a woken VCPU with positive credit gets
	// BOOST and pops ahead of an earlier-queued UNDER VCPU; with Boost
	// off it queues behind.
	check := func(boost bool, wantFirst int) {
		opts := credit.DefaultOptions()
		opts.Boost = boost
		opts.Steal = false
		w := world(t, 1, 1, opts)
		node := w.Node(0)
		vmA := node.NewVM("a", vmm.ClassNonParallel, 1, 0, 1)
		vmB := node.NewVM("b", vmm.ClassNonParallel, 1, 0, 1)
		s := node.Scheduler().(*credit.Scheduler)
		a, b := vmA.VCPU(0), vmB.VCPU(0)
		s.Register(a)
		s.Register(b)
		s.Data(a).Credit = 10 * sim.Millisecond
		s.Data(b).Credit = 10 * sim.Millisecond
		s.Enqueue(a, vmm.EnqueueNew)
		s.Enqueue(b, vmm.EnqueueWake)
		first := s.PickNext(node.PCPUs()[0])
		want := a
		if wantFirst == 1 {
			want = b
		}
		if first != want {
			t.Errorf("boost=%v: first = %s, want %s", boost, first, want)
		}
		if boost && s.Data(b).Prio != credit.PrioBoost {
			t.Errorf("woken VCPU prio = %v, want BOOST", s.Data(b).Prio)
		}
		if !boost && s.Data(b).Prio == credit.PrioBoost {
			t.Error("BOOST granted with Boost disabled")
		}
	}
	check(true, 1)
	check(false, 0)
}

func TestWakePreemptsOverHog(t *testing.T) {
	// E2E wake preemption: an always-runnable hog exceeds its share and
	// goes OVER; a waking (UNDER or BOOST) sleeper must preempt it
	// rather than wait out a 30 ms slice.
	opts := credit.DefaultOptions()
	opts.TimeSlice = 30 * sim.Millisecond
	w := world(t, 1, 1, opts)
	node := w.Node(0)
	hog := node.NewVM("hog", vmm.ClassNonParallel, 1, 0, 1)
	vmmtest.Loop(hog.VCPU(0), vmm.Compute(sim.Second))
	sleeper := node.NewVM("sleeper", vmm.ClassNonParallel, 1, 0, 1)
	var total sim.Time
	var wakes int
	var sleepAt sim.Time
	vmmtest.Loop(sleeper.VCPU(0),
		vmm.Action{Kind: vmm.ActSleep, Dur: 9300 * sim.Microsecond, Then: func() { sleepAt = w.Node(0).Engine().Now() }},
		vmm.Action{Kind: vmm.ActCompute, Work: 10 * sim.Microsecond, Then: func() {
			total += w.Node(0).Engine().Now() - sleepAt
			wakes++
		}},
	)
	w.Start()
	w.RunUntil(2 * sim.Second)
	if wakes < 100 {
		t.Fatalf("wakes = %d", wakes)
	}
	avg := total / sim.Time(wakes)
	if avg > sim.Millisecond {
		t.Errorf("wake latency = %v, want ≪ slice (wake preemption of OVER hog)", avg)
	}
}

func TestWorkStealingKeepsPCPUsBusy(t *testing.T) {
	// 4 hogs whose home queues all start on a subset of PCPUs: with
	// stealing, both PCPUs stay busy.
	opts := credit.DefaultOptions()
	opts.TimeSlice = 5 * sim.Millisecond
	w := world(t, 1, 2, opts)
	node := w.Node(0)
	for i := 0; i < 4; i++ {
		vm := node.NewVM("hog", vmm.ClassNonParallel, 1, 0, 1)
		vmmtest.Loop(vm.VCPU(0), vmm.Compute(30*sim.Millisecond))
	}
	w.Start()
	w.RunUntil(sim.Second)
	for _, p := range node.PCPUs() {
		util := p.BusyTime().Seconds() / 1.0
		if util < 0.95 {
			t.Errorf("pcpu%d utilization = %.2f, want ~1 with stealing", p.Index(), util)
		}
	}
}

func TestNoStealLeavesQueueBound(t *testing.T) {
	opts := credit.DefaultOptions()
	opts.Steal = false
	w := world(t, 1, 2, opts)
	node := w.Node(0)
	// One hog; its home queue is fixed. The other PCPU must stay idle
	// once dom0 goes quiet.
	vm := node.NewVM("hog", vmm.ClassNonParallel, 1, 0, 1)
	vmmtest.Loop(vm.VCPU(0), vmm.Compute(30*sim.Millisecond))
	w.Start()
	w.RunUntil(sim.Second)
	busy := 0
	for _, p := range node.PCPUs() {
		if p.BusyTime() > 900*sim.Millisecond {
			busy++
		}
	}
	if busy != 1 {
		t.Errorf("busy PCPUs = %d, want exactly 1 without stealing", busy)
	}
}

func TestSliceGovernsPreemptionFrequency(t *testing.T) {
	run := func(slice sim.Time) uint64 {
		opts := credit.DefaultOptions()
		opts.TimeSlice = slice
		w := world(t, 1, 1, opts)
		node := w.Node(0)
		for i := 0; i < 2; i++ {
			vm := node.NewVM("hog", vmm.ClassNonParallel, 1, 0, 1)
			vmmtest.Loop(vm.VCPU(0), vmm.Compute(sim.Second))
		}
		w.Start()
		w.RunUntil(sim.Second)
		return node.CtxSwitches()
	}
	fine := run(sim.Millisecond)
	coarse := run(30 * sim.Millisecond)
	if fine < 10*coarse {
		t.Errorf("ctx switches fine=%d coarse=%d; want ~30x more at 1ms", fine, coarse)
	}
}

func TestPriorityString(t *testing.T) {
	for _, p := range []credit.Priority{credit.PrioBoost, credit.PrioUnder, credit.PrioOver, credit.Priority(9)} {
		if p.String() == "" {
			t.Error("empty priority name")
		}
	}
}

func TestDataLifecycle(t *testing.T) {
	w := vmmtest.World(1, 2, credit.Factory(credit.DefaultOptions()))
	node := w.Node(0)
	vm := node.NewVM("x", vmm.ClassNonParallel, 1, 0, 1)
	s := node.Scheduler().(*credit.Scheduler)
	v := vm.VCPU(0)
	d := s.Data(v)
	if d == nil || d.Queue != -1 {
		t.Fatalf("fresh data = %+v", d)
	}
	s.Register(v)
	if d.Queue < 0 || d.Queue >= 2 {
		t.Errorf("home queue = %d", d.Queue)
	}
	if s.Data(v) != d {
		t.Error("Data not stable")
	}
}

func TestQueueManipulation(t *testing.T) {
	// The hooks co-scheduling uses: Dequeue, EnqueueFront, QueueLen,
	// QueueHasSibling.
	w := vmmtest.World(1, 2, credit.Factory(credit.DefaultOptions()))
	node := w.Node(0)
	vmA := node.NewVM("a", vmm.ClassParallel, 2, 0, 1)
	vmB := node.NewVM("b", vmm.ClassNonParallel, 1, 0, 1)
	s := node.Scheduler().(*credit.Scheduler)
	if s.Name() != "CR" || s.Node() != node {
		t.Error("Name/Node accessors wrong")
	}
	if s.Options().TimeSlice != credit.DefaultOptions().TimeSlice {
		t.Error("Options accessor wrong")
	}
	a0, a1, b0 := vmA.VCPU(0), vmA.VCPU(1), vmB.VCPU(0)
	for _, v := range []*vmm.VCPU{a0, a1, b0} {
		s.Register(v)
	}
	s.Enqueue(a0, vmm.EnqueueNew)
	s.Enqueue(b0, vmm.EnqueueNew)
	q := s.Data(a0).Queue
	if s.QueueLen(q) == 0 {
		t.Fatal("queue empty after enqueue")
	}
	if !s.QueueHasSibling(q, vmA, nil) {
		t.Error("sibling not detected")
	}
	if s.QueueHasSibling(q, vmA, a0) && s.Data(a1).Queued {
		t.Error("exclude parameter ignored")
	}
	if !s.Dequeue(a0) {
		t.Fatal("Dequeue failed")
	}
	if s.Dequeue(a0) {
		t.Error("double dequeue succeeded")
	}
	// EnqueueFront jumps the queue with BOOST class.
	s.EnqueueFront(a0, 0)
	if got := s.PickNext(node.PCPUs()[0]); got != a0 {
		t.Errorf("PickNext = %v, want front-enqueued a0", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double EnqueueFront accepted")
			}
		}()
		s.Enqueue(b0, vmm.EnqueueNew) // b0 already queued
	}()
}

func TestAffinityPinning(t *testing.T) {
	// A VCPU pinned to PCPU 1 must only ever run there, even with
	// stealing enabled and PCPU 0 idle.
	w := vmmtest.World(1, 2, credit.Factory(credit.DefaultOptions()))
	node := w.Node(0)
	vm := node.NewVM("pinned", vmm.ClassNonParallel, 1, 0, 1)
	v := vm.VCPU(0)
	v.PinTo(1)
	if !v.Pinned() || v.AllowedOn(0) || !v.AllowedOn(1) {
		t.Fatal("pin mask wrong")
	}
	vmmtest.Loop(v, vmm.Compute(3*sim.Millisecond), vmm.Sleep(sim.Millisecond))
	// A competitor pinned nowhere keeps PCPU 1 contended.
	other := node.NewVM("free", vmm.ClassNonParallel, 1, 0, 1)
	vmmtest.Loop(other.VCPU(0), vmm.Compute(sim.Second))
	w.Start()
	for ti := sim.Time(0); ti < sim.Second; ti += 613 * sim.Microsecond {
		w.RunUntil(ti)
		if p := v.PCPU(); p != nil && p.Index() != 1 {
			t.Fatalf("pinned VCPU running on pcpu %d at %v", p.Index(), ti)
		}
	}
	if v.RunTime() == 0 {
		t.Fatal("pinned VCPU never ran")
	}
	// Unpin restores free placement.
	v.PinTo()
	if v.Pinned() {
		t.Error("unpin failed")
	}
}

func TestPinToValidation(t *testing.T) {
	w := vmmtest.World(1, 2, credit.Factory(credit.DefaultOptions()))
	vm := w.Node(0).NewVM("x", vmm.ClassNonParallel, 1, 0, 1)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range pin accepted")
		}
	}()
	vm.VCPU(0).PinTo(7)
}

func TestPickNextEmptyReturnsNil(t *testing.T) {
	w := vmmtest.World(1, 2, credit.Factory(credit.DefaultOptions()))
	node := w.Node(0)
	s := node.Scheduler().(*credit.Scheduler)
	if got := s.PickNext(node.PCPUs()[0]); got != nil {
		t.Errorf("PickNext on empty queues = %v", got)
	}
	noSteal := credit.DefaultOptions()
	noSteal.Steal = false
	s2 := credit.New(node, noSteal)
	if got := s2.PickNext(node.PCPUs()[1]); got != nil {
		t.Errorf("no-steal PickNext on empty = %v", got)
	}
}

func TestSetWeightValidation(t *testing.T) {
	w := vmmtest.World(1, 1, credit.Factory(credit.DefaultOptions()))
	node := w.Node(0)
	vm := node.NewVM("x", vmm.ClassNonParallel, 1, 0, 1)
	s := node.Scheduler().(*credit.Scheduler)
	defer func() {
		if recover() == nil {
			t.Error("zero weight accepted")
		}
	}()
	s.SetWeight(vm, 0)
}

func TestTickClearsBoost(t *testing.T) {
	w := vmmtest.World(1, 1, credit.Factory(credit.DefaultOptions()))
	node := w.Node(0)
	vm := node.NewVM("b", vmm.ClassNonParallel, 1, 0, 1)
	s := node.Scheduler().(*credit.Scheduler)
	v := vm.VCPU(0)
	s.Register(v)
	s.Data(v).Credit = 10 * sim.Millisecond
	s.Enqueue(v, vmm.EnqueueWake)
	if s.Data(v).Prio != credit.PrioBoost {
		t.Fatalf("prio = %v after wake", s.Data(v).Prio)
	}
	// The VCPU must be *running* for the tick to retire its boost.
	got := s.PickNext(node.PCPUs()[0])
	if got != v {
		t.Fatalf("PickNext = %v", got)
	}
	// Simulate it being current by dispatching through the real path is
	// complex here; instead verify the enqueue-after-preempt path drops
	// the boost class.
	s.Enqueue(v, vmm.EnqueuePreempt)
	if s.Data(v).Prio == credit.PrioBoost {
		t.Error("preempt re-enqueue kept BOOST")
	}
}

func TestCreditChargeOnEnqueue(t *testing.T) {
	// End to end: a hog's credit goes negative (OVER) once it has burned
	// beyond its share.
	opts := credit.DefaultOptions()
	w := vmmtest.World(1, 1, credit.Factory(opts))
	node := w.Node(0)
	hogA := node.NewVM("a", vmm.ClassNonParallel, 1, 0, 1)
	hogB := node.NewVM("b", vmm.ClassNonParallel, 1, 0, 1)
	vmmtest.Loop(hogA.VCPU(0), vmm.Compute(sim.Second))
	vmmtest.Loop(hogB.VCPU(0), vmm.Compute(sim.Second))
	w.Start()
	w.RunUntil(500 * sim.Millisecond)
	s := node.Scheduler().(*credit.Scheduler)
	da, db := s.Data(hogA.VCPU(0)), s.Data(hogB.VCPU(0))
	if da.Credit > 0 && db.Credit > 0 {
		t.Errorf("both hogs UNDER (%v, %v) despite 2x over-subscription", da.Credit, db.Credit)
	}
}
