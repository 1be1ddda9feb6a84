package vmm

import (
	"testing"

	"atcsched/internal/netmodel"
	"atcsched/internal/sim"
)

func TestRecvPollResumedByDelivery(t *testing.T) {
	// The receiver polls; the sender posts after a delay well inside the
	// poll budget; the receiver must complete without ever blocking.
	w := testWorld(t, 1, 2, 30*sim.Millisecond)
	a := w.Node(0).NewVM("a", ClassParallel, 1, 0, 1)
	b := w.Node(0).NewVM("b", ClassParallel, 1, 0, 1)
	var doneAt sim.Time
	a.VCPU(0).SetProcess(&seqProc{actions: []Action{
		{Kind: ActRecv, Tag: 1, Dur: 20 * sim.Millisecond, Then: func() { doneAt = w.Node(0).Engine().Now() }},
	}}, nil)
	b.VCPU(0).SetProcess(&seqProc{actions: []Action{
		Compute(2 * sim.Millisecond),
		Send(a, 0, 1, 256),
	}}, nil)
	w.Start()
	w.RunUntil(sim.Second)
	if doneAt == 0 {
		t.Fatal("poll never completed")
	}
	if doneAt > 3*sim.Millisecond {
		t.Errorf("poll completed at %v, want ~2ms (resumed by delivery)", doneAt)
	}
	// The receiver burned CPU while polling rather than blocking.
	if got := a.VCPU(0).RunTime(); got < 2*sim.Millisecond {
		t.Errorf("receiver runtime = %v, want ≈ poll duration", got)
	}
	w.MustAudit()
}

func TestRecvPollTimesOutThenBlocks(t *testing.T) {
	w := testWorld(t, 1, 2, 30*sim.Millisecond)
	a := w.Node(0).NewVM("a", ClassParallel, 1, 0, 1)
	b := w.Node(0).NewVM("b", ClassParallel, 1, 0, 1)
	var doneAt sim.Time
	a.VCPU(0).SetProcess(&seqProc{actions: []Action{
		{Kind: ActRecv, Tag: 1, Dur: sim.Millisecond, Then: func() { doneAt = w.Node(0).Engine().Now() }},
	}}, nil)
	b.VCPU(0).SetProcess(&seqProc{actions: []Action{
		Compute(10 * sim.Millisecond), // well past the poll budget
		Send(a, 0, 1, 256),
	}}, nil)
	w.Start()
	w.RunUntil(sim.Second)
	if doneAt < 10*sim.Millisecond {
		t.Fatalf("doneAt = %v", doneAt)
	}
	// The receiver burned only ~1ms polling, then blocked: its CPU time
	// must be far below the 10ms wall wait.
	if got := a.VCPU(0).RunTime(); got > 3*sim.Millisecond {
		t.Errorf("receiver runtime = %v, want ~1ms (blocked after poll budget)", got)
	}
	w.MustAudit()
}

func TestRecvPollForeverNeverBlocks(t *testing.T) {
	w := testWorld(t, 1, 2, 30*sim.Millisecond)
	a := w.Node(0).NewVM("a", ClassParallel, 1, 0, 1)
	b := w.Node(0).NewVM("b", ClassParallel, 1, 0, 1)
	got := false
	a.VCPU(0).SetProcess(&seqProc{actions: []Action{
		RecvPoll(1, -1),
		{Kind: ActCompute, Work: 0, Then: func() { got = true }},
	}}, nil)
	b.VCPU(0).SetProcess(&seqProc{actions: []Action{
		Compute(8 * sim.Millisecond),
		Send(a, 0, 1, 64),
	}}, nil)
	w.Start()
	w.RunUntil(sim.Second)
	if !got {
		t.Fatal("infinite poll never completed")
	}
	// Spin-forever: the receiver's CPU time covers the whole wait.
	if rt := a.VCPU(0).RunTime(); rt < 8*sim.Millisecond {
		t.Errorf("receiver runtime = %v, want ≥ 8ms (spun the whole time)", rt)
	}
	w.MustAudit()
}

func TestRecvPollPreemptedKeepsWaiting(t *testing.T) {
	// A poller preempted mid-poll must resume polling on redispatch and
	// still consume the message.
	w := testWorld(t, 1, 1, 2*sim.Millisecond) // 1 PCPU, short slices
	a := w.Node(0).NewVM("a", ClassParallel, 1, 0, 1)
	b := w.Node(0).NewVM("b", ClassParallel, 1, 0, 1)
	got := false
	a.VCPU(0).SetProcess(&seqProc{actions: []Action{
		RecvPoll(1, -1),
		{Kind: ActCompute, Work: 0, Then: func() { got = true }},
	}}, nil)
	b.VCPU(0).SetProcess(&seqProc{actions: []Action{
		Compute(7 * sim.Millisecond),
		Send(a, 0, 1, 64),
	}}, nil)
	w.Start()
	w.RunUntil(sim.Second)
	if !got {
		t.Fatal("preempted poller never completed")
	}
	w.MustAudit()
}

func TestRecvPollBudgetCarriesAcrossSlices(t *testing.T) {
	// A poll budget larger than the slice must be consumed cumulatively
	// across preemptions, not restarted from scratch on every dispatch:
	// the receiver polls 5ms total over 2ms slices, then blocks while
	// the hog runs — its CPU time stays near the budget, nowhere near
	// the 40ms wall wait. (Regression: the un-carried budget kept the
	// poller running every other slice forever.)
	w := testWorld(t, 1, 1, 2*sim.Millisecond)
	a := w.Node(0).NewVM("a", ClassParallel, 1, 0, 1)
	b := w.Node(0).NewVM("b", ClassParallel, 1, 0, 1)
	var doneAt sim.Time
	a.VCPU(0).SetProcess(&seqProc{actions: []Action{
		{Kind: ActRecv, Tag: 1, Dur: 5 * sim.Millisecond, Then: func() { doneAt = w.Node(0).Engine().Now() }},
	}}, nil)
	b.VCPU(0).SetProcess(&seqProc{actions: []Action{
		Compute(40 * sim.Millisecond),
		Send(a, 0, 1, 64),
	}}, nil)
	w.Start()
	w.RunUntil(sim.Second)
	if doneAt < 40*sim.Millisecond {
		t.Fatalf("doneAt = %v, want after the 40ms hog", doneAt)
	}
	if got := a.VCPU(0).RunTime(); got > 10*sim.Millisecond {
		t.Errorf("receiver runtime = %v, want ≈ 5ms budget (blocked after it)", got)
	}
	w.MustAudit()
}

func TestPreemptAPIOnIdlePCPU(t *testing.T) {
	w := testWorld(t, 1, 1, 30*sim.Millisecond)
	w.Start()
	w.RunUntil(50 * sim.Millisecond)
	p := w.Node(0).PCPUs()[0]
	p.Preempt() // idle: must just schedule a dispatch, not panic
	w.RunUntil(60 * sim.Millisecond)
	w.MustAudit()
}

func TestAccessorsAndAudit(t *testing.T) {
	w := testWorld(t, 2, 2, 30*sim.Millisecond)
	n := w.Node(1)
	if n.ID() != 1 || n.World() != w || n.Engine() != w.Node(0).Engine() {
		t.Error("node accessors wrong")
	}
	if n.Scheduler() == nil || len(n.VMs()) != 0 {
		t.Error("scheduler/VMs accessors wrong")
	}
	vm := n.NewVM("x", ClassParallel, 2, 128<<10, 0.7)
	vm.VCPU(0).SetProcess(&seqProc{actions: []Action{
		Compute(5 * sim.Millisecond),
		Send(vm, 1, 3, 100),
	}}, nil)
	vm.VCPU(1).SetProcess(&seqProc{actions: []Action{Recv(3)}}, nil)
	w.Start()
	w.RunUntil(sim.Second)
	p := n.PCPUs()[0]
	if p.Node() != n || p.Index() != 0 || p.Cache() == nil {
		t.Error("pcpu accessors wrong")
	}
	if p.Current() != nil {
		t.Error("pcpu should be idle at quiescence")
	}
	if n.CtxSwitches() == 0 || n.Wakes() == 0 {
		t.Errorf("ctx=%d wakes=%d", n.CtxSwitches(), n.Wakes())
	}
	if n.LLCMisses() == 0 {
		t.Error("no LLC misses with a 128KiB footprint")
	}
	if n.Backend().Disk() == nil {
		t.Error("backend disk missing")
	}
	if n.Backend().QueueDepth() != 0 {
		t.Errorf("backend queue depth = %d at quiescence", n.Backend().QueueDepth())
	}
	if errs := w.Audit(); len(errs) > 0 {
		t.Fatalf("audit: %v", errs)
	}
}

func TestSpinlockAccessors(t *testing.T) {
	w := testWorld(t, 1, 1, 30*sim.Millisecond)
	vm := w.Node(0).NewVM("x", ClassParallel, 1, 0, 1)
	l := vm.NewLock()
	if l.VM() != vm || l.Holder() != nil {
		t.Error("lock accessors wrong")
	}
	if len(vm.Locks()) != 1 {
		t.Error("Locks() wrong")
	}
	var heldDuring *VCPU
	vm.VCPU(0).SetProcess(&seqProc{actions: []Action{
		Acquire(l),
		{Kind: ActCompute, Work: sim.Millisecond, Then: func() { heldDuring = l.Holder() }},
		Release(l),
	}}, nil)
	w.Start()
	w.RunUntil(sim.Second)
	if heldDuring != vm.VCPU(0) {
		t.Errorf("holder during CS = %v", heldDuring)
	}
	if l.Holder() != nil {
		t.Error("lock still held after release")
	}
}

func TestDiskIOHelper(t *testing.T) {
	a := DiskIO(4096)
	if a.Kind != ActDisk || a.Size != 4096 {
		t.Errorf("DiskIO = %+v", a)
	}
	r := RecvPoll(7, 3*sim.Millisecond)
	if r.Kind != ActRecv || r.Tag != 7 || r.Dur != 3*sim.Millisecond {
		t.Errorf("RecvPoll = %+v", r)
	}
}

func TestProcessFunc(t *testing.T) {
	n := 0
	var p Process = ProcessFunc(func() Action {
		n++
		if n > 2 {
			return Done()
		}
		return Compute(sim.Millisecond)
	})
	if p.Next().Kind != ActCompute {
		t.Error("first action wrong")
	}
	p.Next()
	if p.Next().Kind != ActDone {
		t.Error("done not reached")
	}
}

func TestConfigValidationErrors(t *testing.T) {
	base := DefaultNodeConfig()
	cases := []func(*NodeConfig){
		func(c *NodeConfig) { c.TickInterval = 0 },
		func(c *NodeConfig) { c.SchedPeriod = 0 },
		func(c *NodeConfig) { c.Dom0VCPUs = 0 },
		func(c *NodeConfig) { c.CtxSwitchCost = -1 },
		func(c *NodeConfig) { c.MaxInlineSteps = 0 },
	}
	for i, mut := range cases {
		cfg := base
		mut(&cfg)
		if _, err := NewWorld(1, cfg, defaultNet(), func(n *Node) Scheduler { return &rrSched{slice: 1} }); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestAuditDetectsCorruption(t *testing.T) {
	// Sanity that Audit is not a rubber stamp: hand-corrupt a lock and
	// expect a violation.
	w := testWorld(t, 1, 1, 30*sim.Millisecond)
	vm := w.Node(0).NewVM("x", ClassParallel, 2, 0, 1)
	l := vm.NewLock()
	l.holder = vm.VCPU(0)
	l.granted = vm.VCPU(1)
	if errs := w.Audit(); len(errs) == 0 {
		t.Fatal("audit accepted a lock with both holder and reservation")
	}
}

func defaultNet() netmodel.Config { return netmodel.DefaultConfig() }
