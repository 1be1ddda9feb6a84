package vmm

import (
	"testing"

	"atcsched/internal/netmodel"
	"atcsched/internal/sim"
)

// rrSched is a minimal FIFO round-robin scheduler for white-box tests.
type rrSched struct {
	node  *Node
	q     []*VCPU
	slice sim.Time
	// preemptOnWake makes every wake preempt (to exercise that path).
	preemptOnWake bool
}

func (s *rrSched) Name() string                     { return "RR" }
func (s *rrSched) Register(v *VCPU)                 {}
func (s *rrSched) Enqueue(v *VCPU, r EnqueueReason) { s.q = append(s.q, v) }
func (s *rrSched) PickNext(p *PCPU) *VCPU {
	if len(s.q) == 0 {
		return nil
	}
	v := s.q[0]
	s.q = s.q[1:]
	return v
}
func (s *rrSched) Slice(v *VCPU) sim.Time             { return s.slice }
func (s *rrSched) WakePreempts(p *PCPU, w *VCPU) bool { return s.preemptOnWake }
func (s *rrSched) OnTick(n *Node)                     {}
func (s *rrSched) OnPeriod(n *Node)                   {}

func testWorld(t *testing.T, nodes, pcpus int, slice sim.Time) *World {
	t.Helper()
	cfg := DefaultNodeConfig()
	cfg.PCPUs = pcpus
	cfg.Dom0VCPUs = 1
	w, err := NewWorld(nodes, cfg, netmodel.DefaultConfig(), func(n *Node) Scheduler {
		return &rrSched{node: n, slice: slice}
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// seqProc yields a fixed sequence of actions then Done.
type seqProc struct {
	actions []Action
	i       int
}

func (p *seqProc) Next() Action {
	if p.i >= len(p.actions) {
		return Done()
	}
	a := p.actions[p.i]
	p.i++
	return a
}

func TestFIFO(t *testing.T) {
	var q fifo[int]
	if q.len() != 0 {
		t.Fatal("new fifo not empty")
	}
	for i := 0; i < 200; i++ {
		q.push(i)
	}
	if q.peek() != 0 {
		t.Fatal("peek != 0")
	}
	for i := 0; i < 200; i++ {
		if got := q.pop(); got != i {
			t.Fatalf("pop = %d, want %d", got, i)
		}
	}
	// Interleaved pushes and pops exercise compaction.
	n := 0
	for i := 0; i < 500; i++ {
		q.push(i)
		if i%2 == 1 {
			if got := q.pop(); got != n {
				t.Fatalf("pop = %d, want %d", got, n)
			}
			n++
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("pop of empty fifo did not panic")
		}
	}()
	var empty fifo[int]
	empty.pop()
}

func TestSingleComputeCompletes(t *testing.T) {
	w := testWorld(t, 1, 1, 30*sim.Millisecond)
	vm := w.Node(0).NewVM("vm0", ClassParallel, 1, 0, 1)
	v := vm.VCPU(0)
	var doneAt sim.Time
	v.SetProcess(&seqProc{actions: []Action{
		Compute(5 * sim.Millisecond),
		{Kind: ActCompute, Work: sim.Millisecond, Then: func() { doneAt = w.Node(0).Engine().Now() }},
	}}, nil)
	w.Start()
	w.RunUntil(sim.Second)
	// dom0's initial dispatch-and-block plus two context switches put a
	// few microseconds ahead of the 6 ms of work.
	if doneAt < 6*sim.Millisecond || doneAt > 6*sim.Millisecond+50*sim.Microsecond {
		t.Errorf("compute finished at %v, want ~6ms", doneAt)
	}
	if v.Rounds() != 1 {
		t.Errorf("rounds = %d", v.Rounds())
	}
	if v.State() != StateIdle {
		t.Errorf("state = %v, want idle", v.State())
	}
	if got := v.RunTime(); got < 6*sim.Millisecond || got > 6*sim.Millisecond+20*sim.Microsecond {
		t.Errorf("RunTime = %v, want ~6ms", got)
	}
}

func TestRoundRobinPreemption(t *testing.T) {
	// Two compute-bound VCPUs on one PCPU with a 1 ms slice must
	// interleave and each finish ~at 2x their compute time.
	w := testWorld(t, 1, 1, sim.Millisecond)
	cfg := w.Node(0).Config()
	if cfg.CtxSwitchCost == 0 {
		t.Fatal("test requires nonzero context-switch cost")
	}
	vmA := w.Node(0).NewVM("a", ClassParallel, 1, 0, 1)
	vmB := w.Node(0).NewVM("b", ClassParallel, 1, 0, 1)
	var endA, endB sim.Time
	vmA.VCPU(0).SetProcess(&seqProc{actions: []Action{
		{Kind: ActCompute, Work: 10 * sim.Millisecond, Then: func() { endA = w.Node(0).Engine().Now() }},
	}}, nil)
	vmB.VCPU(0).SetProcess(&seqProc{actions: []Action{
		{Kind: ActCompute, Work: 10 * sim.Millisecond, Then: func() { endB = w.Node(0).Engine().Now() }},
	}}, nil)
	w.Start()
	w.RunUntil(sim.Second)
	if endA == 0 || endB == 0 {
		t.Fatal("compute did not finish")
	}
	// Perfect interleave: A finishes around 19-20 ms, B around 20-21 ms
	// (plus context switch costs).
	if endA < 18*sim.Millisecond || endA > 25*sim.Millisecond {
		t.Errorf("endA = %v", endA)
	}
	if endB <= endA || endB > 26*sim.Millisecond {
		t.Errorf("endB = %v (endA = %v)", endB, endA)
	}
	if vmA.CtxSwitches() < 8 {
		t.Errorf("ctx switches = %d, want ~10", vmA.CtxSwitches())
	}
}

func TestSpinlockUncontended(t *testing.T) {
	w := testWorld(t, 1, 1, 30*sim.Millisecond)
	vm := w.Node(0).NewVM("vm0", ClassParallel, 1, 0, 1)
	l := vm.NewLock()
	vm.VCPU(0).SetProcess(&seqProc{actions: []Action{
		Acquire(l), Compute(sim.Millisecond), Release(l),
		Acquire(l), Compute(sim.Millisecond), Release(l),
	}}, nil)
	w.Start()
	w.RunUntil(sim.Second)
	if l.Acquisitions() != 2 {
		t.Errorf("acquisitions = %d", l.Acquisitions())
	}
	if l.Contended() != 0 {
		t.Errorf("contended = %d, want 0", l.Contended())
	}
	if vm.SpinMon.LifetimeCount() != 2 || vm.SpinMon.LifetimeMean() != 0 {
		t.Errorf("monitor count=%d mean=%v", vm.SpinMon.LifetimeCount(), vm.SpinMon.LifetimeMean())
	}
}

// lhpLatency builds the deterministic Figure-3 scenario on one PCPU and
// returns the waiter's spin latency.
//
// FIFO order: dom0 (blocks immediately), holder, waiter, hog.
// The holder computes until just before its slice expires, acquires the
// lock, and is preempted ~200 µs into a 500 µs critical section. The
// waiter then requests the lock (spins a slice), the hog burns a slice,
// and only then does the holder finish and release. The waiter's latency
// is therefore ≈ 2 slices + 300 µs — proportional to the slice length of
// the *other* VMs, with a fixed critical section.
func lhpLatency(t *testing.T, slice sim.Time) sim.Time {
	t.Helper()
	w := testWorld(t, 1, 1, slice)
	node := w.Node(0)
	vmA := node.NewVM("a", ClassParallel, 2, 0, 1)
	vmB := node.NewVM("b", ClassNonParallel, 1, 0, 1)
	l := vmA.NewLock()

	vmA.VCPU(0).SetProcess(&seqProc{actions: []Action{
		Compute(slice - 200*sim.Microsecond),
		Acquire(l),
		Compute(500 * sim.Microsecond), // spans the slice boundary → LHP
		Release(l),
	}}, nil)
	vmA.VCPU(1).SetProcess(&seqProc{actions: []Action{
		Acquire(l),
		Release(l),
	}}, nil)
	vmB.VCPU(0).SetProcess(&seqProc{actions: []Action{
		Compute(10 * slice),
	}}, nil)

	w.Start()
	w.RunUntil(sim.Second)
	if l.Contended() != 1 {
		t.Fatalf("contended = %d, want 1 (slice %v)", l.Contended(), slice)
	}
	return vmA.SpinMon.LifetimeMax()
}

func TestLockHolderPreemptionProducesSpinLatency(t *testing.T) {
	slice := 5 * sim.Millisecond
	lat := lhpLatency(t, slice)
	// Expected ≈ 2·slice + 300 µs ≫ the 500 µs critical section.
	if lat < 2*slice || lat > 2*slice+sim.Millisecond {
		t.Errorf("spin latency = %v, want ~%v", lat, 2*slice+300*sim.Microsecond)
	}
}

func TestSpinLatencyScalesWithSliceLength(t *testing.T) {
	// The paper's core observation: with a fixed 500 µs critical section,
	// the waiter's latency is set by the other VMs' slice lengths.
	long := lhpLatency(t, 10*sim.Millisecond)
	short := lhpLatency(t, sim.Millisecond)
	if long < 20*sim.Millisecond {
		t.Errorf("10ms-slice latency = %v, want ≥ 2 slices", long)
	}
	if short > 4*sim.Millisecond {
		t.Errorf("1ms-slice latency = %v, want ~2.3ms", short)
	}
	if long < 5*short {
		t.Errorf("latency ratio %v/%v too small; slices should dominate", long, short)
	}
}

func TestCrossNodeMessage(t *testing.T) {
	w := testWorld(t, 2, 1, 30*sim.Millisecond)
	vmA := w.Node(0).NewVM("a", ClassParallel, 1, 0, 1)
	vmB := w.Node(1).NewVM("b", ClassParallel, 1, 0, 1)
	var recvAt sim.Time
	vmA.VCPU(0).SetProcess(&seqProc{actions: []Action{
		Send(vmB, 0, 7, 1500),
	}}, nil)
	vmB.VCPU(0).SetProcess(&seqProc{actions: []Action{
		{Kind: ActRecv, Tag: 7, Then: func() { recvAt = w.Node(1).Engine().Now() }},
	}}, nil)
	w.Start()
	w.RunUntil(sim.Second)
	if recvAt == 0 {
		t.Fatal("message never received")
	}
	// Path: guest send cost + dom0 tx + wire + dom0 rx + guest recv; all
	// nodes are idle so this is fast, but strictly positive.
	if recvAt < 50*sim.Microsecond {
		t.Errorf("recvAt = %v, implausibly fast", recvAt)
	}
	if recvAt > 5*sim.Millisecond {
		t.Errorf("recvAt = %v, implausibly slow on idle cluster", recvAt)
	}
	if vmA.PacketsSent() != 1 || vmB.PacketsReceived() != 1 {
		t.Errorf("sent=%d received=%d", vmA.PacketsSent(), vmB.PacketsReceived())
	}
	if w.Node(0).Backend().TxProcessed() != 1 {
		t.Errorf("node0 tx processed = %d", w.Node(0).Backend().TxProcessed())
	}
	if w.Node(1).Backend().RxProcessed() != 1 {
		t.Errorf("node1 rx processed = %d", w.Node(1).Backend().RxProcessed())
	}
}

func TestLocalMessageSkipsWire(t *testing.T) {
	w := testWorld(t, 1, 2, 30*sim.Millisecond)
	vmA := w.Node(0).NewVM("a", ClassParallel, 1, 0, 1)
	vmB := w.Node(0).NewVM("b", ClassParallel, 1, 0, 1)
	got := false
	vmA.VCPU(0).SetProcess(&seqProc{actions: []Action{Send(vmB, 0, 1, 100)}}, nil)
	vmB.VCPU(0).SetProcess(&seqProc{actions: []Action{
		{Kind: ActRecv, Tag: 1, Then: func() { got = true }},
	}}, nil)
	w.Start()
	w.RunUntil(sim.Second)
	if !got {
		t.Fatal("local message not delivered")
	}
	if w.Fabric.WireBytes() != 0 {
		t.Errorf("local traffic crossed the wire: %d bytes", w.Fabric.WireBytes())
	}
}

func TestMessageBeforeRecvIsQueued(t *testing.T) {
	w := testWorld(t, 1, 2, 30*sim.Millisecond)
	vmA := w.Node(0).NewVM("a", ClassParallel, 1, 0, 1)
	vmB := w.Node(0).NewVM("b", ClassParallel, 1, 0, 1)
	done := false
	vmA.VCPU(0).SetProcess(&seqProc{actions: []Action{Send(vmB, 0, 9, 64)}}, nil)
	// B computes a while first; the packet must wait in its mailbox.
	vmB.VCPU(0).SetProcess(&seqProc{actions: []Action{
		Compute(20 * sim.Millisecond),
		{Kind: ActRecv, Tag: 9, Then: func() { done = true }},
	}}, nil)
	w.Start()
	w.RunUntil(sim.Second)
	if !done {
		t.Fatal("queued message not consumed")
	}
}

func TestDiskRequestRoundTrip(t *testing.T) {
	w := testWorld(t, 1, 1, 30*sim.Millisecond)
	vm := w.Node(0).NewVM("d", ClassNonParallel, 1, 0, 1)
	var doneAt sim.Time
	vm.VCPU(0).SetProcess(&seqProc{actions: []Action{
		{Kind: ActDisk, Size: 1_000_000, Then: func() { doneAt = w.Node(0).Engine().Now() }},
	}}, nil)
	w.Start()
	w.RunUntil(sim.Second)
	if doneAt == 0 {
		t.Fatal("disk request never completed")
	}
	// 1 MB at 100 MB/s = 10 ms + positioning + scheduling.
	if doneAt < 10*sim.Millisecond || doneAt > 20*sim.Millisecond {
		t.Errorf("disk completion at %v", doneAt)
	}
	if w.Node(0).Backend().DiskProcessed() != 1 {
		t.Errorf("disk processed = %d", w.Node(0).Backend().DiskProcessed())
	}
	if vm.VCPU(0).Rounds() != 1 {
		t.Errorf("rounds = %d", vm.VCPU(0).Rounds())
	}
}

func TestSleepWakes(t *testing.T) {
	w := testWorld(t, 1, 1, 30*sim.Millisecond)
	vm := w.Node(0).NewVM("s", ClassNonParallel, 1, 0, 1)
	var wokeAt sim.Time
	vm.VCPU(0).SetProcess(&seqProc{actions: []Action{
		Sleep(25 * sim.Millisecond),
		{Kind: ActCompute, Work: 0, Then: func() { wokeAt = w.Node(0).Engine().Now() }},
	}}, nil)
	w.Start()
	w.RunUntil(sim.Second)
	if wokeAt < 25*sim.Millisecond || wokeAt > 26*sim.Millisecond {
		t.Errorf("woke at %v, want ~25ms", wokeAt)
	}
}

func TestOnDoneRestart(t *testing.T) {
	w := testWorld(t, 1, 1, 30*sim.Millisecond)
	vm := w.Node(0).NewVM("r", ClassParallel, 1, 0, 1)
	rounds := 0
	vm.VCPU(0).SetProcess(
		&seqProc{actions: []Action{Compute(sim.Millisecond)}},
		func(v *VCPU) Process {
			rounds++
			if rounds < 5 {
				return &seqProc{actions: []Action{Compute(sim.Millisecond)}}
			}
			return nil
		})
	w.Start()
	w.RunUntil(sim.Second)
	if rounds != 5 {
		t.Errorf("rounds = %d, want 5", rounds)
	}
	if vm.VCPU(0).Rounds() != 5 {
		t.Errorf("VCPU.Rounds = %d", vm.VCPU(0).Rounds())
	}
}

func TestIdleVCPURevival(t *testing.T) {
	w := testWorld(t, 1, 1, 30*sim.Millisecond)
	vm := w.Node(0).NewVM("i", ClassParallel, 1, 0, 1)
	v := vm.VCPU(0)
	first := false
	second := false
	v.SetProcess(&seqProc{actions: []Action{
		{Kind: ActCompute, Work: sim.Millisecond, Then: func() { first = true }},
	}}, nil)
	w.Start()
	w.RunUntil(100 * sim.Millisecond)
	if !first || v.State() != StateIdle {
		t.Fatalf("first=%v state=%v", first, v.State())
	}
	v.SetProcess(&seqProc{actions: []Action{
		{Kind: ActCompute, Work: sim.Millisecond, Then: func() { second = true }},
	}}, nil)
	w.Node(0).WakeIdle(v)
	w.RunUntil(200 * sim.Millisecond)
	if !second {
		t.Error("revived VCPU did not run")
	}
}

func TestRunqueueWaitAccounting(t *testing.T) {
	w := testWorld(t, 1, 1, 5*sim.Millisecond)
	vmA := w.Node(0).NewVM("a", ClassParallel, 1, 0, 1)
	vmB := w.Node(0).NewVM("b", ClassParallel, 1, 0, 1)
	vmA.VCPU(0).SetProcess(&seqProc{actions: []Action{Compute(20 * sim.Millisecond)}}, nil)
	vmB.VCPU(0).SetProcess(&seqProc{actions: []Action{Compute(20 * sim.Millisecond)}}, nil)
	w.Start()
	w.RunUntil(sim.Second)
	// Each waited roughly half the total makespan.
	if vmA.WaitTime()+vmB.WaitTime() < 30*sim.Millisecond {
		t.Errorf("total wait = %v, want ~40ms", vmA.WaitTime()+vmB.WaitTime())
	}
	if vmA.RunTime() < 20*sim.Millisecond {
		t.Errorf("vmA RunTime = %v", vmA.RunTime())
	}
}

func TestWorldValidation(t *testing.T) {
	cfg := DefaultNodeConfig()
	if _, err := NewWorld(0, cfg, netmodel.DefaultConfig(), nil); err == nil {
		t.Error("0 nodes accepted")
	}
	bad := cfg
	bad.PCPUs = 0
	if _, err := NewWorld(1, bad, netmodel.DefaultConfig(), func(n *Node) Scheduler { return &rrSched{slice: 1} }); err == nil {
		t.Error("0 PCPUs accepted")
	}
	if _, err := NewWorld(1, cfg, netmodel.DefaultConfig(), nil); err == nil {
		t.Error("nil factory accepted")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (sim.Time, uint64, int64) {
		w := testWorld(t, 2, 2, sim.Millisecond)
		vmA := w.Node(0).NewVM("a", ClassParallel, 2, 256<<10, 0.6)
		vmB := w.Node(1).NewVM("b", ClassParallel, 2, 256<<10, 0.6)
		l := vmA.NewLock()
		var finish sim.Time
		vmA.VCPU(0).SetProcess(&seqProc{actions: []Action{
			Acquire(l), Compute(2 * sim.Millisecond), Release(l),
			Send(vmB, 0, 1, 4096),
			{Kind: ActRecv, Tag: 2, Then: func() { finish = w.Node(0).Engine().Now() }},
		}}, nil)
		vmA.VCPU(1).SetProcess(&seqProc{actions: []Action{
			Compute(100 * sim.Microsecond), Acquire(l), Release(l),
		}}, nil)
		vmB.VCPU(0).SetProcess(&seqProc{actions: []Action{
			Recv(1), Compute(sim.Millisecond), Send(vmA, 0, 2, 4096),
		}}, nil)
		vmB.VCPU(1).SetProcess(&seqProc{actions: []Action{Compute(10 * sim.Millisecond)}}, nil)
		w.Start()
		w.RunUntil(sim.Second)
		return finish, w.Executed(), vmA.SpinMon.LifetimeCount()
	}
	f1, e1, c1 := run()
	f2, e2, c2 := run()
	if f1 != f2 || e1 != e2 || c1 != c2 {
		t.Errorf("non-deterministic: (%v,%d,%d) vs (%v,%d,%d)", f1, e1, c1, f2, e2, c2)
	}
	if f1 == 0 {
		t.Error("round trip never finished")
	}
}

func TestVMAccessors(t *testing.T) {
	w := testWorld(t, 1, 2, sim.Millisecond)
	vm := w.Node(0).NewVM("acc", ClassNonParallel, 3, 1<<20, 0.5)
	if vm.Name() != "acc" || vm.Class() != ClassNonParallel || len(vm.VCPUs()) != 3 {
		t.Error("accessors wrong")
	}
	if vm.Node() != w.Node(0) {
		t.Error("Node() wrong")
	}
	if vm.VCPU(2).Index() != 2 || vm.VCPU(2).VM() != vm {
		t.Error("VCPU accessors wrong")
	}
	if got := len(w.GuestVMs()); got != 1 {
		t.Errorf("GuestVMs = %d", got)
	}
	if got := len(w.VMs()); got != 2 { // + dom0
		t.Errorf("VMs = %d", got)
	}
	if w.Node(0).Dom0().Class() != ClassDom0 {
		t.Error("dom0 class wrong")
	}
	if s := vm.VCPU(0).String(); s != "acc/0" {
		t.Errorf("String = %q", s)
	}
}

func TestClassAndStateStrings(t *testing.T) {
	for _, c := range []VMClass{ClassParallel, ClassNonParallel, ClassDom0, VMClass(9)} {
		if c.String() == "" {
			t.Error("empty class string")
		}
	}
	for _, s := range []VCPUState{StateIdle, StateRunnable, StateRunning, StateBlocked, VCPUState(9)} {
		if s.String() == "" {
			t.Error("empty state string")
		}
	}
	for _, k := range []ActionKind{ActCompute, ActAcquire, ActRelease, ActSend, ActRecv, ActDisk, ActSleep, ActBlock, ActDone, ActionKind(99)} {
		if k.String() == "" {
			t.Error("empty kind string")
		}
	}
}

func TestSpinMonitorSamplePeriod(t *testing.T) {
	var m SpinMonitor
	if m.SamplePeriod() != 0 {
		t.Error("empty sample not 0")
	}
	m.Record(10 * sim.Millisecond)
	m.Record(20 * sim.Millisecond)
	if got := m.SamplePeriod(); got != 15*sim.Millisecond {
		t.Errorf("sample = %v", got)
	}
	if m.SamplePeriod() != 0 {
		t.Error("sample did not reset")
	}
	if m.LifetimeCount() != 2 || m.LifetimeMean() != 15*sim.Millisecond {
		t.Errorf("lifetime count=%d mean=%v", m.LifetimeCount(), m.LifetimeMean())
	}
	if m.LifetimeSum() != 30*sim.Millisecond {
		t.Errorf("sum = %v", m.LifetimeSum())
	}
}

func TestPCPUBusyAccounting(t *testing.T) {
	w := testWorld(t, 1, 1, 30*sim.Millisecond)
	vm := w.Node(0).NewVM("busy", ClassParallel, 1, 0, 1)
	vm.VCPU(0).SetProcess(&seqProc{actions: []Action{Compute(10 * sim.Millisecond)}}, nil)
	w.Start()
	w.RunUntil(100 * sim.Millisecond)
	p := w.Node(0).PCPUs()[0]
	if p.BusyTime() < 10*sim.Millisecond || p.BusyTime() > 12*sim.Millisecond {
		t.Errorf("BusyTime = %v", p.BusyTime())
	}
}

func TestReAcquireHeldLockPanics(t *testing.T) {
	w := testWorld(t, 1, 1, 30*sim.Millisecond)
	vm := w.Node(0).NewVM("x", ClassParallel, 1, 0, 1)
	l := vm.NewLock()
	vm.VCPU(0).SetProcess(&seqProc{actions: []Action{Acquire(l), Acquire(l)}}, nil)
	w.Start()
	defer func() {
		if recover() == nil {
			t.Error("double acquire did not panic")
		}
	}()
	w.RunUntil(sim.Second)
}

func TestReleaseUnheldLockPanics(t *testing.T) {
	w := testWorld(t, 1, 1, 30*sim.Millisecond)
	vm := w.Node(0).NewVM("x", ClassParallel, 1, 0, 1)
	l := vm.NewLock()
	vm.VCPU(0).SetProcess(&seqProc{actions: []Action{Release(l)}}, nil)
	w.Start()
	defer func() {
		if recover() == nil {
			t.Error("release of unheld lock did not panic")
		}
	}()
	w.RunUntil(sim.Second)
}
