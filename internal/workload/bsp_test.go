package workload

import (
	"testing"
	"testing/quick"

	"atcsched/internal/sim"
	"atcsched/internal/vmm"
)

// TestTagUniquenessProperty: within a window of rounds and iterations,
// the (dstProc, tag) mailbox key must be unique per in-flight message —
// i.e., tags never collide across (round, iter, src) triples.
func TestTagUniquenessProperty(t *testing.T) {
	f := func(roundsRaw, itersRaw, vmsRaw uint8) bool {
		rounds := int(roundsRaw%5) + 1
		iters := int(itersRaw%20) + 1
		nVMs := int(vmsRaw%6) + 2
		prof := NPB("lu", ClassA)
		prof.Iterations = iters
		app := &BSPApp{Profile: prof, VMs: make([]*vmm.VM, nVMs)}
		seen := map[int]bool{}
		for round := 0; round < rounds; round++ {
			for it := 0; it < iters; it++ {
				for src := 0; src < nVMs; src++ {
					tag := app.tag(round, it, src)
					if seen[tag] {
						return false
					}
					seen[tag] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBSPSingleProcessCluster(t *testing.T) {
	// Degenerate: one VM with one VCPU, no locks hit (LocksPerVM present
	// but LockOps still run), no comm.
	w := smallWorld(t, 1, 1, 30*sim.Millisecond)
	vm := w.Node(0).NewVM("solo", vmm.ClassParallel, 1, 0, 1)
	prof := NPB("ep", ClassA)
	prof.Iterations = 3
	app := NewBSPApp(prof, []*vmm.VM{vm}, 1)
	run := NewParallelRun(app, 2, false, nil)
	run.Install()
	w.Start()
	w.RunUntil(60 * sim.Second)
	if run.Rounds() != 2 {
		t.Fatalf("rounds = %d", run.Rounds())
	}
	if vm.PacketsSent() != 0 {
		t.Errorf("ep sent %d packets", vm.PacketsSent())
	}
}

func TestBSPTimesMonotoneRecorded(t *testing.T) {
	w := smallWorld(t, 1, 2, 30*sim.Millisecond)
	vm := w.Node(0).NewVM("m", vmm.ClassParallel, 2, 0, 1)
	prof := NPB("is", ClassA)
	prof.Iterations = 3
	app := NewBSPApp(prof, []*vmm.VM{vm}, 3)
	run := NewParallelRun(app, 4, false, nil)
	run.Install()
	w.Start()
	w.RunUntil(120 * sim.Second)
	times := run.Times()
	if len(times) != 4 {
		t.Fatalf("times = %v", times)
	}
	// MeanTime over target rounds must equal the mean of the recorded
	// times.
	var s float64
	for _, v := range times {
		s += v
	}
	if got := run.MeanTime(); got != s/4 {
		t.Errorf("MeanTime = %v, want %v", got, s/4)
	}
}

func TestSpinLatencyMeanWeightsByCount(t *testing.T) {
	w := smallWorld(t, 1, 1, 30*sim.Millisecond)
	vmA := w.Node(0).NewVM("a", vmm.ClassParallel, 1, 0, 1)
	vmB := w.Node(0).NewVM("b", vmm.ClassParallel, 1, 0, 1)
	app := &BSPApp{Profile: NPB("lu", ClassA), VMs: []*vmm.VM{vmA, vmB}}
	vmA.SpinMon.Record(10 * sim.Millisecond)
	vmA.SpinMon.Record(20 * sim.Millisecond)
	vmB.SpinMon.Record(40 * sim.Millisecond)
	// Weighted: (10+20+40)/3.
	want := sim.Time(70) * sim.Millisecond / 3
	got := app.SpinLatencyMean()
	if got < want-sim.Microsecond || got > want+sim.Microsecond {
		t.Errorf("SpinLatencyMean = %v, want %v", got, want)
	}
}

func TestSPECProfilesDistinct(t *testing.T) {
	ps := SPECProfiles()
	if len(ps) != 3 {
		t.Fatalf("profiles = %d", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		names[p.Name] = true
		if p.Work <= 0 || p.Footprint <= 0 || p.ColdRate <= 0 || p.ColdRate > 1 {
			t.Errorf("%s: bad profile %+v", p.Name, p)
		}
	}
	if !names["gcc"] || !names["bzip2"] || !names["sphinx3"] {
		t.Errorf("names = %v", names)
	}
	// sphinx3 is the most cache-hungry (paper's observation).
	var sphinx, bzip CPUJobProfile
	for _, p := range ps {
		switch p.Name {
		case "sphinx3":
			sphinx = p
		case "bzip2":
			bzip = p
		}
	}
	if sphinx.Footprint <= bzip.Footprint || sphinx.ColdRate >= bzip.ColdRate {
		t.Error("sphinx3 not the most cache-sensitive profile")
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	base := NPB("lu", ClassB)
	muts := []func(*AppProfile){
		func(p *AppProfile) { p.Name = "" },
		func(p *AppProfile) { p.ComputePerIter = -1 },
		func(p *AppProfile) { p.ComputeJitter = 2 },
		func(p *AppProfile) { p.MsgSize = -1 },
		func(p *AppProfile) { p.LockOpsPerIter = 2; p.LocksPerVM = 0 },
		func(p *AppProfile) { p.Iterations = 0 },
		func(p *AppProfile) { p.ColdRate = 0 },
	}
	for i, m := range muts {
		p := base
		m(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestIntraVMBarrierSynchronizesRanks(t *testing.T) {
	// With the spin-barrier on, no rank may start iteration k+1 before
	// every sibling finished iteration k. Verify via rounds: all ranks
	// complete, and barrier lock traffic is substantial.
	w := smallWorld(t, 1, 2, 5*sim.Millisecond)
	vm := w.Node(0).NewVM("bar", vmm.ClassParallel, 4, 0, 1)
	prof := NPB("lu", ClassA)
	prof.Iterations = 6
	prof.IntraVMBarrier = true
	app := NewBSPApp(prof, []*vmm.VM{vm}, 5)
	if app.Profile.BarrierPollGap == 0 {
		t.Fatal("poll gap default not applied")
	}
	run := NewParallelRun(app, 2, false, nil)
	run.Install()
	w.Start()
	w.RunUntil(120 * sim.Second)
	if run.Rounds() != 2 {
		t.Fatalf("rounds = %d", run.Rounds())
	}
	// The barrier lock is the last lock created on the VM.
	locks := vm.Locks()
	barrierLock := locks[len(locks)-1]
	// Each iteration: every rank acquires at least once (arrival) and
	// pollers more: 4 ranks x 6 iters x 2 rounds = >= 48 acquisitions.
	if barrierLock.Acquisitions() < 48 {
		t.Errorf("barrier acquisitions = %d, want >= 48", barrierLock.Acquisitions())
	}
	w.MustAudit()
}

func TestBarrierDeterminism(t *testing.T) {
	run := func() (float64, uint64) {
		w := smallWorld(t, 1, 2, 5*sim.Millisecond)
		vm := w.Node(0).NewVM("bar", vmm.ClassParallel, 3, 0, 1)
		prof := NPB("cg", ClassA)
		prof.Iterations = 4
		prof.IntraVMBarrier = true
		app := NewBSPApp(prof, []*vmm.VM{vm}, 7)
		r := NewParallelRun(app, 2, false, nil)
		r.Install()
		w.Start()
		w.RunUntil(60 * sim.Second)
		return r.MeanTime(), w.Executed()
	}
	m1, e1 := run()
	m2, e2 := run()
	if m1 != m2 || e1 != e2 {
		t.Errorf("barrier run not deterministic: (%v,%d) vs (%v,%d)", m1, e1, m2, e2)
	}
	if m1 <= 0 {
		t.Fatal("no rounds completed")
	}
}
