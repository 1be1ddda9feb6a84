package workload

import (
	"fmt"

	"atcsched/internal/rng"
	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
	"atcsched/internal/vmm"
)

// BSPApp is one parallel application instance running across a virtual
// cluster (one process per VCPU of every member VM).
type BSPApp struct {
	Profile AppProfile
	VMs     []*vmm.VM
	locks   [][]*vmm.Spinlock
	seed    uint64
	// barriers holds per-VM barrier state when IntraVMBarrier is set.
	barriers []*vmBarrier
}

// vmBarrier is a spin-barrier across one VM's ranks: a lock-protected
// arrival counter plus a generation number the waiters poll.
type vmBarrier struct {
	lock    *vmm.Spinlock
	n       int
	arrived int
	gen     uint64
}

// NewBSPApp binds a profile to a virtual cluster: it creates the guest
// locks and installs the per-process cache profiles. Call before
// World.Start.
func NewBSPApp(profile AppProfile, vms []*vmm.VM, seed uint64) *BSPApp {
	if err := profile.Validate(); err != nil {
		panic(err)
	}
	if len(vms) == 0 {
		panic("workload: BSP app needs at least one VM")
	}
	app := &BSPApp{Profile: profile, VMs: vms, seed: seed}
	if profile.IntraVMBarrier && profile.BarrierPollGap == 0 {
		app.Profile.BarrierPollGap = 20 * sim.Microsecond
	}
	for _, vm := range vms {
		var ls []*vmm.Spinlock
		for i := 0; i < profile.LocksPerVM; i++ {
			ls = append(ls, vm.NewLock())
		}
		app.locks = append(app.locks, ls)
		if app.Profile.IntraVMBarrier {
			app.barriers = append(app.barriers, &vmBarrier{lock: vm.NewLock(), n: len(vm.VCPUs())})
		}
		for _, v := range vm.VCPUs() {
			v.SetCacheProfile(profile.Footprint, profile.ColdRate)
		}
	}
	return app
}

// Processes returns the total process count (VMs × VCPUs).
func (a *BSPApp) Processes() int {
	n := 0
	for _, vm := range a.VMs {
		n += len(vm.VCPUs())
	}
	return n
}

// SpinLatencyMean returns the mean guest spinlock latency across the
// cluster's VMs (the paper's Figure 5 y-axis).
func (a *BSPApp) SpinLatencyMean() sim.Time {
	var sum sim.Time
	var n int64
	for _, vm := range a.VMs {
		c := vm.SpinMon.LifetimeCount()
		sum += vm.SpinMon.LifetimeMean() * sim.Time(c)
		n += c
	}
	if n == 0 {
		return 0
	}
	return sum / sim.Time(n)
}

// LLCMisses sums the member VMs' cache misses (Figure 8).
func (a *BSPApp) LLCMisses() uint64 {
	var m uint64
	for _, vm := range a.VMs {
		m += vm.LLCMisses()
	}
	return m
}

// tag encodes (round, iteration, source VM) uniquely; together with the
// destination process rank it forms the mailbox key.
func (a *BSPApp) tag(round, iter, srcVM int) int {
	return (round*a.Profile.Iterations+iter)*len(a.VMs) + srcVM
}

// proc returns the process state machine for (vmIdx, rank) in the given
// round.
func (a *BSPApp) proc(vmIdx, rank, round int) vmm.Process {
	return &bspProc{
		app:   a,
		vmIdx: vmIdx,
		rank:  rank,
		round: round,
		rng:   rng.NewStream(a.seed, uint64(round)<<32|uint64(vmIdx)<<16|uint64(rank)),
	}
}

// bspProc executes Profile.Iterations supersteps: compute, intra-VM
// lock sections, cross-VM sends, then blocking receives.
type bspProc struct {
	app   *BSPApp
	vmIdx int
	rank  int
	round int
	rng   *rng.Source

	iter    int
	queue   []vmm.Action
	qi      int
	started bool
	// peers is the reusable buffer for the iteration's send/recv peers.
	peers []int

	// Spin-barrier sub-state (IntraVMBarrier): the flat action queue
	// cannot express the data-dependent poll loop, so Next drives it.
	barrierPending bool // run a barrier once the queue drains
	inBarrier      bool
	bState         int // 0: acquire, 1: release, 2: poll gap or exit
	bArrived       bool
	bReleased      bool
	bGen           uint64
}

// Next implements vmm.Process.
func (p *bspProc) Next() vmm.Action {
	if p.inBarrier {
		return p.barrierNext()
	}
	if p.qi >= len(p.queue) {
		if p.barrierPending {
			p.enterBarrier()
			return p.barrierNext()
		}
		if p.started && p.iter >= p.app.Profile.Iterations {
			return vmm.Done()
		}
		if !p.started {
			p.started = true
		}
		p.buildIteration()
		if p.qi >= len(p.queue) && !p.barrierPending {
			return vmm.Done()
		}
		return p.Next()
	}
	a := p.queue[p.qi]
	p.qi++
	return a
}

// enterBarrier arms the spin-barrier sub-machine for this iteration.
func (p *bspProc) enterBarrier() {
	p.barrierPending = false
	p.inBarrier = true
	p.bState = 0
	p.bArrived = false
	p.bReleased = false
}

// barrierNext emits the next barrier action: acquire the barrier lock
// (arriving and checking the generation under it), release, and either
// exit or burn a poll gap and try again. All the spinning happens on a
// real guest lock, so barrier waits show up in the VM's spin monitor —
// §II-B's picture of synchronization phases.
func (p *bspProc) barrierNext() vmm.Action {
	b := p.app.barriers[p.vmIdx]
	switch p.bState {
	case 0:
		p.bState = 1
		return vmm.Action{Kind: vmm.ActAcquire, Lock: b.lock, Then: func() {
			if !p.bArrived {
				p.bGen = b.gen
				b.arrived++
				p.bArrived = true
				if b.arrived == b.n {
					b.arrived = 0
					b.gen++
				}
			}
			if b.gen != p.bGen {
				p.bReleased = true
			}
		}}
	case 1:
		p.bState = 2
		return vmm.Release(b.lock)
	default:
		if p.bReleased {
			p.inBarrier = false
			return p.Next()
		}
		p.bState = 0
		return vmm.Compute(p.app.Profile.BarrierPollGap)
	}
}

// buildIteration materializes the action list for the next superstep.
func (p *bspProc) buildIteration() {
	pr := &p.app.Profile
	if p.iter >= pr.Iterations {
		p.queue = nil
		p.qi = 0
		return
	}
	it := p.iter
	p.iter++
	q := p.queue[:0]

	// Compute phase (jittered so ranks de-synchronize realistically).
	work := sim.Time(p.rng.Jitter(float64(pr.ComputePerIter), pr.ComputeJitter))
	q = append(q, vmm.Compute(work))

	// Intra-VM shared-memory synchronization: short spinlock critical
	// sections against sibling processes.
	locks := p.app.locks[p.vmIdx]
	for k := 0; k < pr.LockOpsPerIter; k++ {
		l := locks[(p.rank+k)%len(locks)]
		q = append(q,
			vmm.Acquire(l),
			vmm.Compute(pr.CSLength),
			vmm.Release(l),
		)
	}

	// Cross-VM exchange: post all sends, then wait for all receives.
	n := len(p.app.VMs)
	p.peers = pr.Pattern.sendTo(p.peers, it, p.vmIdx, n)
	for _, dst := range p.peers {
		q = append(q, vmm.Send(p.app.VMs[dst], p.rank, p.app.tag(p.round, it, p.vmIdx), pr.MsgSize))
	}
	p.peers = pr.Pattern.recvFrom(p.peers, it, p.vmIdx, n)
	for _, src := range p.peers {
		q = append(q, vmm.RecvPoll(p.app.tag(p.round, it, src), pr.RecvPoll))
	}

	p.queue = q
	p.qi = 0
	p.barrierPending = pr.IntraVMBarrier
}

// ParallelRun drives a BSPApp for repeated rounds (the paper reruns each
// application with a batch script): it installs the processes, restarts
// every process when all of them finish a round, and records per-round
// wall times.
//
// The run coordinates from a "home" node — the node hosting the app's
// first VM. Completion notes and round restarts travel between nodes as
// cross-node signals with one network lookahead of delay, modelling the
// coordination RPCs a real batch script would make, and keeping the
// round protocol independent of how nodes map to shards.
type ParallelRun struct {
	App  *BSPApp
	home *vmm.Node
	// TargetRounds is how many rounds to measure; OnTarget fires once
	// when reached. The run keeps repeating afterwards when Forever is
	// set (background load in the mixed experiments).
	TargetRounds int
	Forever      bool
	OnTarget     func()

	// nodes groups the app's VMs by hosting node, in first-appearance
	// order — the restart fan-out unit.
	nodes []runNode
	// hook is the per-VCPU OnDone callback and noteFn the home-side
	// completion note, each bound once.
	hook   func(*vmm.VCPU) vmm.Process
	noteFn func()

	times     []float64
	startedAt sim.Time
	remaining int
	round     int
	fired     bool
}

// runNode is one node's slice of the app: the indices into App.VMs of
// the VMs it hosts.
type runNode struct {
	node   *vmm.Node
	vmIdxs []int
}

// NewParallelRun builds a runner; call Install before World.Start.
func NewParallelRun(app *BSPApp, targetRounds int, forever bool, onTarget func()) *ParallelRun {
	if targetRounds <= 0 {
		panic(fmt.Sprintf("workload: target rounds must be positive, got %d", targetRounds))
	}
	if app == nil || len(app.VMs) == 0 {
		panic("workload: parallel run needs an app with at least one VM")
	}
	return &ParallelRun{
		App:          app,
		home:         app.VMs[0].Node(),
		TargetRounds: targetRounds,
		Forever:      forever,
		OnTarget:     onTarget,
	}
}

// publishRound emits a BSP round span into the home node's telemetry
// registry (no-op without an attached plane). The span covers the round
// just completed; Value carries the round index.
func (r *ParallelRun) publishRound(now sim.Time) {
	reg := r.home.TelemetryRegistry()
	if reg == nil {
		return
	}
	reg.AddSpan(telemetry.Span{
		Name:  "round",
		Track: r.App.VMs[0].Name(),
		Node:  r.home.ID(),
		Start: r.startedAt,
		End:   now,
		Value: sim.Time(r.round),
	})
}

// Install sets up round 0's processes on every VCPU of the cluster.
func (r *ParallelRun) Install() {
	r.hook = r.onDone
	r.noteFn = r.noteDone
	for vmIdx, vm := range r.App.VMs {
		n := vm.Node()
		found := false
		for i := range r.nodes {
			if r.nodes[i].node == n {
				r.nodes[i].vmIdxs = append(r.nodes[i].vmIdxs, vmIdx)
				found = true
				break
			}
		}
		if !found {
			r.nodes = append(r.nodes, runNode{node: n, vmIdxs: []int{vmIdx}})
		}
	}
	r.remaining = r.App.Processes()
	r.startedAt = r.home.Engine().Now()
	for vmIdx, vm := range r.App.VMs {
		for rank, v := range vm.VCPUs() {
			v.SetProcess(r.App.proc(vmIdx, rank, r.round), r.hook)
		}
	}
}

// onDone is the per-process completion hook: the finishing VCPU idles
// immediately and a completion note travels to the home node as a
// cross-node signal, so the "last finisher" decision happens on one
// deterministic timeline regardless of sharding.
func (r *ParallelRun) onDone(v *vmm.VCPU) vmm.Process {
	w := r.home.World()
	w.CrossNodeSignal(v.VM().Node(), r.home, r.noteFn)
	return nil
}

// noteDone runs on the home node's engine once per completed process;
// the last note of a round records the time and fans the restart out to
// every hosting node.
func (r *ParallelRun) noteDone() {
	r.remaining--
	if r.remaining > 0 {
		return
	}
	now := r.home.Engine().Now()
	r.times = append(r.times, (now - r.startedAt).Seconds())
	r.publishRound(now)
	r.round++
	if r.round >= r.TargetRounds && !r.fired {
		r.fired = true
		if r.OnTarget != nil {
			r.OnTarget()
		}
	}
	if r.round >= r.TargetRounds && !r.Forever {
		return
	}
	r.startedAt = now
	r.remaining = r.App.Processes()
	round := r.round
	w := r.home.World()
	for i := range r.nodes {
		nd := &r.nodes[i]
		if nd.node == r.home {
			r.restartOn(nd, round)
			continue
		}
		w.CrossNodeSignal(r.home, nd.node, func() { r.restartOn(nd, round) })
	}
}

// restartOn revives one node's share of the app for the given round. By
// the time it runs, every VCPU it touches has been idle since it sent
// its completion note, so SetProcess is legal.
func (r *ParallelRun) restartOn(nd *runNode, round int) {
	for _, vmIdx := range nd.vmIdxs {
		vm := r.App.VMs[vmIdx]
		for rank, u := range vm.VCPUs() {
			u.SetProcess(r.App.proc(vmIdx, rank, round), r.hook)
			nd.node.WakeIdle(u)
		}
	}
}

// Rounds returns the number of completed rounds.
func (r *ParallelRun) Rounds() int { return r.round }

// Times returns the per-round wall times in seconds.
func (r *ParallelRun) Times() []float64 { return append([]float64(nil), r.times...) }

// MeanTime returns the mean wall time of the first TargetRounds rounds
// (or all completed rounds if fewer).
func (r *ParallelRun) MeanTime() float64 {
	n := r.TargetRounds
	if n > len(r.times) {
		n = len(r.times)
	}
	if n == 0 {
		return 0
	}
	var s float64
	for _, t := range r.times[:n] {
		s += t
	}
	return s / float64(n)
}
