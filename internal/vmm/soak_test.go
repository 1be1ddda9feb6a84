package vmm_test

import (
	"fmt"
	"runtime"
	"testing"

	"atcsched/internal/netmodel"
	"atcsched/internal/sched/credit"
	"atcsched/internal/sim"
	"atcsched/internal/vmm"
	"atcsched/internal/workload"
)

// ringProfile is the hollow-node BSP shape: short compute and one ring
// message per iteration, so message traffic dominates.
func ringProfile() workload.AppProfile {
	return workload.AppProfile{
		Name:           "soak-ring",
		ComputePerIter: 200 * sim.Microsecond,
		Pattern:        workload.PatternRing,
		MsgSize:        4 << 10,
		Iterations:     50,
		Footprint:      4 << 20,
		ColdRate:       0.01,
	}
}

// smallWorld builds an unstarted world of hollow nodes: two PCPUs and
// one dom0 VCPU each, under stock credit.
func smallWorld(nodes int) *vmm.World {
	cfg := vmm.DefaultNodeConfig()
	cfg.PCPUs = 2
	cfg.Dom0VCPUs = 1
	return vmm.MustNewWorld(nodes, cfg, netmodel.DefaultConfig(), credit.Factory(credit.DefaultOptions()))
}

// ringWorld starts a BSP ring app of one vmsPerNode×vcpus VMs per node,
// repeating rounds forever. Two VMs on one node exercise the node-local
// bridge as well as the wire.
func ringWorld(nodes, vmsPerNode, vcpus int) *vmm.World {
	w := smallWorld(nodes)
	var vms []*vmm.VM
	for i := 0; i < nodes; i++ {
		for j := 0; j < vmsPerNode; j++ {
			vms = append(vms, w.Node(i).NewVM(fmt.Sprintf("ring%d-%d", i, j), vmm.ClassParallel, vcpus, 0, 1))
		}
	}
	app := workload.NewBSPApp(ringProfile(), vms, 1)
	workload.NewParallelRun(app, 1, true, nil).Install()
	w.Start()
	return w
}

// soakWorlds builds one started world per workload kind.
var soakWorlds = []struct {
	name  string
	build func() *vmm.World
}{
	{"bsp-ring", func() *vmm.World { return ringWorld(2, 2, 2) }},
	{"ping", func() *vmm.World {
		w := smallWorld(2)
		client := w.Node(0).NewVM("client", vmm.ClassNonParallel, 1, 0, 1)
		echo := w.Node(1).NewVM("echo", vmm.ClassNonParallel, 1, 0, 1)
		workload.NewPingJob(client, 0, echo, 0, sim.Millisecond)
		w.Start()
		return w
	}},
	{"web", func() *vmm.World {
		w := smallWorld(2)
		client := w.Node(0).NewVM("client", vmm.ClassNonParallel, 1, 0, 1)
		server := w.Node(1).NewVM("server", vmm.ClassNonParallel, 1, 0, 1)
		workload.NewWebJob(client, 0, server, 0, sim.Millisecond, 200*sim.Microsecond, 1)
		w.Start()
		return w
	}},
	{"disk", func() *vmm.World {
		w := smallWorld(1)
		workload.NewDiskJob(w.Node(0).NewVM("disk", vmm.ClassNonParallel, 1, 0, 1).VCPU(0))
		w.Start()
		return w
	}},
	{"stream", func() *vmm.World {
		w := smallWorld(1)
		workload.NewStreamJob(w.Node(0).NewVM("stream", vmm.ClassNonParallel, 1, 0, 1).VCPU(0))
		w.Start()
		return w
	}},
}

// liveHeap returns the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSoakBoundedMemory runs every workload kind for N and then 4N
// scheduling periods. Live mailbox entries and queued events must not
// grow beyond a small constant between the two points. Live-heap growth
// depends on the collector, so it is only reported (advisory, beyond
// 1 MiB) and never fails the test.
func TestSoakBoundedMemory(t *testing.T) {
	const (
		n         = 25 // scheduling periods in the first leg
		mailSlack = 4
		pendSlack = 8
		heapSlack = 1 << 20
	)
	for _, tc := range soakWorlds {
		t.Run(tc.name, func(t *testing.T) {
			w := tc.build()
			period := w.Node(0).Config().SchedPeriod
			w.RunUntil(n * period)
			mail1, pend1, ev1 := w.MailEntries(), w.Eng.Pending(), w.Executed()
			heap1 := liveHeap()
			w.RunUntil(4 * n * period)
			mail4, pend4, ev4 := w.MailEntries(), w.Eng.Pending(), w.Executed()
			heap4 := liveHeap()
			t.Logf("after %d/%d periods: mail %d/%d, pending %d/%d, live heap %d/%d B, events %d/%d",
				n, 4*n, mail1, mail4, pend1, pend4, heap1, heap4, ev1, ev4)
			if ev4-ev1 < 100 {
				t.Fatalf("only %d events in the soak leg; the workload is not running", ev4-ev1)
			}
			if errs := w.Audit(); len(errs) > 0 {
				t.Errorf("audit: %d violations, first: %v", len(errs), errs[0])
			}
			if mail4 > mail1+mailSlack {
				t.Errorf("mailbox entries grew %d -> %d (slack %d)", mail1, mail4, mailSlack)
			}
			if pend4 > pend1+pendSlack {
				t.Errorf("pending events grew %d -> %d (slack %d)", pend1, pend4, pendSlack)
			}
			if heap4 > heap1+heapSlack {
				t.Logf("advisory: live heap grew %d -> %d B (slack %d)", heap1, heap4, heapSlack)
			}
			runtime.KeepAlive(w)
		})
	}
}

// TestMailboxAuditBSPRing checks the mailbox lifecycle invariant on a
// BSP ring: every drained (proc, tag) entry is deleted, so Audit finds
// no empty mailbox at any period boundary.
func TestMailboxAuditBSPRing(t *testing.T) {
	w := ringWorld(2, 2, 2)
	period := w.Node(0).Config().SchedPeriod
	var received uint64
	for k := 1; k <= 10; k++ {
		w.RunUntil(sim.Time(k) * period)
		if errs := w.Audit(); len(errs) > 0 {
			t.Fatalf("period %d: %d audit violations, first: %v", k, len(errs), errs[0])
		}
	}
	for _, vm := range w.GuestVMs() {
		received += vm.PacketsReceived()
	}
	if received == 0 {
		t.Fatal("no packets delivered; the ring is not exchanging")
	}
}

// TestHollowRingAllocsPerEvent pins the vmm/sched/workload hot path:
// a small hollow ring world, stepped one scheduling period at a time
// after warm-up, averages at most 0.25 heap allocations per executed
// event. What remains is per packet (the fabric's delivery closures)
// and per round (fresh BSP processes).
func TestHollowRingAllocsPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const (
		runs = 20
		max  = 0.25
	)
	w := ringWorld(4, 1, 1)
	period := w.Node(0).Config().SchedPeriod
	w.RunUntil(10 * period)
	before := w.Executed()
	// AllocsPerRun makes one untimed warm-up call before its runs.
	allocs := testing.AllocsPerRun(runs, func() { w.RunUntil(w.Now() + period) })
	events := float64(w.Executed()-before) / (runs + 1)
	perEvent := allocs / events
	t.Logf("%.1f allocs and %.0f events per period: %.3f allocs/event", allocs, events, perEvent)
	if perEvent > max {
		t.Errorf("hot path allocates %.3f objects per event, want <= %.2f", perEvent, max)
	}
}
