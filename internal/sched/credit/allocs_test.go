package credit_test

import (
	"testing"

	"atcsched/internal/sched/credit"
	"atcsched/internal/vmm"
)

// TestRunqueueChurnAllocs pins the in-place runqueues: once warm, an
// Enqueue/EnqueueFront/Dequeue/PickNext churn over every queue position
// allocates nothing.
func TestRunqueueChurnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	w := world(t, 1, 2, credit.DefaultOptions())
	n := w.Node(0)
	vs := n.NewVM("churn", vmm.ClassParallel, 4, 0, 1).VCPUs()
	s := n.Scheduler().(*credit.Scheduler)
	for _, v := range n.VCPUs() {
		s.Register(v)
	}
	p0, p1 := n.PCPUs()[0], n.PCPUs()[1]
	churn := func() {
		s.Enqueue(vs[0], vmm.EnqueueWake)
		s.Enqueue(vs[1], vmm.EnqueuePreempt)
		s.Enqueue(vs[2], vmm.EnqueueNew)
		s.EnqueueFront(vs[3], 1)
		if !s.Dequeue(vs[1]) {
			t.Fatal("Dequeue of a queued VCPU failed")
		}
		picked := 0
		for s.PickNext(p0) != nil {
			picked++
		}
		for s.PickNext(p1) != nil {
			picked++
		}
		if picked != 3 {
			t.Fatalf("picked %d VCPUs, want 3", picked)
		}
	}
	churn()
	if avg := testing.AllocsPerRun(100, churn); avg != 0 {
		t.Errorf("warm runqueue churn allocates %.2f objects per cycle, want 0", avg)
	}
}
