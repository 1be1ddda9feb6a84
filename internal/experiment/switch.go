package experiment

import (
	"fmt"

	"atcsched/internal/cluster"
	"atcsched/internal/metrics"
	"atcsched/internal/report"
	"atcsched/internal/sim"
	"atcsched/internal/vmm"
	"atcsched/internal/workload"
)

// switchWindows splits the run into fixed observation windows; the flip
// happens after preWindows of baseline.
const (
	switchWindow  = 300 * sim.Millisecond // 10 scheduling periods
	preWindows    = 6
	postWindows   = 12
	settleWindows = 4 // last windows of the post phase = "recovered"
)

// spinWatch reports the cluster-wide mean spin latency accumulated
// since the previous delta call, using the monitors' lifetime counters
// (the per-period accumulators belong to the schedulers).
type spinWatch struct {
	sum   sim.Time
	count int64
}

func (sw *spinWatch) delta(w *vmm.World) sim.Time {
	var sum sim.Time
	var count int64
	for _, vm := range w.GuestVMs() {
		sum += vm.SpinMon.LifetimeSum()
		count += vm.SpinMon.LifetimeCount()
	}
	dSum, dCount := sum-sw.sum, count-sw.count
	sw.sum, sw.count = sum, count
	if dCount == 0 {
		return 0
	}
	return dSum / sim.Time(dCount)
}

func init() {
	register(Experiment{
		ID: "switch",
		Title: "Extension — live policy switching: spin latency before and after " +
			"flipping a running CR cluster to ATC at a period boundary",
		Run: func(sc Scale, seed uint64) ([]*report.Table, error) {
			nodes := sc.NodeSteps[0]
			cfg := cluster.DefaultConfig(nodes, cluster.CR)
			cfg.Seed = seed
			s, err := cluster.New(cfg)
			if err != nil {
				return nil, err
			}
			// Two overcommitted virtual clusters per the type-A placement,
			// running forever: the metric is the steady-state spin latency
			// per window, not completion time.
			prof := workload.NPB("lu", workload.ClassB)
			prof.Iterations = iterCount(prof.Iterations, sc.IterScale)
			for vc := 0; vc < 2; vc++ {
				vms := s.VirtualCluster(fmt.Sprintf("vc%d", vc), nodes, sc.VCPUsPerVM, nil)
				s.RunBackground(prof, vms)
			}

			t := report.New(
				"cluster-wide spin latency per window across a live CR→ATC switch",
				"Window", "t(end)", "Policy", "Spin mean")
			var watch spinWatch
			var pre, post []float64
			s.GoFor(switchWindow)
			mean := watch.delta(s.World)
			pre = append(pre, mean.Seconds())
			t.Add("1", fmt.Sprintf("%v", s.World.Now()), "CR", mean.String())
			for w := 2; w <= preWindows; w++ {
				s.ContinueFor(switchWindow)
				mean = watch.delta(s.World)
				pre = append(pre, mean.Seconds())
				t.Add(fmt.Sprint(w), fmt.Sprintf("%v", s.World.Now()), "CR", mean.String())
			}

			// The live flip: every node swaps to ATC at its next period
			// boundary; nothing is rebuilt or restarted.
			f, err := cluster.SchedSpec{Kind: cluster.ATC}.Factory()
			if err != nil {
				return nil, err
			}
			for _, n := range s.World.Nodes() {
				if err := n.SwapScheduler(f); err != nil {
					return nil, err
				}
			}

			for w := 1; w <= postWindows; w++ {
				s.ContinueFor(switchWindow)
				mean = watch.delta(s.World)
				post = append(post, mean.Seconds())
				t.Add(fmt.Sprint(preWindows+w), fmt.Sprintf("%v", s.World.Now()),
					s.World.Node(0).Scheduler().Name(), mean.String())
			}
			for _, n := range s.World.Nodes() {
				if n.Scheduler().Name() != "ATC" || n.Swaps() != 1 {
					return nil, fmt.Errorf("switch: node %d did not swap (sched %s, swaps %d)",
						n.ID(), n.Scheduler().Name(), n.Swaps())
				}
			}
			if errs := s.World.Audit(); len(errs) > 0 {
				return nil, fmt.Errorf("switch: audit after swap: %v", errs[0])
			}

			preMean := metrics.Mean(pre)
			settled := metrics.Mean(post[len(post)-settleWindows:])
			if settled > 0 {
				t.AddNote("steady CR spin mean %.0fµs → settled ATC %.0fµs (%.1fx lower); "+
					"ATC's controller needs a few periods of history after the flip before slices shorten.",
					preMean*1e6, settled*1e6, preMean/settled)
			}
			return []*report.Table{t}, nil
		},
	})
}
