package proptest

import (
	"fmt"
	"strings"

	"atcsched/internal/cluster"
	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
	"atcsched/internal/vmm"
	"atcsched/internal/workload"
)

// auditEvery is the virtual-time interval between mid-run audits.
const auditEvery = 25 * sim.Millisecond

// traceCap bounds the determinism tracer's memory; dropped records still
// contribute to the fingerprint through the drop counter.
const traceCap = 50000

// result captures everything the battery measures for one approach on
// one Spec.
type result struct {
	approach  cluster.Approach
	completed bool
	// runRounds, clusterSent and clusterRounds are indexed like
	// Spec.Clusters: completed run rounds, packets posted by the
	// cluster's VMs, and summed per-VCPU process rounds.
	runRounds     []int
	clusterSent   []uint64
	clusterRounds []uint64
	// stateErrs are liveness violations observed on parallel VCPUs after
	// the run (non-idle or spinning).
	stateErrs []string
	// auditViols are the violations the periodic audit hook retained;
	// finalAudit is one more full audit of the end state.
	auditViols []error
	finalAudit []error
	// auditTimes are the virtual times the hook observed, in call order —
	// the clock-monotonicity witness.
	auditTimes []sim.Time
	// endTime, swaps and tick witness the live-switch property: per-node
	// applied-swap counts at the end of the run, the virtual end time,
	// and the scheduling period (swaps apply at period boundaries).
	endTime sim.Time
	swaps   []uint64
	tick    sim.Time
	// fingerprint is set only for traced runs: result stats plus the
	// rendered scheduling trace, compared byte-for-byte across replays.
	fingerprint string
}

// runOne builds the Spec's world under one approach, drives it to
// completion (or the horizon) and collects the battery's observables.
// With traced set a bounded scheduling tracer is attached and the full
// fingerprint is rendered.
func runOne(spec Spec, approach cluster.Approach, traced bool) (*result, error) {
	cfg := cluster.DefaultConfig(spec.Nodes, approach)
	cfg.Seed = spec.Seed
	cfg.Node.PCPUs = spec.PCPUs
	cfg.Shards = spec.Shards
	if spec.FixedSliceMs > 0 {
		cfg.Sched.FixedSlice = sim.FromMillis(spec.FixedSliceMs)
	}
	cfg.Sched.DisableBoost = spec.DisableBoost
	cfg.Sched.DisableSteal = spec.DisableSteal
	cfg.Faults = spec.Faults
	if spec.Telemetry {
		// Instrumented runs must fingerprint identically to bare ones:
		// the battery attaches a full plane and otherwise changes nothing.
		cfg.Telemetry = telemetry.New(telemetry.Options{})
	}
	for i, k := range spec.NodeKinds {
		if k == "" {
			continue
		}
		if cfg.NodePolicies == nil {
			cfg.NodePolicies = map[int]cluster.SchedSpec{}
		}
		pin := cfg.Sched // inherit the spec's base-slice/boost/steal knobs
		pin.Kind = cluster.Approach(k)
		cfg.NodePolicies[i] = pin
	}
	cfg.AuditEvery = auditEvery
	res := &result{approach: approach}
	cfg.OnAudit = func(at sim.Time, errs []error) {
		res.auditTimes = append(res.auditTimes, at)
	}
	s, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	if traced {
		s.World.SetTracer(vmm.NewTracer(traceCap))
	}
	clusterVMs := make([][]*vmm.VM, len(spec.Clusters))
	for i, c := range spec.Clusters {
		prof, err := c.profile()
		if err != nil {
			return nil, err
		}
		vms := s.VirtualCluster(fmt.Sprintf("vc%d", i), c.VMs, c.VCPUs, nil)
		clusterVMs[i] = vms
		s.RunParallel(prof, vms, c.Rounds, false)
	}
	if err := buildJobs(s, spec); err != nil {
		return nil, err
	}
	if spec.SwapKind != "" {
		swap := cfg.Sched
		swap.Kind = cluster.Approach(spec.SwapKind)
		f, err := swap.Factory()
		if err != nil {
			return nil, err
		}
		at := sim.FromSeconds(spec.SwapAtSec)
		// Each node schedules its own swap on its own engine: one global
		// event cannot reach across shards, and per-node events at a
		// fixed virtual time are exactly as deterministic.
		for _, n := range s.World.Nodes() {
			n := n
			n.Engine().At(at, func() {
				if err := n.SwapScheduler(f); err != nil {
					panic(err) // nil factory cannot reach here
				}
			})
		}
	}
	res.completed = s.Go(spec.horizon())
	// Exercise the end-of-run telemetry publication too (no-op when the
	// spec did not attach a plane); it must never disturb the world.
	s.FinalizeTelemetry()
	for _, run := range s.Runs() {
		res.runRounds = append(res.runRounds, run.Rounds())
	}
	for i, vms := range clusterVMs {
		var sent, rounds uint64
		for _, vm := range vms {
			sent += vm.PacketsSent()
			for _, v := range vm.VCPUs() {
				rounds += v.Rounds()
				if st := v.State(); st != vmm.StateIdle {
					res.stateErrs = append(res.stateErrs,
						fmt.Sprintf("cluster %d: vcpu %v left %v", i, v, st))
				}
				if v.Spinning() {
					res.stateErrs = append(res.stateErrs,
						fmt.Sprintf("cluster %d: vcpu %v left spinning", i, v))
				}
			}
		}
		res.clusterSent = append(res.clusterSent, sent)
		res.clusterRounds = append(res.clusterRounds, rounds)
	}
	res.auditViols = s.AuditViolations()
	res.finalAudit = s.World.Audit()
	res.endTime = s.World.Now()
	res.tick = cfg.Node.TickInterval
	for _, n := range s.World.Nodes() {
		res.swaps = append(res.swaps, n.Swaps())
	}
	if traced {
		res.fingerprint = fingerprint(s)
	}
	return res, nil
}

// buildJobs installs the Spec's non-parallel co-tenants, mirroring the
// scenario runner's job placement (peer VMs on the next node around).
func buildJobs(s *cluster.Scenario, spec Spec) error {
	for i, j := range spec.Jobs {
		peer := (j.Node + 1) % spec.Nodes
		label := fmt.Sprintf("%s%d", j.Type, i)
		switch j.Type {
		case "web":
			server := s.IndependentVM(label+"-srv", j.Node, 2, vmm.ClassNonParallel)
			client := s.IndependentVM(label+"-cli", peer, 2, vmm.ClassNonParallel)
			workload.NewWebJob(client, 0, server, 0,
				20*sim.Millisecond, 2*sim.Millisecond, spec.Seed+uint64(i))
		case "ping":
			client := s.IndependentVM(label+"-cli", peer, 1, vmm.ClassNonParallel)
			echo := s.IndependentVM(label+"-echo", j.Node, 1, vmm.ClassNonParallel)
			workload.NewPingJob(client, 0, echo, 0, 10*sim.Millisecond)
		case "disk":
			vm := s.IndependentVM(label, j.Node, 1, vmm.ClassNonParallel)
			workload.NewDiskJob(vm.VCPU(0))
		case "stream":
			vm := s.IndependentVM(label, j.Node, 1, vmm.ClassNonParallel)
			workload.NewStreamJob(vm.VCPU(0))
		case "cpu":
			vm := s.IndependentVM(label, j.Node, 1, vmm.ClassNonParallel)
			for _, p := range workload.SPECProfiles() {
				if p.Name == j.Name {
					workload.NewCPUJob(vm.VCPU(0), p)
				}
			}
		default:
			return fmt.Errorf("proptest: unknown job type %q", j.Type)
		}
	}
	return nil
}

// fingerprint renders the run's observable outcome — engine counters,
// per-VM statistics and the full retained scheduling trace — as one
// string. Two runs of the same Spec under the same approach must produce
// byte-identical fingerprints.
func fingerprint(s *cluster.Scenario) string {
	var b strings.Builder
	fmt.Fprintf(&b, "now=%d executed=%d\n", int64(s.World.Now()), s.World.Executed())
	fmt.Fprintf(&b, "%s\n", s.FaultReport())
	for _, run := range s.Runs() {
		fmt.Fprintf(&b, "run rounds=%d times=%v\n", run.Rounds(), run.Times())
	}
	for _, n := range s.World.Nodes() {
		fmt.Fprintf(&b, "node%d ctx=%d wakes=%d llc=%d\n",
			n.ID(), n.CtxSwitches(), n.Wakes(), n.LLCMisses())
	}
	for _, vm := range s.World.VMs() {
		fmt.Fprintf(&b, "vm=%s sent=%d recv=%d ctx=%d iowakes=%d run=%d wait=%d spin=%d\n",
			vm.Name(), vm.PacketsSent(), vm.PacketsReceived(), vm.CtxSwitches(),
			vm.IOWakes(), int64(vm.RunTime()), int64(vm.WaitTime()), int64(vm.SpinWaitTotal()))
	}
	fmt.Fprintf(&b, "trace dropped=%d\n", s.World.TraceDropped())
	for _, r := range s.World.TraceRecords() {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// check evaluates the single-approach properties: liveness, audit
// cleanliness, clock monotonicity and analytic packet conservation.
func (r *result) check(spec Spec) error {
	if !r.completed {
		return fmt.Errorf("liveness: measured runs incomplete after horizon %v (rounds %v)",
			spec.horizon(), r.runRounds)
	}
	for i, c := range spec.Clusters {
		if r.runRounds[i] != c.Rounds {
			return fmt.Errorf("liveness: cluster %d completed %d rounds, want %d",
				i, r.runRounds[i], c.Rounds)
		}
		prof, err := c.profile()
		if err != nil {
			return err
		}
		wantSent := uint64(c.Rounds) * prof.MessagesPerRound(c.VMs, c.VCPUs)
		if r.clusterSent[i] != wantSent {
			return fmt.Errorf("conservation: cluster %d posted %d packets, analytic count %d",
				i, r.clusterSent[i], wantSent)
		}
		wantRounds := uint64(c.Rounds) * uint64(c.VMs) * uint64(c.VCPUs)
		if r.clusterRounds[i] != wantRounds {
			return fmt.Errorf("conservation: cluster %d retired %d process rounds, want %d",
				i, r.clusterRounds[i], wantRounds)
		}
	}
	if len(r.stateErrs) > 0 {
		return fmt.Errorf("liveness: %s", strings.Join(r.stateErrs, "; "))
	}
	if len(r.auditViols) > 0 {
		return fmt.Errorf("audit: %d mid-run violations, first: %v", len(r.auditViols), r.auditViols[0])
	}
	if len(r.finalAudit) > 0 {
		return fmt.Errorf("audit: final state: %v", r.finalAudit[0])
	}
	for i := 1; i < len(r.auditTimes); i++ {
		if r.auditTimes[i] < r.auditTimes[i-1] {
			return fmt.Errorf("clock: audit time regressed %v -> %v",
				r.auditTimes[i-1], r.auditTimes[i])
		}
	}
	if spec.SwapKind != "" {
		// Swaps apply at each node's next period boundary; phase stagger
		// keeps boundaries within one period of each other, so any node
		// still unswapped two periods past the request missed it.
		deadline := sim.FromSeconds(spec.SwapAtSec) + 2*r.tick
		for i, n := range r.swaps {
			if r.endTime >= deadline && n == 0 {
				return fmt.Errorf("switch: node %d never swapped to %s (requested at %vs, ran to %v)",
					i, spec.SwapKind, spec.SwapAtSec, r.endTime)
			}
		}
	}
	return nil
}

// sameWork compares the logical work two approaches completed on the
// same Spec — the differential property. Timing may differ; rounds and
// packet counts may not.
func (r *result) sameWork(ref *result) error {
	for i := range r.runRounds {
		if r.runRounds[i] != ref.runRounds[i] {
			return fmt.Errorf("differential: cluster %d rounds %d under %s vs %d under %s",
				i, r.runRounds[i], r.approach, ref.runRounds[i], ref.approach)
		}
		if r.clusterSent[i] != ref.clusterSent[i] {
			return fmt.Errorf("differential: cluster %d packets %d under %s vs %d under %s",
				i, r.clusterSent[i], r.approach, ref.clusterSent[i], ref.approach)
		}
		if r.clusterRounds[i] != ref.clusterRounds[i] {
			return fmt.Errorf("differential: cluster %d process rounds %d under %s vs %d under %s",
				i, r.clusterRounds[i], r.approach, ref.clusterRounds[i], ref.approach)
		}
	}
	return nil
}

// Primary returns the approach whose run is traced and replayed for the
// determinism property — seed-derived so the sweep spreads the replay
// cost across all approaches.
func Primary(spec Spec, approaches []cluster.Approach) cluster.Approach {
	return approaches[int(spec.Seed%uint64(len(approaches)))]
}

// CheckSpec runs the full property battery on spec: under every
// approach the world must complete all measured work, pass periodic and
// final audits, keep the audited clock monotone, leave no parallel VCPU
// spinning or non-idle, and post exactly the analytic packet count; all
// approaches must complete identical logical work; and the primary
// approach must replay byte-identically. The returned error describes
// the first violated property.
func CheckSpec(spec Spec, approaches []cluster.Approach) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if len(approaches) == 0 {
		return fmt.Errorf("proptest: no approaches")
	}
	primary := Primary(spec, approaches)
	var ref *result
	var primaryFP string
	for _, a := range approaches {
		r, err := runOne(spec, a, a == primary)
		if err != nil {
			return fmt.Errorf("%s: build: %w", a, err)
		}
		if err := r.check(spec); err != nil {
			return fmt.Errorf("%s: %w", a, err)
		}
		if ref == nil {
			ref = r
		} else if err := r.sameWork(ref); err != nil {
			return err
		}
		if a == primary {
			primaryFP = r.fingerprint
		}
	}
	replay, err := runOne(spec, primary, true)
	if err != nil {
		return fmt.Errorf("%s: replay build: %w", primary, err)
	}
	if replay.fingerprint != primaryFP {
		return fmt.Errorf("determinism: %s replay diverged (fingerprints differ at byte %d of %d/%d)",
			primary, diffAt(primaryFP, replay.fingerprint), len(primaryFP), len(replay.fingerprint))
	}
	if spec.FleetNodes > 0 {
		if err := checkFleetKillRestore(spec); err != nil {
			return err
		}
	}
	return nil
}

// diffAt returns the index of the first differing byte.
func diffAt(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
