// Package cluster assembles whole experiment scenarios: a world of
// identical nodes under a named scheduling approach, virtual clusters
// striped across nodes, independent VMs, parallel application runs and
// non-parallel jobs, and a completion-driven run loop.
package cluster

import (
	"fmt"
	"sync/atomic"

	"atcsched/internal/fault"
	"atcsched/internal/netmodel"
	"atcsched/internal/sched/registry"
	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
	"atcsched/internal/vmm"
	"atcsched/internal/workload"

	// Link every in-tree policy so registry lookups resolve.
	_ "atcsched/internal/sched/all"
)

// Approach names a scheduling policy registered in sched/registry.
type Approach string

// The compared approaches (kept as constants for ergonomic literals; the
// authoritative list lives in the registry).
const (
	CR  Approach = "CR"  // Xen Credit (baseline)
	CS  Approach = "CS"  // dynamic co-scheduling
	BS  Approach = "BS"  // balance scheduling
	DSS Approach = "DSS" // dynamic switching-frequency scaling
	VS  Approach = "VS"  // vSlicer microslicing
	ATC Approach = "ATC" // the paper's adaptive time-slice control
	// HY is the hybrid scheduling framework from the paper's related
	// work — an extension baseline, not part of the evaluated set.
	HY Approach = "HY"
	// DFRS is dynamic fractional resource scheduling (per-VM CPU
	// fractions), and ATCDFRS the ATC×DFRS hybrid — extension
	// baselines contrasting fraction control with slice control.
	DFRS    Approach = "DFRS"
	ATCDFRS Approach = "ATCDFRS"
)

// Approaches returns the paper's six compared approaches in the paper's
// comparison order, as declared by the policies' registry descriptors.
func Approaches() []Approach {
	kinds := registry.Compared()
	out := make([]Approach, len(kinds))
	for i, k := range kinds {
		out[i] = Approach(k)
	}
	return out
}

// ExtendedApproaches returns the compared set plus the extension
// baselines this repository adds.
func ExtendedApproaches() []Approach {
	out := Approaches()
	for _, k := range registry.Extensions() {
		out = append(out, Approach(k))
	}
	return out
}

// SchedSpec selects and parameterizes a scheduling approach.
type SchedSpec struct {
	Kind Approach
	// Options parameterizes the policy. It may be nil (registry defaults),
	// the policy's options struct (or a pointer to it) with zero fields
	// inheriting defaults, or a json.RawMessage / []byte holding a JSON
	// object merged over the defaults. See registry.Descriptor.Options.
	Options any
	// FixedSlice, when nonzero, overrides the base (default) time slice —
	// used by the static sweeps of Figures 5, 8 and 9 with Kind CR.
	FixedSlice sim.Time
	// Boost/Steal toggles on the credit core, for ablations. Both
	// default to on.
	DisableBoost bool
	DisableSteal bool
}

// Factory resolves the spec through the policy registry into a
// per-node scheduler factory.
func (s SchedSpec) Factory() (vmm.SchedulerFactory, error) {
	f, err := registry.Resolve(string(s.Kind), s.Options, registry.Base{
		FixedSlice:   s.FixedSlice,
		DisableBoost: s.DisableBoost,
		DisableSteal: s.DisableSteal,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return f, nil
}

// Config parameterizes a scenario.
type Config struct {
	Nodes int
	Node  vmm.NodeConfig
	Net   netmodel.Config
	// Shards is the number of engine shards the world runs on,
	// synchronized at the network lookahead (Net.WireLatency must be
	// positive); nodes are partitioned contiguously over the shards.
	// Zero (or less) means one shard. Results are byte-identical across
	// shard counts.
	Shards int
	Sched  SchedSpec
	// NodePolicies, when non-empty, overrides Sched for specific nodes
	// (keyed by node index), making the cluster heterogeneous: e.g. most
	// nodes under CR with one node under ATC. Each entry is a complete
	// SchedSpec; it does not inherit fields from Sched.
	NodePolicies map[int]SchedSpec
	// NonParallelAdminSlice, when nonzero, is applied as the AdminSlice
	// of every non-parallel VM — the ATC(6ms) variant of §IV-C.
	NonParallelAdminSlice sim.Time
	// Seed drives all workload randomness.
	Seed uint64
	// AuditEvery, when nonzero, re-checks World.Audit every interval of
	// virtual time while the run loop drives the world (Go, GoFor,
	// ContinueFor, ContinueUntil) and once more when it hands back
	// control. Violations are retained (see Scenario.AuditViolations);
	// the run itself is not interrupted.
	AuditEvery sim.Time
	// OnAudit, when set alongside AuditEvery, observes every audit
	// point: the virtual time and the violation list (empty when
	// healthy).
	OnAudit func(at sim.Time, errs []error)
	// Faults, when non-nil, attaches a deterministic fault-injection
	// plan (internal/fault) to the world: straggler windows, packet
	// loss, bandwidth degradation and monitor faults, seeded from
	// Faults.Seed (or Seed when unset).
	Faults *fault.Spec
	// Telemetry, when non-nil, attaches a telemetry plane to the world
	// (internal/telemetry). Strictly observational: fingerprints are
	// byte-identical with or without it.
	Telemetry *telemetry.Plane
}

// DefaultConfig returns a paper-testbed-like configuration for the given
// node count and approach.
func DefaultConfig(nodes int, kind Approach) Config {
	return Config{
		Nodes: nodes,
		Node:  vmm.DefaultNodeConfig(),
		Net:   netmodel.DefaultConfig(),
		Sched: SchedSpec{Kind: kind},
		Seed:  1,
	}
}

// Scenario is a world under construction plus its measured runs.
type Scenario struct {
	Cfg   Config
	World *vmm.World

	runs []*workload.ParallelRun
	// pending counts measured runs that have not reached their target.
	// Atomic because each run's completion callback fires on its home
	// node's shard; every decrement still happens at
	// an instant fixed by virtual time, so reaching zero — and the
	// window-quantized Stop it triggers — is deterministic.
	pending    atomic.Int64
	nextVC     int
	auditViols []error
	faults     *fault.Plan
}

// New builds the world for cfg.
func New(cfg Config) (*Scenario, error) {
	def, err := cfg.Sched.Factory()
	if err != nil {
		return nil, err
	}
	perNode := make(map[int]vmm.SchedulerFactory, len(cfg.NodePolicies))
	for i, spec := range cfg.NodePolicies {
		if i < 0 || i >= cfg.Nodes {
			return nil, fmt.Errorf("cluster: node policy for node %d outside cluster of %d nodes", i, cfg.Nodes)
		}
		f, err := spec.Factory()
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		perNode[i] = f
	}
	factoryFor := func(i int) vmm.SchedulerFactory {
		if f, ok := perNode[i]; ok {
			return f
		}
		return def
	}
	w, err := vmm.NewHeteroWorld(cfg.Nodes, cfg.Shards, cfg.Node, cfg.Net, factoryFor)
	if err != nil {
		return nil, err
	}
	s := &Scenario{Cfg: cfg, World: w}
	if cfg.Telemetry != nil {
		w.SetTelemetry(cfg.Telemetry)
	}
	if cfg.Faults != nil {
		plan, err := fault.Compile(cfg.Faults, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		if err := plan.Attach(w); err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		s.faults = plan
	}
	return s, nil
}

// FaultReport returns the attached fault plan's injection tallies (zero
// when no faults were configured).
func (s *Scenario) FaultReport() fault.Report { return s.faults.Report() }

// FinalizeTelemetry publishes end-of-run totals (per-node scheduler
// counters, shard sync stats, fault windows and tallies) into the
// configured telemetry plane. No-op without one; call after the run.
func (s *Scenario) FinalizeTelemetry() {
	p := s.Cfg.Telemetry
	if p == nil {
		return
	}
	s.World.FinalizeTelemetry()
	s.faults.PublishTelemetry(p.Global())
}

// FaultPlan returns the compiled fault plan (nil without faults).
func (s *Scenario) FaultPlan() *fault.Plan { return s.faults }

// MustNew is New that panics on error.
func MustNew(cfg Config) *Scenario {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// VirtualCluster creates nVMs VMs of vcpus VCPUs each, placed round-robin
// over the given node indices (the paper stripes each VC across nodes),
// and returns them.
func (s *Scenario) VirtualCluster(name string, nVMs, vcpus int, nodes []int) []*vmm.VM {
	if len(nodes) == 0 {
		nodes = make([]int, s.Cfg.Nodes)
		for i := range nodes {
			nodes[i] = i
		}
	}
	vms := make([]*vmm.VM, 0, nVMs)
	for i := 0; i < nVMs; i++ {
		n := s.World.Node(nodes[i%len(nodes)])
		vm := n.NewVM(fmt.Sprintf("%s-%d", name, i), vmm.ClassParallel, vcpus, 0, 1)
		vms = append(vms, vm)
	}
	return vms
}

// IndependentVM creates one VM outside any virtual cluster.
func (s *Scenario) IndependentVM(name string, node, vcpus int, class vmm.VMClass) *vmm.VM {
	vm := s.World.Node(node).NewVM(name, class, vcpus, 0, 1)
	if class == vmm.ClassNonParallel && s.Cfg.NonParallelAdminSlice > 0 {
		vm.AdminSlice = s.Cfg.NonParallelAdminSlice
	}
	return vm
}

// RunParallel installs a measured parallel run of profile on the given
// VMs: the scenario completes when every measured run reaches rounds.
// With forever set the application keeps re-running afterwards
// (background load), still counting toward completion at `rounds`.
func (s *Scenario) RunParallel(profile workload.AppProfile, vms []*vmm.VM, rounds int, forever bool) *workload.ParallelRun {
	s.nextVC++
	app := workload.NewBSPApp(profile, vms, s.Cfg.Seed+uint64(s.nextVC)*7919)
	s.pending.Add(1)
	run := workload.NewParallelRun(app, rounds, forever, func() {
		if s.pending.Add(-1) == 0 {
			s.World.Stop()
		}
	})
	run.Install()
	s.runs = append(s.runs, run)
	return run
}

// RunBackground installs a parallel application that reruns forever and
// does not count toward scenario completion — background load for the
// mixed and non-parallel experiments.
func (s *Scenario) RunBackground(profile workload.AppProfile, vms []*vmm.VM) *workload.ParallelRun {
	s.nextVC++
	app := workload.NewBSPApp(profile, vms, s.Cfg.Seed+uint64(s.nextVC)*7919)
	run := workload.NewParallelRun(app, 1, true, nil)
	run.Install()
	return run
}

// Runs returns the measured parallel runs in creation order.
func (s *Scenario) Runs() []*workload.ParallelRun { return s.runs }

// GoFor starts the world and runs it for exactly d of virtual time,
// regardless of measured-run completion — used when the metric is a
// steady-state rate (RTT, bandwidth, response time).
func (s *Scenario) GoFor(d sim.Time) {
	s.World.Start()
	s.advance(d)
}

// ContinueFor resumes a world stopped by measured-run completion and
// runs it for d more virtual time, letting steady-state job metrics
// (throughput, response time) accumulate while the Forever runs keep the
// load up.
func (s *Scenario) ContinueFor(d sim.Time) {
	s.World.Resume()
	s.advance(s.World.Now() + d)
}

// ContinueUntil resumes the world and runs in steps of `step` until done
// reports true or `cap` more virtual time has elapsed. It returns the
// final done() value. A measured-run completion that stops the world
// mid-loop is resumed — the cap, not the stop, bounds this drive.
func (s *Scenario) ContinueUntil(done func() bool, step, cap sim.Time) bool {
	deadline := s.World.Now() + cap
	for !done() && s.World.Now() < deadline {
		s.World.Resume()
		next := s.World.Now() + step
		if next > deadline {
			next = deadline
		}
		s.advance(next)
	}
	return done()
}

// Go starts the world and drives it until every measured run reaches its
// target (or the horizon passes — a safety net against pathological
// schedules). It returns true when all runs completed in time.
func (s *Scenario) Go(horizon sim.Time) bool {
	s.World.Start()
	s.advance(horizon)
	return s.pending.Load() == 0
}

// auditViolationCap bounds how many violations a sick run retains.
const auditViolationCap = 16

// advance drives the world to the target virtual time, pausing every
// AuditEvery to re-check World.Audit when the audit hook is enabled. A
// stopped world (measured-run completion) ends the advance early; the
// hook still audits the shutdown state.
func (s *Scenario) advance(target sim.Time) {
	every := s.Cfg.AuditEvery
	if every <= 0 {
		s.World.RunUntil(target)
		return
	}
	for !s.World.Stopped() && s.World.Now() < target {
		next := s.World.Now() + every
		if next > target {
			next = target
		}
		s.World.RunUntil(next)
		s.audit()
	}
	s.audit()
}

// audit runs one World.Audit pass, retaining violations and notifying
// the OnAudit observer.
func (s *Scenario) audit() {
	errs := s.World.Audit()
	if s.Cfg.OnAudit != nil {
		s.Cfg.OnAudit(s.World.Now(), errs)
	}
	for _, err := range errs {
		if len(s.auditViols) >= auditViolationCap {
			return
		}
		s.auditViols = append(s.auditViols, fmt.Errorf("audit at %v: %w", s.World.Now(), err))
	}
}

// AuditViolations returns the invariant violations the periodic audit
// hook collected (nil when AuditEvery is zero or the run stayed
// healthy). At most auditViolationCap violations are retained.
func (s *Scenario) AuditViolations() []error {
	return append([]error(nil), s.auditViols...)
}
