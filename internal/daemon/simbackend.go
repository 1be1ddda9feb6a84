package daemon

import (
	"fmt"
	"sync"

	"atcsched/internal/fault"
	"atcsched/internal/netmodel"
	"atcsched/internal/sched/credit"
	"atcsched/internal/sched/extslice"
	"atcsched/internal/sched/registry"
	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
	"atcsched/internal/vmm"
	"atcsched/internal/workload"

	// Link every policy so PolicySwitch kinds resolve by name.
	_ "atcsched/internal/sched/all"
)

// SimBackend closes the control loop against a live simulated cluster:
// the cluster runs under an externally-controlled credit scheduler
// (internal/sched/extslice); SampleFleet advances the simulation one
// scheduling period and reads each guest VM's spinlock latency as one
// batch per node; ApplyNode writes one node's slice decisions back into
// its scheduler. One Fleet supervises every simulated node the way one
// atcd would supervise a rack — the in-repo stand-in for a dom0
// deployment where atcd adjusts real hypervisor knobs.
type SimBackend struct {
	World  *vmm.World
	period sim.Time
	// MaxPeriods bounds the run: once it is spent SampleFleet returns an
	// error for which IsDone reports true.
	MaxPeriods int
	periods    int
	runs       []*workload.ParallelRun
	switches   []PolicySwitch
	plan       *fault.Plan
	hollow     bool

	// actMu serializes fault-plan actuation draws: fleet shards apply
	// concurrently (the world itself is quiescent at that point —
	// ApplyNode runs between Step barriers), but the plan's rng stream
	// is one shared cursor.
	actMu sync.Mutex
}

// SimBackendConfig sizes the embedded scenario.
type SimBackendConfig struct {
	// Nodes and VCPUsPerVM size the cluster (defaults 2 and 8).
	Nodes      int
	VCPUsPerVM int
	// Clusters is the number of identical virtual clusters (default 4).
	Clusters int
	// Kernel/Class pick the application (defaults lu, B).
	Kernel string
	Class  workload.Class
	// MaxPeriods bounds the control loop (default 400 periods = 12 s).
	MaxPeriods int
	// Seed drives the workloads.
	Seed uint64
	// Switches schedules live policy replacements during the run. A node
	// switched away from EXT stops accepting the daemon's slices
	// (ApplyNode skips it) until a later switch brings EXT back.
	Switches []PolicySwitch
	// Faults, when non-nil, attaches a deterministic fault-injection
	// plan (internal/fault) to the embedded cluster: stragglers, packet
	// loss, monitor faults, and actuation failures the daemon's
	// hardened loop must ride out.
	Faults *fault.Spec
	// Telemetry, when non-nil, attaches a telemetry plane to the
	// embedded world before it starts, so a live atcd run exposes
	// per-node spin-latency and slice series over HTTP.
	Telemetry *telemetry.Plane
	// Hollow shrinks each node to kubemark proportions (two PCPUs,
	// single-VCPU dom0, one single-VCPU VM per node running a light
	// ring-exchange kernel) so a thousand-node fleet stays buildable:
	// the fleet harness measures control-plane throughput, not
	// scheduler policy. Clusters defaults to 1 and VCPUsPerVM is forced
	// to 1 in this mode.
	Hollow bool
}

// PolicySwitch flips a node's scheduling policy at a control period.
type PolicySwitch struct {
	// AtPeriod is the control period (1-based) before which the switch is
	// requested; the node applies it at its next period boundary.
	AtPeriod int
	// Node is the target node index, or -1 for every node.
	Node int
	// Kind names the replacement policy (registry defaults are used).
	Kind string
}

// NewSimBackend builds the cluster and returns the backend, which
// implements both FleetSource and FleetActuator.
func NewSimBackend(cfg SimBackendConfig) (*SimBackend, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 2
	}
	if cfg.VCPUsPerVM == 0 {
		cfg.VCPUsPerVM = 8
	}
	if cfg.Clusters == 0 {
		cfg.Clusters = 4
		if cfg.Hollow {
			cfg.Clusters = 1
		}
	}
	if cfg.Kernel == "" {
		cfg.Kernel = "lu"
	}
	if cfg.MaxPeriods == 0 {
		cfg.MaxPeriods = 400
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	ncfg := vmm.DefaultNodeConfig()
	if cfg.Hollow {
		ncfg.PCPUs = 2
		ncfg.Dom0VCPUs = 1
		cfg.VCPUsPerVM = 1
	}
	w, err := vmm.NewWorld(cfg.Nodes, ncfg, netmodel.DefaultConfig(), extslice.Factory(credit.DefaultOptions()))
	if err != nil {
		return nil, err
	}
	for _, sw := range cfg.Switches {
		if sw.AtPeriod < 1 {
			return nil, fmt.Errorf("sim backend: switch period %d must be >= 1", sw.AtPeriod)
		}
		if sw.Node < -1 || sw.Node >= cfg.Nodes {
			return nil, fmt.Errorf("sim backend: switch node %d out of range", sw.Node)
		}
		if err := registry.Validate(sw.Kind, nil); err != nil {
			return nil, fmt.Errorf("sim backend: %w", err)
		}
	}
	b := &SimBackend{World: w, period: ncfg.SchedPeriod, MaxPeriods: cfg.MaxPeriods, switches: cfg.Switches, hollow: cfg.Hollow}
	if cfg.Telemetry != nil {
		w.SetTelemetry(cfg.Telemetry)
	}
	if cfg.Faults != nil {
		plan, err := fault.Compile(cfg.Faults, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("sim backend: %w", err)
		}
		if err := plan.Attach(w); err != nil {
			return nil, fmt.Errorf("sim backend: %w", err)
		}
		b.plan = plan
	}
	prof := workload.NPB(cfg.Kernel, cfg.Class)
	if cfg.Hollow {
		prof = hollowFleetProfile()
	}
	for vc := 0; vc < cfg.Clusters; vc++ {
		var vms []*vmm.VM
		for i := 0; i < cfg.Nodes; i++ {
			vms = append(vms, w.Node(i).NewVM(fmt.Sprintf("vc%d-%d", vc, i), vmm.ClassParallel, cfg.VCPUsPerVM, 0, 1))
		}
		app := workload.NewBSPApp(prof, vms, cfg.Seed+uint64(vc))
		run := workload.NewParallelRun(app, 1, true, nil)
		run.Install()
		b.runs = append(b.runs, run)
	}
	w.Start()
	return b, nil
}

// Runs exposes the embedded applications' runners (for measurements).
func (b *SimBackend) Runs() []*workload.ParallelRun { return b.runs }

// Periods returns the control periods executed so far.
func (b *SimBackend) Periods() int { return b.periods }

// errDone signals a clean end of the bounded run.
type errDone struct{}

func (errDone) Error() string { return "sim backend: period budget exhausted" }

// IsDone reports whether err is the backend's clean-termination error.
func IsDone(err error) bool {
	_, ok := err.(errDone)
	return ok
}

// advance runs the cluster one scheduling period forward.
func (b *SimBackend) advance() error {
	if b.periods >= b.MaxPeriods {
		return errDone{}
	}
	b.periods++
	if err := b.applySwitches(); err != nil {
		return err
	}
	b.World.RunUntil(b.World.Now() + b.period)
	return nil
}

// sampleVM reads one VM's period sample.
func (b *SimBackend) sampleVM(vm *vmm.VM) (VMSample, bool) {
	avg, seq, ok := vm.SampleSpinPeriod()
	if !ok {
		return VMSample{}, false
	}
	return VMSample{
		ID:             vm.ID(),
		AvgSpinLatency: avg,
		Parallel:       vm.Class() == vmm.ClassParallel,
		AdminSlice:     vm.AdminSlice,
		Seq:            seq,
	}, true
}

// FaultReport returns the attached fault plan's injection tallies (zero
// when no faults were configured).
func (b *SimBackend) FaultReport() fault.Report { return b.plan.Report() }

// FinalizeTelemetry publishes end-of-run totals from the embedded world
// and fault plan into p (no-op when p is nil).
func (b *SimBackend) FinalizeTelemetry(p *telemetry.Plane) {
	if p == nil {
		return
	}
	b.World.FinalizeTelemetry()
	b.plan.PublishTelemetry(p.Global())
}

// applySwitches requests the policy switches due at the current control
// period; each lands on its node's next scheduling-period boundary.
func (b *SimBackend) applySwitches() error {
	for _, sw := range b.switches {
		if sw.AtPeriod != b.periods {
			continue
		}
		f, err := registry.Resolve(sw.Kind, nil, registry.Base{})
		if err != nil {
			return fmt.Errorf("sim backend: %w", err)
		}
		for _, n := range b.World.Nodes() {
			if sw.Node >= 0 && n.ID() != sw.Node {
				continue
			}
			if err := n.SwapScheduler(f); err != nil {
				return fmt.Errorf("sim backend: %w", err)
			}
		}
	}
	return nil
}

// hollowFleetProfile is the per-node workload in Hollow mode: short
// compute, one ring message per iteration, no lock traffic — the same
// kubemark shape as the scale experiment, chosen so thousand-node
// fleets measure the control plane rather than the guest kernels.
func hollowFleetProfile() workload.AppProfile {
	return workload.AppProfile{
		Name:           "hollow-ring",
		ComputePerIter: 200 * sim.Microsecond,
		Pattern:        workload.PatternRing,
		MsgSize:        4 << 10,
		Iterations:     50,
		Footprint:      4 << 20,
		ColdRate:       0.01,
	}
}

// SampleFleet implements FleetSource: advance one scheduling period and
// report one batch per node, sorted by node ID — an empty one when all
// of a node's VMs dropped out, since a dropout is still a period and
// the node's loop must see it to degrade blacked-out slices. While a
// daemon-crash fault window is open the control plane is dark — no
// batches are produced (the monitors keep accumulating, so the first
// post-blackout sample covers the whole gap) and the period is tallied
// in the fault report.
func (b *SimBackend) SampleFleet() ([]NodeBatch, error) {
	if err := b.advance(); err != nil {
		return nil, err
	}
	if b.plan.DaemonDown(b.World.Now()) {
		b.plan.CountDarkPeriod()
		return nil, nil
	}
	nodes := b.World.Nodes()
	out := make([]NodeBatch, len(nodes))
	for _, n := range nodes {
		out[n.ID()].Node = n.ID()
	}
	for _, vm := range b.World.GuestVMs() {
		s, ok := b.sampleVM(vm)
		if !ok {
			continue
		}
		n := vm.Node().ID()
		out[n].Samples = append(out[n].Samples, s)
	}
	return out, nil
}

// failActuation runs one fault-plan actuation draw under the backend's
// lock (fleet shards apply concurrently; the rng cursor is shared).
func (b *SimBackend) failActuation() error {
	b.actMu.Lock()
	defer b.actMu.Unlock()
	return b.plan.FailActuation(b.World.Now())
}

// ApplyNode implements FleetActuator: write one node's slices into its
// externally-controlled scheduler. Nodes switched to a self-adapting
// policy (via PolicySwitch) own their slices and are skipped.
func (b *SimBackend) ApplyNode(node int, slices map[int]sim.Time) error {
	if err := b.failActuation(); err != nil {
		return err
	}
	if node < 0 || node >= len(b.World.Nodes()) {
		return fmt.Errorf("sim backend: actuation for unknown node %d", node)
	}
	n := b.World.Node(node)
	sched, ok := n.Scheduler().(*extslice.Scheduler)
	if !ok {
		return nil
	}
	for _, vm := range n.VMs() {
		if sl, ok := slices[vm.ID()]; ok {
			sched.Set(vm.ID(), sl)
		}
	}
	return nil
}

// NodePolicies returns each node's current scheduler policy name,
// indexed by node ID — the fleet table's policy column.
func (b *SimBackend) NodePolicies() []string {
	nodes := b.World.Nodes()
	out := make([]string, len(nodes))
	for _, n := range nodes {
		out[n.ID()] = n.Scheduler().Name()
	}
	return out
}

// Hollow reports whether the backend was built in hollow-node mode.
func (b *SimBackend) Hollow() bool { return b.hollow }

// Now exposes the embedded world's virtual clock (telemetry axis).
func (b *SimBackend) Now() sim.Time { return b.World.Now() }

var (
	_ FleetSource   = (*SimBackend)(nil)
	_ FleetActuator = (*SimBackend)(nil)
)
