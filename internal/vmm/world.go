package vmm

import (
	"fmt"
	"sort"

	"atcsched/internal/cachemodel"
	"atcsched/internal/diskmodel"
	"atcsched/internal/netmodel"
	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
)

// World is a whole simulated cluster: the engines, the physical fabric,
// and the nodes. Construct it, create VMs and install their processes,
// then call Start and drive it with RunUntil.
//
// Every world runs on a sim.ShardGroup: the nodes are partitioned
// contiguously over the group's shards, the nodes of one shard share
// that shard's engine, and all cross-node interaction flows through the
// group's lookahead barrier. Results are keyed on node topology, never
// shard topology, so a scenario fingerprints identically at every shard
// count. Drive and observe the world through its methods (Now, RunUntil,
// Stop, ...); inside an event callback, a node's Engine().Now() is the
// event's time.
type World struct {
	// Eng is shard 0's engine. It is kept only so the frozen benchmark
	// harness (perfbench), which reads Eng.Pending(), keeps compiling;
	// nothing else may use it — it sees only shard 0's events and none
	// of the cross events queued at the barrier. Delete it at the next
	// benchmark change.
	Eng    *sim.Engine
	Fabric *netmodel.Fabric
	nodes  []*Node
	vms    []*VM

	// group synchronizes the shard engines.
	group *sim.ShardGroup

	nextVMID   int
	nextVCPUID int
	started    bool
	tracer     *Tracer
	telemetry  *telemetry.Plane

	// slowFn, when set, reports the execution-time multiplier (>= 1) in
	// force on a node at an instant; the PCPUs stretch every compute and
	// burn segment started while it is > 1 (fault plane: stragglers).
	slowFn func(node int, now sim.Time) float64
	// monitorTap, when set, filters every spin-monitor sample taken via
	// VM.SampleSpinPeriod (fault plane: dropouts, noise, stale reads).
	monitorTap func(vm *VM) MonitorVerdict
}

// SetSlowdown installs (or, with nil, removes) the per-node execution
// slowdown hook. fn must be deterministic in (node, now); factors below
// 1 are treated as 1. Segments already in flight keep the factor they
// started with — the hook is sampled at segment start, so its
// granularity is one slice at worst. The hook is called concurrently
// from different shards and must not share mutable state across nodes.
func (w *World) SetSlowdown(fn func(node int, now sim.Time) float64) { w.slowFn = fn }

// SetMonitorTap installs (or, with nil, removes) the monitoring-path
// fault hook consulted by VM.SampleSpinPeriod. The concurrency caveat
// of SetSlowdown applies: any mutable state must be partitioned by node.
func (w *World) SetMonitorTap(fn func(vm *VM) MonitorVerdict) { w.monitorTap = fn }

// SetTracer attaches a scheduling tracer (nil detaches). Attach before
// Start to capture the whole run. t is a template: each node records
// into its own ring of t's capacity (shards must not share a ring), so
// t itself stays empty — read the merged stream with TraceRecords and
// TraceDropped.
func (w *World) SetTracer(t *Tracer) {
	w.tracer = t
	for _, n := range w.nodes {
		n.trc = nil
		if t != nil {
			n.trc = NewTracer(t.Cap)
		}
	}
}

// TraceRecords returns the retained scheduling records of the whole
// world in deterministic order: by time, ties broken by node. Returns
// nil when no tracer is attached.
func (w *World) TraceRecords() []TraceRecord {
	if w.tracer == nil {
		return nil
	}
	var out []TraceRecord
	for _, n := range w.nodes {
		out = append(out, n.trc.retained()...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// TraceDropped returns how many records the nodes' rings evicted.
func (w *World) TraceDropped() uint64 {
	if w.tracer == nil {
		return 0
	}
	var n uint64
	for _, nd := range w.nodes {
		n += nd.trc.dropped
	}
	return n
}

// NewWorld builds nNodes identical nodes on one shard, each with its
// own scheduler instance produced by factory.
func NewWorld(nNodes int, ncfg NodeConfig, netCfg netmodel.Config, factory SchedulerFactory) (*World, error) {
	if factory == nil {
		return nil, fmt.Errorf("vmm: nil scheduler factory")
	}
	return NewHeteroWorld(nNodes, 1, ncfg, netCfg, func(int) SchedulerFactory { return factory })
}

// NewHeteroWorld builds nNodes nodes whose schedulers may differ —
// factoryFor(i) supplies the factory for node i, so a cluster can run
// one policy on most nodes and another on the rest — partitioned over
// `shards` engine shards synchronized at the network lookahead
// (netCfg.WireLatency, which must be positive). Shard counts below 1
// mean 1; counts above nNodes are clamped to it.
func NewHeteroWorld(nNodes, shards int, ncfg NodeConfig, netCfg netmodel.Config, factoryFor func(node int) SchedulerFactory) (*World, error) {
	if nNodes <= 0 {
		return nil, fmt.Errorf("vmm: need at least one node, got %d", nNodes)
	}
	if err := ncfg.validate(); err != nil {
		return nil, err
	}
	if factoryFor == nil {
		return nil, fmt.Errorf("vmm: nil scheduler factory function")
	}
	if netCfg.WireLatency <= 0 {
		return nil, fmt.Errorf("vmm: world needs a positive wire latency for lookahead, got %v", netCfg.WireLatency)
	}
	shards = max(1, min(shards, nNodes))
	w := &World{group: sim.NewShardGroup(shards, netCfg.WireLatency)}
	w.Eng = w.group.Engine(0)
	engines := make([]*sim.Engine, nNodes)
	for i := range engines {
		sh := i * shards / nNodes
		engines[i] = w.group.Engine(sh)
		w.group.AssignSource(i, sh)
	}
	w.Fabric = netmodel.New(engines, netCfg, w.group.Post)
	for i := 0; i < nNodes; i++ {
		n := &Node{world: w, id: i, cfg: ncfg, eng: engines[i]}
		for j := 0; j < ncfg.PCPUs; j++ {
			p := &PCPU{
				node:  n,
				idx:   j,
				cache: cachemodel.New(ncfg.Cache),
			}
			p.initFns()
			n.pcpus = append(n.pcpus, p)
		}
		n.backend = &Backend{node: n, disk: diskmodel.New(n.eng, ncfg.Disk)}
		n.dom0 = n.newVM(fmt.Sprintf("dom0-%d", i), ClassDom0, ncfg.Dom0VCPUs, ncfg.Dom0Footprint, ncfg.Dom0ColdRate)
		factory := factoryFor(i)
		if factory == nil {
			return nil, fmt.Errorf("vmm: nil scheduler factory for node %d", i)
		}
		n.sched = factory(n)
		if n.sched == nil {
			return nil, fmt.Errorf("vmm: factory returned nil scheduler for node %d", i)
		}
		w.nodes = append(w.nodes, n)
	}
	return w, nil
}

// MustNewWorld is NewWorld that panics on error (tests, examples).
func MustNewWorld(nNodes int, ncfg NodeConfig, netCfg netmodel.Config, factory SchedulerFactory) *World {
	w, err := NewWorld(nNodes, ncfg, netCfg, factory)
	if err != nil {
		panic(err)
	}
	return w
}

// ShardCount returns the number of engine shards.
func (w *World) ShardCount() int { return w.group.Shards() }

// Nodes returns the world's nodes (do not mutate).
func (w *World) Nodes() []*Node { return w.nodes }

// Node returns node i.
func (w *World) Node(i int) *Node { return w.nodes[i] }

// VMs returns every VM in the world, dom0s included.
func (w *World) VMs() []*VM { return w.vms }

// GuestVMs returns every guest VM in the world.
func (w *World) GuestVMs() []*VM {
	var out []*VM
	for _, vm := range w.vms {
		if vm.class != ClassDom0 {
			out = append(out, vm)
		}
	}
	return out
}

// Start arms timers and performs the initial dispatch on every node. It
// must be called exactly once, after all VMs and processes are set up.
func (w *World) Start() {
	if w.started {
		panic("vmm: World.Start called twice")
	}
	w.started = true
	for _, n := range w.nodes {
		n.start()
	}
}

// Now returns the current virtual time: the group clock, the time
// every shard has reached at the last barrier.
func (w *World) Now() sim.Time { return w.group.Now() }

// Executed returns the total number of events fired across all engines.
func (w *World) Executed() uint64 { return w.group.Executed() }

// Pending returns the number of queued events across all engines,
// cross-node events waiting at the barrier included.
func (w *World) Pending() int { return w.group.Pending() }

// RunUntil drives the simulation to the given virtual time.
func (w *World) RunUntil(t sim.Time) { w.group.RunUntil(t) }

// Stop halts the simulation (e.g., when the experiment's completion
// condition is met from inside a callback). The stop lands at the end
// of the current synchronization window — a point that is a pure
// function of virtual time, so stopped runs stay deterministic.
func (w *World) Stop() { w.group.RequestStop() }

// Resume clears a previous Stop.
func (w *World) Resume() { w.group.Resume() }

// Stopped reports whether a stop is in force.
func (w *World) Stopped() bool { return w.group.Stopped() }

// CrossNodeSignal runs fn on dst's engine, attributed to src. On the
// same node it is an immediate deferred event; across nodes it travels
// through the group barrier with one network lookahead of delay — the
// same contract as a wire message, which is what such signals model
// (workload completion notifications, coordination RPCs). Using it for
// ALL cross-node signalling, even between co-sharded nodes, is what
// keeps results independent of the shard count.
func (w *World) CrossNodeSignal(src, dst *Node, fn func()) {
	if src == dst {
		dst.eng.Schedule(0, fn)
		return
	}
	w.group.Post(src.id, dst.id, src.eng.Now()+w.group.Lookahead(), fn)
}
