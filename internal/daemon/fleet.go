package daemon

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"atcsched/internal/core"
	"atcsched/internal/runner"
	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
)

// NodeBatch is one fleet node's telemetry for one control period.
type NodeBatch struct {
	Node    int
	Samples []VMSample
}

// FleetSource provides one period's batches for every live node. A
// node whose VMs all dropped out still sends an (empty) batch, so its
// loop counts the period and degrades blacked-out slices; a node whose
// control plane is dark contributes no batch. io.EOF ends the control
// loop cleanly.
type FleetSource interface {
	SampleFleet() ([]NodeBatch, error)
}

// FleetActuator applies one node's slices.
type FleetActuator interface {
	ApplyNode(node int, slices map[int]sim.Time) error
}

// FleetOptions size the fleet control plane.
type FleetOptions struct {
	// Node carries the per-node hardened-loop options (retry/stale/
	// giveup, applied per fleet node). Zero fields take their
	// DefaultOptions values.
	Node Options
	// Shards is the number of decider/applier goroutine pairs the
	// per-node controller state is sharded across (hash(node)→shard;
	// default 1). There are no cross-shard locks on the hot path.
	Shards int
	// IngestCapacity bounds each shard's ingest channel (default 256
	// slots). One slot holds one hand-off to the shard: all of a Step's
	// batches for that shard, or the single batch of one Ingest call.
	// Ingest and Step block when the channel is full: backpressure, not
	// silent loss.
	IngestCapacity int
	// QueueCapacity bounds each node's actuation queue (default 4).
	// When a node's queue is full the OLDEST queued decision for that
	// node is dropped — it has been superseded by fresher data — and
	// counted in Overflow plus the node's DroppedPeriods.
	QueueCapacity int
	// MaxNodes, when positive, bounds the node IDs the fleet accepts:
	// batches and snapshot entries for nodes outside [0,MaxNodes) are
	// counted and ignored rather than growing state without bound.
	MaxNodes int
}

// sanitize fills defaults.
func (o *FleetOptions) sanitize() {
	o.Node.sanitize()
	if o.Shards < 1 {
		o.Shards = 1
	}
	if o.IngestCapacity < 1 {
		o.IngestCapacity = 256
	}
	if o.QueueCapacity < 1 {
		o.QueueCapacity = 4
	}
}

// fleetShardSalt seeds the node→shard hash (splitmix64 via runner.Seed)
// so shard assignment is deterministic across runs and restores.
const fleetShardSalt = 0xa7c15f1ee7

// ingestItem is one batch in flight through the pipeline.
type ingestItem struct {
	batch NodeBatch
	enq   time.Time
}

// actItem is one decided-but-not-yet-applied actuation.
type actItem struct {
	fn     *fleetNode
	node   int
	slices map[int]sim.Time
	enq    time.Time
}

// fleetNode is one node's control state plus the lock that lets the
// shard's decider and applier (and Table/Snapshot readers) interleave
// safely. The lock is released around the blocking ApplyNode call so a
// wedged actuator never stalls deciding for the same node.
type fleetNode struct {
	mu         sync.Mutex
	loop       *nodeLoop
	lastCommit time.Time // wall clock of the last committed actuation

	qdepth int // queued actuations for this node; guarded by the shard's qmu
}

// fleetShard owns a disjoint subset of nodes: one decider goroutine
// turning each chunk received on batchc into per-node decisions, one
// applier goroutine draining the bounded actuation queue. Shards share
// nothing but the Fleet's counters (atomics), so the hot path takes no
// cross-shard locks.
type fleetShard struct {
	f      *Fleet
	batchc chan []ingestItem
	chunk  []ingestItem // Step's reusable chunk for this shard

	mu    sync.Mutex // guards nodes
	nodes map[int]*fleetNode

	// queue[qhead:] is the pending actuations, oldest first; the slice
	// is reused in place and rewinds whenever it empties.
	qmu     sync.Mutex // guards queue/qhead/qclosed and fleetNode.qdepth; ordered before fleetNode.mu
	qcond   *sync.Cond
	queue   []actItem
	qhead   int
	qclosed bool
}

// Fleet is the control plane, from one node to thousands: batched
// telemetry ingestion handed to each shard over a bounded channel,
// per-node controller state (nodeLoop) sharded across goroutines, and
// bounded per-node actuation queues with overflow accounting. Step runs
// one fleet-wide control period — one hand-off per shard — with a drain
// barrier, which keeps closed-loop simulation deterministic at any
// shard count; Ingest/Drain expose the asynchronous surface directly.
type Fleet struct {
	cfg  core.Config
	opts FleetOptions
	src  FleetSource
	act  FleetActuator

	ingestMu sync.RWMutex // serializes shard hand-offs against Close
	queued   atomic.Int64 // batches handed off but not yet taken by a decider
	shards   []*fleetShard
	inflight sync.WaitGroup
	wg       sync.WaitGroup

	stop      atomic.Bool
	stopc     chan struct{}
	stopOnce  sync.Once
	closed    atomic.Bool
	closeOnce sync.Once

	errMu sync.Mutex
	err   error

	periods        atomic.Uint64 // committed fleet steps (queue cursor)
	decisions      atomic.Uint64 // node-periods whose actuation landed
	overflow       atomic.Uint64 // actuation-queue overflow drops
	rejected       atomic.Uint64 // batches outside [0,MaxNodes)
	restoredNodes  atomic.Uint64
	skippedRestore atomic.Uint64

	tel      *telemetry.Registry
	telClock func() sim.Time
	telSteps atomic.Uint64 // sampled periods: the synthetic telemetry clock
}

// NewFleet builds the fleet control plane and starts its pipeline
// goroutines (Shards×(decider, applier)). src may be nil when the
// caller drives Ingest/Drain directly; Step then errors.
func NewFleet(cfg core.Config, src FleetSource, act FleetActuator, opts FleetOptions) *Fleet {
	if act == nil {
		panic("daemon: nil fleet actuator")
	}
	opts.sanitize()
	f := &Fleet{
		cfg:   cfg,
		opts:  opts,
		src:   src,
		act:   act,
		stopc: make(chan struct{}),
	}
	f.shards = make([]*fleetShard, opts.Shards)
	for i := range f.shards {
		sh := &fleetShard{
			f:      f,
			batchc: make(chan []ingestItem, opts.IngestCapacity),
			nodes:  make(map[int]*fleetNode),
		}
		sh.qcond = sync.NewCond(&sh.qmu)
		f.shards[i] = sh
	}
	for _, sh := range f.shards {
		f.wg.Add(2)
		go sh.decideLoop()
		go sh.applyLoop()
	}
	return f
}

// shardOf hashes a node ID onto its shard.
func (f *Fleet) shardOf(node int) *fleetShard {
	if len(f.shards) == 1 {
		return f.shards[0]
	}
	return f.shards[runner.Seed(fleetShardSalt, node)%uint64(len(f.shards))]
}

// SetTelemetry attaches a registry (usually a Plane's global registry)
// the fleet publishes into: a "decision" span per Step; per node-period
// daemon_decision_{apply,drop,giveup} counters; the fleet-wide
// retries/dropped/stale/degraded counts; a daemon_slice_ns series per
// (node, VM) on every commit; overflow counters, ingest-queue depth, a
// wall-clock decision-latency histogram (ingest→actuation-landed), and
// restore spans. clock supplies the sim-time axis (e.g. SimBackend.Now);
// when nil, periods are placed on a synthetic 30 ms grid.
func (f *Fleet) SetTelemetry(reg *telemetry.Registry, clock func() sim.Time) {
	f.tel = reg
	f.telClock = clock
}

// telNow returns the current telemetry timestamp.
func (f *Fleet) telNow() sim.Time {
	if f.telClock != nil {
		return f.telClock()
	}
	return sim.Time(f.telSteps.Load()) * 30 * sim.Millisecond
}

// Ingest hands one node's batch to its shard for decision and
// actuation, blocking when the shard's ingest channel is full
// (backpressure). Batches for nodes outside MaxNodes are counted in
// Rejected and ignored. Returns an error only after Close.
func (f *Fleet) Ingest(b NodeBatch) error {
	if !f.admit(b.Node) {
		return nil
	}
	return f.handOff(f.shardOf(b.Node), []ingestItem{{batch: b, enq: time.Now()}})
}

// admit reports whether node is inside MaxNodes, counting a rejection
// when it is not.
func (f *Fleet) admit(node int) bool {
	if f.opts.MaxNodes > 0 && (node < 0 || node >= f.opts.MaxNodes) {
		f.rejected.Add(1)
		return false
	}
	return true
}

// handOff sends one chunk of batches to a shard's decider: the single
// path from Ingest and Step into the pipeline.
func (f *Fleet) handOff(sh *fleetShard, chunk []ingestItem) error {
	f.ingestMu.RLock()
	defer f.ingestMu.RUnlock()
	if f.closed.Load() {
		return errors.New("daemon: fleet closed")
	}
	f.inflight.Add(len(chunk))
	f.queued.Add(int64(len(chunk)))
	sh.batchc <- chunk
	return nil
}

// Drain blocks until every ingested batch has been decided and its
// actuation has landed, overflowed, or dropped — the period barrier.
func (f *Fleet) Drain() { f.inflight.Wait() }

// node returns the shard-local state for a node, creating it on first
// sight.
func (sh *fleetShard) node(id int) *fleetNode {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fn, ok := sh.nodes[id]
	if !ok {
		fn = &fleetNode{loop: newNodeLoop(sh.f.cfg, sh.f.opts.Node)}
		sh.nodes[id] = fn
	}
	return fn
}

// decideLoop turns each chunk of batches into slice decisions and
// queues them for actuation in one push.
func (sh *fleetShard) decideLoop() {
	defer sh.f.wg.Done()
	defer sh.closeQueue()
	var acts, evicted []actItem
	for chunk := range sh.batchc {
		sh.f.queued.Add(-int64(len(chunk)))
		acts = acts[:0]
		for _, it := range chunk {
			fn := sh.node(it.batch.Node)
			fn.mu.Lock()
			slices := fn.loop.decide(it.batch.Samples)
			fn.mu.Unlock()
			acts = append(acts, actItem{fn: fn, node: it.batch.Node, slices: slices, enq: it.enq})
		}
		evicted = sh.push(acts, evicted[:0])
		for i := range evicted {
			sh.drop(&evicted[i])
		}
		clear(acts)
		clear(evicted)
	}
}

// push appends a chunk's actuations under one lock and one wake-up and
// returns, appended to evicted, the queued decisions they displaced:
// when a node's queue is at capacity its oldest queued decision is
// evicted, superseded by fresher data.
func (sh *fleetShard) push(acts, evicted []actItem) []actItem {
	sh.qmu.Lock()
	defer sh.qmu.Unlock()
	if sh.qhead > 0 && len(sh.queue)+len(acts) > cap(sh.queue) {
		// Compact rather than grow past the dead prefix.
		n := copy(sh.queue, sh.queue[sh.qhead:])
		clear(sh.queue[n:])
		sh.queue, sh.qhead = sh.queue[:n], 0
	}
	for _, it := range acts {
		if it.fn.qdepth >= sh.f.opts.QueueCapacity {
			for i := sh.qhead; i < len(sh.queue); i++ {
				if sh.queue[i].fn == it.fn {
					evicted = append(evicted, sh.queue[i])
					copy(sh.queue[i:], sh.queue[i+1:])
					sh.queue[len(sh.queue)-1] = actItem{}
					sh.queue = sh.queue[:len(sh.queue)-1]
					it.fn.qdepth--
					break
				}
			}
		}
		sh.queue = append(sh.queue, it)
		it.fn.qdepth++
	}
	sh.qcond.Signal()
	return evicted
}

// drop accounts for one evicted decision: overflow and a dropped
// period, but not a consecutive drop — nothing failed, the plane just
// fell behind.
func (sh *fleetShard) drop(it *actItem) {
	sh.f.overflow.Add(1)
	it.fn.mu.Lock()
	it.fn.loop.stats.DroppedPeriods++
	it.fn.mu.Unlock()
	if sh.f.tel != nil {
		sh.f.tel.Add("fleet_actq_overflow", telemetry.GlobalLabel(), 1)
	}
	sh.f.inflight.Done()
}

// closeQueue wakes the applier for final drain-and-exit.
func (sh *fleetShard) closeQueue() {
	sh.qmu.Lock()
	sh.qclosed = true
	sh.qcond.Broadcast()
	sh.qmu.Unlock()
}

// pop blocks for the next actuation; false means closed and fully
// drained.
func (sh *fleetShard) pop() (actItem, bool) {
	sh.qmu.Lock()
	defer sh.qmu.Unlock()
	for sh.qhead == len(sh.queue) && !sh.qclosed {
		sh.qcond.Wait()
	}
	if sh.qhead == len(sh.queue) {
		return actItem{}, false
	}
	it := sh.queue[sh.qhead]
	sh.queue[sh.qhead] = actItem{}
	sh.qhead++
	if sh.qhead == len(sh.queue) {
		sh.queue, sh.qhead = sh.queue[:0], 0
	}
	it.fn.qdepth--
	return it, true
}

// applyLoop drains the actuation queue through the per-node retry
// machinery.
func (sh *fleetShard) applyLoop() {
	defer sh.f.wg.Done()
	for {
		it, ok := sh.pop()
		if !ok {
			return
		}
		sh.apply(&it)
	}
}

// apply drives one actuation. The node lock is dropped around the
// blocking ApplyNode call — a wedged actuator must not stall deciding
// for this node — and re-taken for every state mutation, reusing
// nodeLoop.applyWithRetry verbatim.
func (sh *fleetShard) apply(it *actItem) {
	defer sh.f.inflight.Done()
	fn := it.fn
	fn.mu.Lock()
	committed, err := fn.loop.applyWithRetry(it.slices, func(s map[int]sim.Time) error {
		fn.mu.Unlock()
		e := sh.f.act.ApplyNode(it.node, s)
		fn.mu.Lock()
		return e
	}, sh.f.wait)
	if committed {
		fn.loop.commit(it.slices)
		fn.lastCommit = time.Now()
	}
	if sh.f.tel != nil {
		sh.f.publishApply(it, fn.loop, committed, err)
	}
	fn.mu.Unlock()
	if err != nil {
		sh.f.setErr(fmt.Errorf("fleet node %d: %w", it.node, err))
	}
	if committed {
		sh.f.decisions.Add(1)
	}
}

// publishApply records one node-period's actuation outcome (tel is
// non-nil when called; the caller holds the node lock, since l's VM
// records carry the cached labels): its daemon_decision_* counter and,
// on commit, the decision latency and the node's per-VM slice points.
func (f *Fleet) publishApply(it *actItem, l *nodeLoop, committed bool, err error) {
	lab := telemetry.GlobalLabel()
	switch {
	case err != nil:
		f.tel.Add("daemon_decision_giveup", lab, 1)
	case !committed:
		f.tel.Add("daemon_decision_drop", lab, 1)
	default:
		f.tel.Add("daemon_decision_apply", lab, 1)
		f.tel.Observe("fleet_decision_latency", lab, sim.Time(time.Since(it.enq).Nanoseconds()))
		now := f.telNow()
		for id, sl := range it.slices {
			r := l.vm(id)
			if r.label == "" {
				r.label = fmt.Sprintf("vm%d", id)
			}
			f.tel.Point("daemon_slice_ns", telemetry.Label{Node: it.node, VM: r.label}, now, float64(sl))
		}
	}
}

// publishStep records one fleet period in the telemetry registry (tel
// is non-nil when called): the "decision" span from start to now, and
// the fleet-wide fault-handling counts.
func (f *Fleet) publishStep(start sim.Time) {
	now := f.telNow()
	if now < start {
		now = start
	}
	lab := telemetry.GlobalLabel()
	f.tel.AddSpan(telemetry.Span{
		Name: "decision", Track: "daemon", Node: -1, Start: start, End: now,
	})
	st := f.Stats()
	f.tel.SetCount("daemon_retries", lab, st.Retries)
	f.tel.SetCount("daemon_dropped_periods", lab, st.DroppedPeriods)
	f.tel.SetCount("daemon_stale_samples", lab, st.StaleSamples)
	f.tel.SetCount("daemon_degraded", lab, st.Degraded)
}

// wait performs one retry backoff: wall clock, cut short by Stop (the
// remaining attempts still run — stop drains, it does not abandon).
func (f *Fleet) wait(dt time.Duration) {
	if f.opts.Node.Sleep != nil {
		f.opts.Node.Sleep(dt)
		return
	}
	t := time.NewTimer(dt)
	defer t.Stop()
	select {
	case <-t.C:
	case <-f.stopc:
	}
}

// setErr records the first terminal error (give-up on some node);
// further periods for other nodes keep flowing, but Step/Run surface
// it.
func (f *Fleet) setErr(err error) {
	f.errMu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.errMu.Unlock()
}

// Err returns the sticky terminal error, if any.
func (f *Fleet) Err() error {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	return f.err
}

// Step runs one fleet-wide control period: sample every node, hand
// each shard its share of the batches as one chunk, and wait for the
// drain barrier. It returns io.EOF when the source is exhausted and the
// sticky terminal error once any node's loop has given up. Step is not
// safe for concurrent use with itself; Ingest may run alongside it.
func (f *Fleet) Step() error {
	if err := f.Err(); err != nil {
		return err
	}
	if f.src == nil {
		return errors.New("daemon: fleet has no source; drive Ingest/Drain directly")
	}
	start := f.telNow()
	batches, err := f.src.SampleFleet()
	if err != nil {
		return err
	}
	f.telSteps.Add(1)
	enq := time.Now()
	for _, b := range batches {
		if f.admit(b.Node) {
			sh := f.shardOf(b.Node)
			sh.chunk = append(sh.chunk, ingestItem{batch: b, enq: enq})
		}
	}
	for _, sh := range f.shards {
		if len(sh.chunk) == 0 {
			continue
		}
		if err := f.handOff(sh, sh.chunk); err != nil {
			for _, sh := range f.shards {
				sh.chunk = nil // a decider may still hold the old ones
			}
			return err
		}
	}
	if f.tel != nil {
		f.tel.SetGauge("fleet_ingest_depth", telemetry.GlobalLabel(), float64(f.queued.Load()))
	}
	f.Drain()
	for _, sh := range f.shards {
		// The deciders are done with the chunks: reuse them next period.
		clear(sh.chunk)
		sh.chunk = sh.chunk[:0]
	}
	f.periods.Add(1)
	if f.tel != nil {
		f.publishStep(start)
	}
	return f.Err()
}

// Run executes Step until io.EOF (clean end), a terminal error, or
// Stop. Transient actuator failures are absorbed by the per-node
// retry/drop policy and do not end the loop. A stop arriving mid-period
// never truncates it: the period's remaining retry attempts run (their
// backoff waits cut short), so its in-flight actuations drain before
// Run returns.
func (f *Fleet) Run() error {
	for !f.stop.Load() {
		if err := f.Step(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
	return nil
}

// Stop asks Run to return at the next period boundary and wakes any
// in-progress backoff waits so the in-flight actuations drain
// immediately. Safe from any goroutine.
func (f *Fleet) Stop() {
	f.stop.Store(true)
	f.stopOnce.Do(func() { close(f.stopc) })
}

// Close shuts the pipeline down after draining everything already
// ingested. Idempotent. Ingest/Step fail afterwards.
func (f *Fleet) Close() {
	f.closeOnce.Do(func() {
		f.ingestMu.Lock()
		f.closed.Store(true)
		for _, sh := range f.shards {
			close(sh.batchc)
		}
		f.ingestMu.Unlock()
		f.wg.Wait()
	})
}

// Periods returns the number of completed fleet control periods (the
// snapshot queue cursor).
func (f *Fleet) Periods() uint64 { return f.periods.Load() }

// Decisions returns the number of node-periods whose actuation landed.
func (f *Fleet) Decisions() uint64 { return f.decisions.Load() }

// Overflow returns the number of decisions dropped to actuation-queue
// overflow.
func (f *Fleet) Overflow() uint64 { return f.overflow.Load() }

// Rejected returns the number of batches ignored for being outside
// MaxNodes.
func (f *Fleet) Rejected() uint64 { return f.rejected.Load() }

// RestoredNodes and SkippedRestoreNodes count Restore's accepted and
// ignored node entries.
func (f *Fleet) RestoredNodes() uint64       { return f.restoredNodes.Load() }
func (f *Fleet) SkippedRestoreNodes() uint64 { return f.skippedRestore.Load() }

// Nodes lists every node the fleet holds state for, sorted.
func (f *Fleet) Nodes() []int {
	var ids []int
	for _, sh := range f.shards {
		sh.mu.Lock()
		for id := range sh.nodes {
			ids = append(ids, id)
		}
		sh.mu.Unlock()
	}
	sort.Ints(ids)
	return ids
}

// Stats aggregates the per-node fault-handling counters.
func (f *Fleet) Stats() Stats {
	var out Stats
	for _, sh := range f.shards {
		sh.mu.Lock()
		nodes := make([]*fleetNode, 0, len(sh.nodes))
		for _, fn := range sh.nodes {
			nodes = append(nodes, fn)
		}
		sh.mu.Unlock()
		for _, fn := range nodes {
			fn.mu.Lock()
			out.add(fn.loop.stats)
			fn.mu.Unlock()
		}
	}
	return out
}

// LastSlices returns a copy of the last committed slices for one node
// (nil if the node is unknown).
func (f *Fleet) LastSlices(node int) map[int]sim.Time {
	sh := f.shardOf(node)
	sh.mu.Lock()
	fn, ok := sh.nodes[node]
	sh.mu.Unlock()
	if !ok {
		return nil
	}
	fn.mu.Lock()
	defer fn.mu.Unlock()
	out := make(map[int]sim.Time, len(fn.loop.order))
	for _, r := range fn.loop.order {
		if r.hasLast {
			out[r.id] = r.last
		}
	}
	return out
}

// FleetNodeStatus is one row of the /debug/atc fleet table.
type FleetNodeStatus struct {
	Node int `json:"node"`
	// Policy is the node's scheduler policy name, filled in by the
	// backend owner (the fleet itself is policy-agnostic).
	Policy string `json:"policy,omitempty"`
	// VMs is the number of VMs the node's controller tracks.
	VMs int `json:"vms"`
	// SliceUS is the slice currently in force for the node's parallel
	// VMs (the Algorithm-2 minimum), in microseconds; 0 when none.
	SliceUS float64 `json:"sliceUs"`
	// Periods counts the node's committed control periods.
	Periods uint64 `json:"periods"`
	// LastDecisionAgeMS is the wall-clock age of the node's last
	// committed actuation; -1 before the first.
	LastDecisionAgeMS float64 `json:"lastDecisionAgeMs"`
	// QueueDepth is the node's queued-but-unapplied actuation count.
	QueueDepth int `json:"queueDepth"`
	// DroppedPeriods and StaleSamples are the node's fault counters.
	DroppedPeriods uint64 `json:"droppedPeriods"`
	StaleSamples   uint64 `json:"staleSamples"`
}

// Table renders the per-node fleet view, sorted by node ID.
func (f *Fleet) Table() []FleetNodeStatus {
	now := time.Now()
	var out []FleetNodeStatus
	for _, sh := range f.shards {
		sh.mu.Lock()
		ids := make([]int, 0, len(sh.nodes))
		for id := range sh.nodes {
			ids = append(ids, id)
		}
		sh.mu.Unlock()
		for _, id := range ids {
			fn := sh.node(id)
			sh.qmu.Lock()
			depth := fn.qdepth
			sh.qmu.Unlock()
			fn.mu.Lock()
			vms := 0
			minSlice := sim.Time(0)
			for _, r := range fn.loop.order {
				if !r.known {
					continue
				}
				vms++
				if r.parallel && r.hasLast && (minSlice == 0 || r.last < minSlice) {
					minSlice = r.last
				}
			}
			st := FleetNodeStatus{
				Node:              id,
				VMs:               vms,
				Periods:           fn.loop.periods,
				LastDecisionAgeMS: -1,
				QueueDepth:        depth,
				DroppedPeriods:    fn.loop.stats.DroppedPeriods,
				StaleSamples:      fn.loop.stats.StaleSamples,
			}
			if !fn.lastCommit.IsZero() {
				st.LastDecisionAgeMS = float64(now.Sub(fn.lastCommit)) / float64(time.Millisecond)
			}
			st.SliceUS = minSlice.Micros()
			fn.mu.Unlock()
			out = append(out, st)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// FleetSummary is the top-level fleet view for /debug/atc.
type FleetSummary struct {
	Nodes       int    `json:"nodes"`
	Shards      int    `json:"shards"`
	Periods     uint64 `json:"periods"`
	Decisions   uint64 `json:"decisions"`
	Overflow    uint64 `json:"overflow"`
	Rejected    uint64 `json:"rejected,omitempty"`
	IngestDepth int    `json:"ingestDepth"`
	QueueDepth  int    `json:"queueDepth"`
	Stats       Stats  `json:"stats"`
}

// Summary aggregates the fleet-wide control-plane state.
func (f *Fleet) Summary() FleetSummary {
	s := FleetSummary{
		Shards:      len(f.shards),
		Periods:     f.Periods(),
		Decisions:   f.Decisions(),
		Overflow:    f.Overflow(),
		Rejected:    f.Rejected(),
		IngestDepth: int(f.queued.Load()),
		Stats:       f.Stats(),
	}
	for _, sh := range f.shards {
		sh.mu.Lock()
		s.Nodes += len(sh.nodes)
		sh.mu.Unlock()
		sh.qmu.Lock()
		s.QueueDepth += len(sh.queue) - sh.qhead
		sh.qmu.Unlock()
	}
	return s
}
