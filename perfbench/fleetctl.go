package main

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"time"

	"atcsched/internal/core"
	"atcsched/internal/daemon"
	"atcsched/internal/sim"
)

// fleetConfig sizes a fleet-control pass.
type fleetConfig struct {
	nodes, periods int
	period         time.Duration // between due times
	killAt         int           // periods completed before the kill-restore
	watch          int           // clean nodes replayed by the output check
}

// fleetControl is 4096 nodes × 150 periods of 30 ms (4.5 s of schedule)
// with one kill-restore halfway.
var fleetControl = fleetConfig{nodes: 4096, periods: 150, period: 30 * time.Millisecond, killAt: 75, watch: 64}

func fleetControlPass(seed uint64, tr *tracer) (passResult, error) {
	return runFleetControl(seed, fleetControl, tr, nil)
}

// nodeRecord keeps one watched node's released samples and applied
// slices, period by period, for the replay check.
type nodeRecord struct {
	samples [][]daemon.VMSample
	applied []map[int]sim.Time
}

// openLoop releases period k's batches when they are due, at
// t0 + k·period plus any time the clock was paused, however late the
// previous period finished: an open loop, so a stall shows as lateness
// in every later decision.
type openLoop struct {
	gen      *fleetGen
	periods  int
	period   time.Duration
	t0       time.Time
	paused   time.Duration
	k        int
	released int // node batches released so far
	watch    []*nodeRecord
	m        *fleetMeter
	tr       *tracer
}

func (s *openLoop) SampleFleet() ([]daemon.NodeBatch, error) {
	if s.k >= s.periods {
		return nil, io.EOF
	}
	s.tr.begin("source.generate")
	batches := s.gen.next()
	for _, b := range batches {
		if r := s.watch[b.Node]; r != nil {
			r.samples = append(r.samples, append([]daemon.VMSample(nil), b.Samples...))
		}
	}
	s.tr.end()
	due := s.t0.Add(time.Duration(s.k)*s.period + s.paused)
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	if s.m != nil {
		s.m.release(due, time.Now())
	}
	s.k++
	s.released += len(batches)
	return batches, nil
}

// recordingActuator is the fleet's actuator: it keeps the watched
// nodes' slices. slow, when set, runs first on every call (tests).
type recordingActuator struct {
	watch []*nodeRecord
	slow  func(node int)
}

func (a *recordingActuator) ApplyNode(node int, s map[int]sim.Time) error {
	if a.slow != nil {
		a.slow(node)
	}
	if node < 0 || node >= len(a.watch) {
		return fmt.Errorf("actuation for unknown node %d", node)
	}
	if r := a.watch[node]; r != nil {
		r.applied = append(r.applied, maps.Clone(s))
	}
	return nil
}

// recovery is the kill-restore's record.
type recovery struct {
	took     time.Duration
	snap     []byte
	restored uint64
}

// runFleetControl drives the control plane alone, open loop, and checks
// what it actuated. One operation is one node-period decision.
func runFleetControl(seed uint64, c fleetConfig, tr *tracer, slow func(node int)) (passResult, error) {
	var res passResult
	gen := newFleetGen(seed, c.nodes)
	watch := make([]*nodeRecord, c.nodes)
	watched := gen.cleanNodes(seed, c.watch)
	for _, n := range watched {
		watch[n] = &nodeRecord{}
	}
	var m *fleetMeter
	if tr != nil {
		m = newFleetMeter(c.nodes * c.periods)
	}
	src := &openLoop{gen: gen, periods: c.periods, period: c.period, watch: watch, m: m, tr: tr}
	var act daemon.FleetActuator = &recordingActuator{watch: watch, slow: slow}
	if m != nil {
		act = &meteredActuator{inner: act, m: m}
	}
	cfg := core.DefaultConfig()
	opts := daemon.FleetOptions{Shards: 1, MaxNodes: c.nodes}

	start := time.Now()
	f := daemon.NewFleet(cfg, src, act, opts)
	res.BuildS = sinceS(start)
	defer func() { f.Close() }()

	var rec recovery
	err := measure(tr, &res, func() error {
		src.t0 = time.Now()
		for {
			if src.k == c.killAt && rec.snap == nil {
				var err error
				if f, err = killRestore(f, cfg, src, act, opts, tr, &rec); err != nil {
					return err
				}
			}
			tr.begin("fleet.Step")
			err := f.Step()
			tr.end()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if m != nil {
				m.stepDone(time.Now())
			}
		}
	})

	// Output checks.
	res.Attempted = max(src.released, 1)
	decisions := int(f.Decisions())
	stats := f.Stats()
	res.Failed = res.Attempted - decisions + int(f.Overflow()+f.Rejected()+stats.DroppedPeriods)
	checked := 0
	switch {
	case err != nil:
		res.fail("run: %v", err)
	case f.Err() != nil:
		res.fail("fleet: %v", f.Err())
	case res.Failed != 0:
		res.fail("%d of %d decisions missing, %d overflowed, %d rejected, %d dropped",
			res.Attempted-decisions, res.Attempted, f.Overflow(), f.Rejected(), stats.DroppedPeriods)
	case rec.restored != uint64(c.nodes):
		res.fail("restore brought back %d nodes, want %d", rec.restored, c.nodes)
	default:
		dec, err := roundTrip(rec.snap)
		if err == nil {
			checked, err = replay(cfg, watched, watch, c, dec)
		}
		if err != nil {
			res.fail("%v", err)
		}
	}
	res.Det = map[string]float64{
		"daemon.decisions":     float64(decisions),
		"daemon.stale_skipped": float64(stats.StaleSamples),
		"replay.decisions":     float64(checked),
		"snapshot.bytes":       float64(len(rec.snap)),
	}
	if tr == nil {
		return res, nil
	}
	m.report(tr)
	tr.set("daemon.decisions", float64(decisions))
	tr.set("daemon.stale_skipped", float64(stats.StaleSamples))
	tr.set("daemon.overflow", float64(f.Overflow()))
	tr.set("daemon.recover_s", rec.took.Seconds())
	tr.set("daemon.snapshot_encode_ms", ms(tr.total("daemon.Snapshot")))
	tr.set("daemon.snapshot_decode_ms", ms(tr.total("daemon.DecodeSnapshot")))
	tr.set("daemon.restore_ms", ms(tr.total("daemon.Restore")))
	tr.set("daemon.snapshot_mb", float64(len(rec.snap))/1e6)
	tr.set("go.allocs_per_op", tr.allocs()/float64(max(decisions, 1)))
	tr.set("core.decide_ns", bareDecideNs(seed, c, cfg, tr))
	return res, nil
}

// killRestore kills the fleet at a Step barrier and brings up a new one
// from its snapshot: Snapshot → Encode → (kill) → DecodeSnapshot → new
// Fleet → Restore. The source's due-time clock pauses meanwhile.
func killRestore(f *daemon.Fleet, cfg core.Config, src *openLoop, act daemon.FleetActuator,
	opts daemon.FleetOptions, tr *tracer, rec *recovery) (*daemon.Fleet, error) {
	start := time.Now()
	tr.begin("daemon.Snapshot")
	enc, err := f.Snapshot().Encode()
	tr.end()
	f.Close()
	if err != nil {
		return f, fmt.Errorf("snapshot: %w", err)
	}
	tr.begin("daemon.DecodeSnapshot")
	dec, err := daemon.DecodeSnapshot(enc)
	tr.end()
	if err != nil {
		return f, err
	}
	tr.begin("daemon.Restore")
	nf := daemon.NewFleet(cfg, src, act, opts)
	err = nf.Restore(dec)
	tr.end()
	rec.took = time.Since(start)
	rec.snap = enc
	rec.restored = nf.RestoredNodes()
	src.paused += rec.took
	return nf, err
}

// replay re-derives every decision of the watched clean nodes with an
// independent core.Controller per node and compares it with what was
// actuated. At the kill point the replay's controller state must equal
// the snapshot's, and the replay continues from a controller restored
// from that snapshot. It returns the number of decisions compared.
func replay(cfg core.Config, nodes []int, watch []*nodeRecord, c fleetConfig, snap *daemon.FleetSnapshot) (int, error) {
	byNode := map[int]*daemon.NodeSnapshot{}
	for i := range snap.Nodes {
		byNode[snap.Nodes[i].Node] = &snap.Nodes[i]
	}
	sort.Ints(nodes)
	checked := 0
	for _, n := range nodes {
		r := watch[n]
		if len(r.samples) != c.periods || len(r.applied) != c.periods {
			return checked, fmt.Errorf("replay node %d: %d batches and %d actuations, want %d each",
				n, len(r.samples), len(r.applied), c.periods)
		}
		ctl := core.NewController(cfg)
		inForce := map[int]sim.Time{}
		lastSeq := map[int]uint64{}
		for k, samples := range r.samples {
			if k == c.killAt {
				var err error
				if ctl, err = restoreReplay(cfg, ctl, inForce, byNode[n]); err != nil {
					return checked, fmt.Errorf("replay node %d at the kill point: %w", n, err)
				}
			}
			infos := make([]core.VMInfo, 0, len(samples))
			for _, s := range samples {
				if s.Seq <= lastSeq[s.ID] {
					return checked, fmt.Errorf("replay node %d period %d: VM %d sample is stale", n, k, s.ID)
				}
				lastSeq[s.ID] = s.Seq
				sl, ok := inForce[s.ID]
				if !ok {
					sl = cfg.Default
				}
				ctl.Observe(s.ID, s.AvgSpinLatency, sl)
				infos = append(infos, core.VMInfo{ID: s.ID, Parallel: s.Parallel, AdminSlice: s.AdminSlice})
			}
			want := ctl.NodeSlices(infos)
			if !maps.Equal(want, r.applied[k]) {
				return checked, fmt.Errorf("replay node %d period %d: actuated %v, replay decides %v", n, k, r.applied[k], want)
			}
			maps.Copy(inForce, want)
			checked++
		}
	}
	return checked, nil
}

// restoreReplay checks the replay controller against the node's
// snapshot entry and returns a fresh controller imported from it.
func restoreReplay(cfg core.Config, ctl *core.Controller, inForce map[int]sim.Time, ns *daemon.NodeSnapshot) (*core.Controller, error) {
	if ns == nil {
		return nil, fmt.Errorf("node missing from the snapshot")
	}
	restored := core.NewController(cfg)
	for _, vs := range ns.VMs {
		lat, slice, obs, ok := ctl.ExportVM(vs.ID)
		switch {
		case !ok:
			return nil, fmt.Errorf("VM %d in the snapshot was never observed", vs.ID)
		case !slices.Equal(lat, vs.Lat) || !slices.Equal(slice, vs.Slice) || obs != vs.Observed:
			return nil, fmt.Errorf("VM %d history differs from the snapshot", vs.ID)
		case !vs.HasLast || vs.Last != inForce[vs.ID]:
			return nil, fmt.Errorf("VM %d last slice %v, replay has %v", vs.ID, vs.Last, inForce[vs.ID])
		}
		if err := restored.ImportVM(vs.ID, vs.Lat, vs.Slice, vs.Observed); err != nil {
			return nil, err
		}
	}
	if got, want := len(ns.VMs), len(ctl.TrackedVMs()); got != want {
		return nil, fmt.Errorf("snapshot has %d VMs, replay tracks %d", got, want)
	}
	return restored, nil
}

// bareDecideNs times Observe+NodeSlices on bare core.Controllers (one
// per node) over the pass's batches, regenerated from the seed, and
// returns nanoseconds per node decision. Generation is not timed.
func bareDecideNs(seed uint64, c fleetConfig, cfg core.Config, tr *tracer) float64 {
	gen := newFleetGen(seed, c.nodes)
	ctls := make([]*core.Controller, c.nodes)
	inForce := make([]map[int]sim.Time, c.nodes)
	for n := range ctls {
		ctls[n] = core.NewController(cfg)
		inForce[n] = map[int]sim.Time{}
	}
	var busy time.Duration
	decisions := 0
	infos := make([]core.VMInfo, 0, vmsPerNode)
	for range c.periods {
		batches := gen.next()
		tr.begin("core.decide")
		start := time.Now()
		for _, b := range batches {
			ctl, in := ctls[b.Node], inForce[b.Node]
			infos = infos[:0]
			for _, s := range b.Samples {
				sl, ok := in[s.ID]
				if !ok {
					sl = cfg.Default
				}
				ctl.Observe(s.ID, s.AvgSpinLatency, sl)
				infos = append(infos, core.VMInfo{ID: s.ID, Parallel: s.Parallel, AdminSlice: s.AdminSlice})
			}
			maps.Copy(in, ctl.NodeSlices(infos))
		}
		busy += time.Since(start)
		tr.end()
		decisions += len(batches)
	}
	return float64(busy.Nanoseconds()) / float64(max(decisions, 1))
}
