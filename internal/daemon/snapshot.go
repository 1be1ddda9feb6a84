package daemon

import (
	"encoding/json"
	"fmt"
	"slices"

	"atcsched/internal/core"
	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
)

// SnapshotVersion is the fleet snapshot schema version. Bump it — and
// extend DecodeSnapshot — whenever a field changes meaning; decode
// rejects any other version outright rather than guessing.
const SnapshotVersion = 1

// VMSnapshot is one VM's control state inside a NodeSnapshot. Times are
// sim.Time nanoseconds; Lat/Slice are the controller's history windows,
// oldest first, present only for VMs the controller has observed.
type VMSnapshot struct {
	ID        int        `json:"id"`
	Known     bool       `json:"known,omitempty"`
	Parallel  bool       `json:"parallel,omitempty"`
	Admin     sim.Time   `json:"admin,omitempty"`
	HasLast   bool       `json:"hasLast,omitempty"`
	Last      sim.Time   `json:"last,omitempty"`
	Seq       uint64     `json:"seq,omitempty"`
	StaleRuns int        `json:"staleRuns,omitempty"`
	Observed  int        `json:"observed,omitempty"`
	Lat       []sim.Time `json:"lat,omitempty"`
	Slice     []sim.Time `json:"slice,omitempty"`
}

// NodeSnapshot is one fleet node's control state.
type NodeSnapshot struct {
	Node        int          `json:"node"`
	Periods     uint64       `json:"periods"`
	ConsecDrops int          `json:"consecDrops,omitempty"`
	Stats       Stats        `json:"stats"`
	VMs         []VMSnapshot `json:"vms,omitempty"`
}

// FleetSnapshot is the deterministic, JSON-versioned image of the whole
// control plane: per-node controller history, last-applied slices,
// sequence numbers, stale/backoff accounting, plus the fleet queue
// cursors (Periods/Decisions/Overflow). It holds no wall-clock state,
// so a restore never perturbs the determinism fingerprint. Snapshots
// are taken at the Step barrier, when the ingest channels and actuation
// queues are empty — the queue cursor is the period count.
type FleetSnapshot struct {
	Version   int            `json:"version"`
	Config    core.Config    `json:"config"`
	Periods   uint64         `json:"periods"`
	Decisions uint64         `json:"decisions"`
	Overflow  uint64         `json:"overflow,omitempty"`
	Nodes     []NodeSnapshot `json:"nodes"`
}

// Encode renders the snapshot as deterministic indented JSON (sorted
// nodes and VMs, stable field order) with a trailing newline.
func (s *FleetSnapshot) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeSnapshot parses and version-checks a snapshot in one pass. Only
// a document that fails to parse is probed for its version, so one of
// another version reports the version mismatch rather than whatever
// field of its schema this one cannot read.
func DecodeSnapshot(data []byte) (*FleetSnapshot, error) {
	var s FleetSnapshot
	if err := json.Unmarshal(data, &s); err != nil {
		var probe struct {
			Version int `json:"version"`
		}
		if json.Unmarshal(data, &probe) == nil && probe.Version != SnapshotVersion {
			return nil, versionError(probe.Version)
		}
		return nil, fmt.Errorf("daemon: snapshot: %w", err)
	}
	if s.Version != SnapshotVersion {
		return nil, versionError(s.Version)
	}
	return &s, nil
}

// versionError reports a snapshot of another schema version.
func versionError(v int) error {
	return fmt.Errorf("daemon: snapshot version %d, want %d", v, SnapshotVersion)
}

// Snapshot captures the fleet's control state. Call it at a Step
// barrier (or after Stop+Drain): in-flight work is not represented, by
// design — a decision that has not landed was never committed.
func (f *Fleet) Snapshot() *FleetSnapshot {
	s := &FleetSnapshot{
		Version:   SnapshotVersion,
		Config:    f.cfg,
		Periods:   f.Periods(),
		Decisions: f.Decisions(),
		Overflow:  f.Overflow(),
	}
	for _, id := range f.Nodes() {
		sh := f.shardOf(id)
		sh.mu.Lock()
		fn := sh.nodes[id]
		sh.mu.Unlock()
		if fn == nil {
			continue
		}
		fn.mu.Lock()
		s.Nodes = append(s.Nodes, snapshotNode(id, fn.loop))
		fn.mu.Unlock()
	}
	return s
}

// snapshotNode images one node's loop (caller holds the node lock).
func snapshotNode(id int, l *nodeLoop) NodeSnapshot {
	ns := NodeSnapshot{
		Node:        id,
		Periods:     l.periods,
		ConsecDrops: l.consecDrops,
		Stats:       l.stats,
	}
	ids := l.ctl.TrackedVMs()
	for _, r := range l.order {
		ids = append(ids, r.id)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	for _, vid := range ids {
		vs := VMSnapshot{ID: vid}
		if r, ok := l.vms[vid]; ok {
			vs.Known, vs.Parallel, vs.Admin = r.known, r.parallel, r.admin
			vs.HasLast, vs.Last = r.hasLast, r.last
			vs.Seq, vs.StaleRuns = r.seq, r.staleRuns
		}
		if lat, slice, obs, ok := l.ctl.ExportVM(vid); ok {
			vs.Lat, vs.Slice, vs.Observed = lat, slice, obs
		}
		ns.VMs = append(ns.VMs, vs)
	}
	return ns
}

// Restore loads a snapshot into a freshly-built fleet, replacing any
// state. The snapshot's controller config must match the fleet's (the
// history windows are config-shaped). Node entries outside MaxNodes —
// a snapshot from a larger fleet, or a corrupt node ID — are counted in
// SkippedRestoreNodes and ignored, never fatal: the control plane must
// come back up with whatever state is still valid. Call before Run.
func (f *Fleet) Restore(s *FleetSnapshot) error {
	if s.Version != SnapshotVersion {
		return versionError(s.Version)
	}
	if s.Config != f.cfg {
		return fmt.Errorf("daemon: snapshot config %+v does not match fleet config %+v", s.Config, f.cfg)
	}
	start := f.telNow()
	f.periods.Store(s.Periods)
	f.decisions.Store(s.Decisions)
	f.overflow.Store(s.Overflow)
	for i := range s.Nodes {
		ns := &s.Nodes[i]
		if f.opts.MaxNodes > 0 && (ns.Node < 0 || ns.Node >= f.opts.MaxNodes) {
			f.skippedRestore.Add(1)
			continue
		}
		l := newNodeLoop(f.cfg, f.opts.Node)
		l.periods = ns.Periods
		l.consecDrops = ns.ConsecDrops
		l.stats = ns.Stats
		for _, vs := range ns.VMs {
			if vs.Known || vs.HasLast || vs.Seq != 0 || vs.StaleRuns != 0 {
				r := l.vm(vs.ID)
				if vs.Seq != 0 {
					r.seq = vs.Seq
				}
				if vs.StaleRuns != 0 {
					r.staleRuns = vs.StaleRuns
				}
				if vs.Known {
					r.known, r.parallel, r.admin = true, vs.Parallel, vs.Admin
				}
				if vs.HasLast {
					r.hasLast, r.last = true, vs.Last
				}
			}
			if len(vs.Lat) > 0 || len(vs.Slice) > 0 {
				if err := l.ctl.ImportVM(vs.ID, vs.Lat, vs.Slice, vs.Observed); err != nil {
					return fmt.Errorf("daemon: restore node %d: %w", ns.Node, err)
				}
			}
		}
		sh := f.shardOf(ns.Node)
		sh.mu.Lock()
		sh.nodes[ns.Node] = &fleetNode{loop: l}
		sh.mu.Unlock()
		f.restoredNodes.Add(1)
	}
	if f.tel != nil {
		f.tel.AddSpan(telemetry.Span{
			Name: "restore", Track: "fleet", Node: -1, Start: start, End: f.telNow(),
			Value: sim.Time(f.restoredNodes.Load()),
		})
		f.tel.Add("fleet_restores", telemetry.GlobalLabel(), 1)
	}
	return nil
}
