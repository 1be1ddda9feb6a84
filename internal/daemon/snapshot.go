package daemon

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"atcsched/internal/core"
	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
)

// SnapshotVersion is the fleet snapshot schema version. Bump it on any
// change to the wire format; DecodeSnapshot rejects every other version
// outright rather than guessing or migrating.
const SnapshotVersion = 2

// VMSnapshot is one VM's control state inside a NodeSnapshot. Times are
// sim.Time nanoseconds; Lat/Slice are the controller's history windows,
// oldest first, present only for VMs the controller has observed.
type VMSnapshot struct {
	ID        int
	Known     bool
	Parallel  bool
	Admin     sim.Time
	HasLast   bool
	Last      sim.Time
	Seq       uint64
	StaleRuns int
	Observed  int
	Lat       []sim.Time
	Slice     []sim.Time
}

// NodeSnapshot is one fleet node's control state.
type NodeSnapshot struct {
	Node        int
	Periods     uint64
	ConsecDrops int
	Stats       Stats
	VMs         []VMSnapshot
}

// FleetSnapshot is the deterministic, versioned image of the whole
// control plane: per-node controller history, last-applied slices,
// sequence numbers, stale/backoff accounting, plus the fleet queue
// cursors (Periods/Decisions/Overflow). It holds no wall-clock state,
// so a restore never perturbs the determinism fingerprint. Snapshots
// are taken at the Step barrier, when the ingest channels and actuation
// queues are empty — the queue cursor is the period count.
//
// The version-2 wire format is compact JSON in which every time is an
// integer count of nanoseconds, every key is present in a fixed order,
// and each node sits on its own line:
//
//	{"version":2,"config":{"default":30000000,"minThreshold":300000,"alpha":6000000,"beta":300000,"window":3},"periods":6,"decisions":10,"overflow":0,"nodes":[
//	{"node":0,"periods":5,"consecDrops":0,"stats":{"retries":0,"droppedPeriods":0,"staleSamples":0,"degraded":0},"vms":[[1,7,0,24000000,5,0,5,2000000,2000000,2000000,24000000,24000000,24000000]]}
//	]}
//
// Each VM is one flat integer array [id, flags, admin, last, seq,
// staleRuns, observed, lat…, slice…]. Flags packs Known (1), Parallel
// (2) and HasLast (4); the trailing values split evenly into the Lat
// and Slice windows.
type FleetSnapshot struct {
	Version   int
	Config    core.Config
	Periods   uint64
	Decisions uint64
	Overflow  uint64
	Nodes     []NodeSnapshot
}

// VM flag bits on the wire.
const (
	vmKnown = 1 << iota
	vmParallel
	vmHasLast
)

// Encode renders the snapshot in the version-2 wire format with a
// trailing newline. The bytes are canonical: encoding a decoded
// snapshot reproduces the decoder's input.
func (s *FleetSnapshot) Encode() ([]byte, error) {
	if s.Version != SnapshotVersion {
		return nil, versionError(s.Version)
	}
	// Presize generously from the node and VM counts: a node's keys take
	// ~110 bytes, a VM's seven leading integers ~48, and a history value
	// at most 9 digits in practice.
	size := 256
	for i := range s.Nodes {
		size += 128
		for j := range s.Nodes[i].VMs {
			vm := &s.Nodes[i].VMs[j]
			if len(vm.Lat) != len(vm.Slice) {
				return nil, fmt.Errorf("daemon: snapshot node %d vm %d: lat window %d != slice window %d",
					s.Nodes[i].Node, vm.ID, len(vm.Lat), len(vm.Slice))
			}
			size += 48 + 9*2*len(vm.Lat)
		}
	}
	b := make([]byte, 0, size)
	b = strconv.AppendInt(append(b, `{"version":`...), int64(s.Version), 10)
	b = strconv.AppendInt(append(b, `,"config":{"default":`...), int64(s.Config.Default), 10)
	b = strconv.AppendInt(append(b, `,"minThreshold":`...), int64(s.Config.MinThreshold), 10)
	b = strconv.AppendInt(append(b, `,"alpha":`...), int64(s.Config.Alpha), 10)
	b = strconv.AppendInt(append(b, `,"beta":`...), int64(s.Config.Beta), 10)
	b = strconv.AppendInt(append(b, `,"window":`...), int64(s.Config.Window), 10)
	b = strconv.AppendUint(append(b, `},"periods":`...), s.Periods, 10)
	b = strconv.AppendUint(append(b, `,"decisions":`...), s.Decisions, 10)
	b = strconv.AppendUint(append(b, `,"overflow":`...), s.Overflow, 10)
	b = append(b, `,"nodes":[`...)
	for i := range s.Nodes {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendNode(append(b, '\n'), &s.Nodes[i])
	}
	if len(s.Nodes) > 0 {
		b = append(b, '\n')
	}
	return append(b, "]}\n"...), nil
}

// appendNode renders one node object.
func appendNode(b []byte, ns *NodeSnapshot) []byte {
	b = strconv.AppendInt(append(b, `{"node":`...), int64(ns.Node), 10)
	b = strconv.AppendUint(append(b, `,"periods":`...), ns.Periods, 10)
	b = strconv.AppendInt(append(b, `,"consecDrops":`...), int64(ns.ConsecDrops), 10)
	b = strconv.AppendUint(append(b, `,"stats":{"retries":`...), ns.Stats.Retries, 10)
	b = strconv.AppendUint(append(b, `,"droppedPeriods":`...), ns.Stats.DroppedPeriods, 10)
	b = strconv.AppendUint(append(b, `,"staleSamples":`...), ns.Stats.StaleSamples, 10)
	b = strconv.AppendUint(append(b, `,"degraded":`...), ns.Stats.Degraded, 10)
	b = append(b, `},"vms":[`...)
	for j := range ns.VMs {
		if j > 0 {
			b = append(b, ',')
		}
		vm := &ns.VMs[j]
		var flags uint64
		if vm.Known {
			flags |= vmKnown
		}
		if vm.Parallel {
			flags |= vmParallel
		}
		if vm.HasLast {
			flags |= vmHasLast
		}
		b = strconv.AppendInt(append(b, '['), int64(vm.ID), 10)
		b = strconv.AppendUint(append(b, ','), flags, 10)
		b = strconv.AppendInt(append(b, ','), int64(vm.Admin), 10)
		b = strconv.AppendInt(append(b, ','), int64(vm.Last), 10)
		b = strconv.AppendUint(append(b, ','), vm.Seq, 10)
		b = strconv.AppendInt(append(b, ','), int64(vm.StaleRuns), 10)
		b = strconv.AppendInt(append(b, ','), int64(vm.Observed), 10)
		for _, t := range vm.Lat {
			b = strconv.AppendInt(append(b, ','), int64(t), 10)
		}
		for _, t := range vm.Slice {
			b = strconv.AppendInt(append(b, ','), int64(t), 10)
		}
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// DecodeSnapshot parses a version-2 snapshot in one strict pass. It
// rejects malformed or truncated input, missing, misplaced or unknown
// keys, non-integer numbers, signs on unsigned fields and trailing
// data; whitespace between tokens is allowed. The version key comes
// first, so a document of another version reports the mismatch before
// any field of its schema is read.
func DecodeSnapshot(data []byte) (*FleetSnapshot, error) {
	d := snapDecoder{b: data}
	s := &FleetSnapshot{}
	d.tok('{')
	d.key("version")
	s.Version = d.int()
	if d.err == nil && s.Version != SnapshotVersion {
		return nil, versionError(s.Version)
	}
	d.next("config")
	d.tok('{')
	d.key("default")
	s.Config.Default = d.time()
	d.next("minThreshold")
	s.Config.MinThreshold = d.time()
	d.next("alpha")
	s.Config.Alpha = d.time()
	d.next("beta")
	s.Config.Beta = d.time()
	d.next("window")
	s.Config.Window = d.int()
	d.tok('}')
	d.next("periods")
	s.Periods = d.uint()
	d.next("decisions")
	s.Decisions = d.uint()
	d.next("overflow")
	s.Overflow = d.uint()
	d.next("nodes")
	d.tok('[')
	for more := !d.end(']'); more; more = d.more(']') {
		s.Nodes = append(s.Nodes, NodeSnapshot{})
		d.node(&s.Nodes[len(s.Nodes)-1])
	}
	d.tok('}')
	d.ws()
	if d.err == nil && d.i < len(d.b) {
		d.fail("trailing data")
	}
	if d.err != nil {
		return nil, d.err
	}
	return s, nil
}

// versionError reports a snapshot of another schema version.
func versionError(v int) error {
	return fmt.Errorf("daemon: snapshot version %d, want %d", v, SnapshotVersion)
}

// timeChunk is the number of history values one timeArena allocation
// holds; the Lat/Slice windows of many VMs share a chunk.
const timeChunk = 4096

// snapDecoder is DecodeSnapshot's cursor. Its error is sticky: after
// the first failure every read is a no-op returning zero, so the parse
// reads straight through and reports the first fault once.
type snapDecoder struct {
	b     []byte
	i     int
	err   error
	vms   []VMSnapshot // one node's VMs, copied out per node
	win   []sim.Time   // one VM's history values
	times timeArena
}

// fail records the first error with its byte offset.
func (d *snapDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("daemon: snapshot: byte %d: %s", d.i, what)
	}
}

// ws skips JSON whitespace.
func (d *snapDecoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// tok consumes the punctuation byte c.
func (d *snapDecoder) tok(c byte) {
	if d.err != nil {
		return
	}
	d.ws()
	switch {
	case d.i == len(d.b):
		d.fail(fmt.Sprintf("unexpected end of input, want %q", c))
	case d.b[d.i] != c:
		d.fail(fmt.Sprintf("want %q, got %q", c, d.b[d.i]))
	default:
		d.i++
	}
}

// end consumes c if it comes next (an empty list's close).
func (d *snapDecoder) end(c byte) bool {
	if d.err != nil {
		return true
	}
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// more reports whether another list element follows: it consumes a
// comma, or else the list's close.
func (d *snapDecoder) more(close byte) bool {
	if d.err != nil {
		return false
	}
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == ',' {
		d.i++
		return true
	}
	d.tok(close)
	return false
}

// key consumes the object key name and its colon.
func (d *snapDecoder) key(name string) {
	if d.err != nil {
		return
	}
	d.ws()
	rest := d.b[d.i:]
	if len(rest) < len(name)+2 || rest[0] != '"' || string(rest[1:1+len(name)]) != name || rest[1+len(name)] != '"' {
		d.fail(fmt.Sprintf("want key %q", name))
		return
	}
	d.i += len(name) + 2
	d.tok(':')
}

// next consumes the comma before key name, then the key.
func (d *snapDecoder) next(name string) {
	d.tok(',')
	d.key(name)
}

// number reads a JSON integer as its magnitude and sign; fractions and
// exponents are left unread, so the next token check rejects them.
func (d *snapDecoder) number(signed bool) (mag uint64, neg bool) {
	if d.err != nil {
		return 0, false
	}
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == '-' {
		if !signed {
			d.fail("sign on an unsigned field")
			return 0, false
		}
		neg = true
		d.i++
	}
	start := d.i
	for d.i < len(d.b) && d.b[d.i]-'0' <= 9 {
		mag = mag*10 + uint64(d.b[d.i]-'0')
		d.i++
	}
	digits := d.b[start:d.i]
	switch {
	case len(digits) == 0:
		d.fail("want an integer")
	case len(digits) > 1 && digits[0] == '0':
		d.fail("leading zero in an integer")
	case len(digits) > 19: // 20 digits may overflow a uint64; more must
		var err error
		if mag, err = strconv.ParseUint(string(digits), 10, 64); err != nil {
			d.fail("integer out of range")
		}
	}
	return mag, neg
}

// uint reads an unsigned integer.
func (d *snapDecoder) uint() uint64 {
	mag, _ := d.number(false)
	return mag
}

// int64 reads a signed 64-bit integer.
func (d *snapDecoder) int64() int64 {
	mag, neg := d.number(true)
	switch {
	case neg && mag <= 1<<63:
		return -int64(mag)
	case !neg && mag <= math.MaxInt64:
		return int64(mag)
	}
	d.fail("integer out of range")
	return 0
}

// int reads a signed integer that fits an int.
func (d *snapDecoder) int() int {
	v := d.int64()
	if int64(int(v)) != v {
		d.fail("integer out of range")
		return 0
	}
	return int(v)
}

// time reads a sim.Time in integer nanoseconds.
func (d *snapDecoder) time() sim.Time { return sim.Time(d.int64()) }

// node reads one node object.
func (d *snapDecoder) node(ns *NodeSnapshot) {
	d.tok('{')
	d.key("node")
	ns.Node = d.int()
	d.next("periods")
	ns.Periods = d.uint()
	d.next("consecDrops")
	ns.ConsecDrops = d.int()
	d.next("stats")
	d.tok('{')
	d.key("retries")
	ns.Stats.Retries = d.uint()
	d.next("droppedPeriods")
	ns.Stats.DroppedPeriods = d.uint()
	d.next("staleSamples")
	ns.Stats.StaleSamples = d.uint()
	d.next("degraded")
	ns.Stats.Degraded = d.uint()
	d.tok('}')
	d.next("vms")
	d.tok('[')
	d.vms = d.vms[:0]
	for more := !d.end(']'); more; more = d.more(']') {
		d.vms = append(d.vms, VMSnapshot{})
		d.vm(&d.vms[len(d.vms)-1])
	}
	d.tok('}')
	if d.err == nil && len(d.vms) > 0 {
		ns.VMs = slices.Clone(d.vms)
	}
}

// vm reads one VM array.
func (d *snapDecoder) vm(v *VMSnapshot) {
	d.tok('[')
	v.ID = d.int()
	d.tok(',')
	flags := d.uint()
	if flags&^(vmKnown|vmParallel|vmHasLast) != 0 {
		d.fail("unknown VM flag bits")
	}
	v.Known, v.Parallel, v.HasLast = flags&vmKnown != 0, flags&vmParallel != 0, flags&vmHasLast != 0
	d.tok(',')
	v.Admin = d.time()
	d.tok(',')
	v.Last = d.time()
	d.tok(',')
	v.Seq = d.uint()
	d.tok(',')
	v.StaleRuns = d.int()
	d.tok(',')
	v.Observed = d.int()
	d.win = d.win[:0]
	for d.more(']') {
		d.win = append(d.win, d.time())
	}
	k := len(d.win) / 2
	switch {
	case d.err != nil:
	case len(d.win)%2 != 0:
		d.fail("odd history length: lat and slice windows must match")
	case k > 0:
		v.Lat, v.Slice = d.times.keep(d.win[:k]), d.times.keep(d.win[k:])
	}
}

// timeArena hands out capped copies of history windows from shared
// chunks, so a snapshot's many small windows cost a few allocations.
type timeArena []sim.Time

// keep copies src into the current chunk and returns the copy, capped
// so that an append to it cannot spill into a neighbour.
func (a *timeArena) keep(src []sim.Time) []sim.Time {
	if len(*a)+len(src) > cap(*a) {
		*a = make([]sim.Time, 0, max(timeChunk, len(src)))
	}
	n := len(*a)
	*a = append(*a, src...)
	return (*a)[n:len(*a):len(*a)]
}

// Snapshot captures the fleet's control state. Call it at a Step
// barrier (or after Stop+Drain): in-flight work is not represented, by
// design — a decision that has not landed was never committed.
func (f *Fleet) Snapshot() *FleetSnapshot {
	ids := f.Nodes()
	s := &FleetSnapshot{
		Version:   SnapshotVersion,
		Config:    f.cfg,
		Periods:   f.Periods(),
		Decisions: f.Decisions(),
		Overflow:  f.Overflow(),
		Nodes:     make([]NodeSnapshot, 0, len(ids)),
	}
	var img nodeImager
	for _, id := range ids {
		sh := f.shardOf(id)
		sh.mu.Lock()
		fn := sh.nodes[id]
		sh.mu.Unlock()
		if fn == nil {
			continue
		}
		fn.mu.Lock()
		s.Nodes = append(s.Nodes, img.node(id, fn.loop))
		fn.mu.Unlock()
	}
	return s
}

// nodeImager images node loops for Snapshot, reusing its scratch across
// nodes and carving history windows out of shared chunks.
type nodeImager struct {
	ids   []int
	win   []sim.Time
	times timeArena
}

// node images one node's loop (caller holds the node lock).
func (m *nodeImager) node(id int, l *nodeLoop) NodeSnapshot {
	ns := NodeSnapshot{
		Node:        id,
		Periods:     l.periods,
		ConsecDrops: l.consecDrops,
		Stats:       l.stats,
	}
	ids := append(m.ids[:0], l.ctl.TrackedVMs()...)
	for _, r := range l.order {
		ids = append(ids, r.id)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	m.ids = ids
	ns.VMs = make([]VMSnapshot, len(ids))
	for i, vid := range ids {
		vs := &ns.VMs[i]
		vs.ID = vid
		if r, ok := l.vms[vid]; ok {
			vs.Known, vs.Parallel, vs.Admin = r.known, r.parallel, r.admin
			vs.HasLast, vs.Last = r.hasLast, r.last
			vs.Seq, vs.StaleRuns = r.seq, r.staleRuns
		}
		var ok bool
		if m.win, vs.Observed, ok = l.ctl.AppendVM(m.win[:0], vid); ok {
			w := len(m.win) / 2
			vs.Lat, vs.Slice = m.times.keep(m.win[:w]), m.times.keep(m.win[w:])
		}
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
