// Package netmodel models the physical interconnect of the testbed: a
// switched 1 Gbps Ethernet with full bisection bandwidth, one NIC per
// node. Transmissions serialize on the sender's NIC (and the receiver's),
// then traverse the wire with a fixed propagation + switching latency.
// Node-local deliveries bypass the wire; the dom0 software path for those
// lives in the vmm package.
//
// The fabric is also the sharding boundary of the simulator: nodes only
// influence each other through wire transmissions, and every wire
// transmission takes at least WireLatency to arrive. The fabric
// therefore hands cross-node deliveries to a PostFunc — in practice
// sim.ShardGroup.Post — which sequences them deterministically at the
// lookahead barrier instead of scheduling straight into the
// destination's engine.
package netmodel

import (
	"fmt"

	"atcsched/internal/sim"
)

// Config parameterizes a Fabric.
type Config struct {
	// BytesPerSec is the per-NIC line rate (default 1 Gbps = 125 MB/s).
	BytesPerSec float64
	// WireLatency is the one-way propagation plus switching latency.
	WireLatency sim.Time
	// LocalLatency is the node-local loopback latency (shared memory copy).
	LocalLatency sim.Time
	// LocalBytesPerSec, when nonzero, serializes node-local deliveries
	// through a per-node loopback at this rate. Zero keeps the
	// historical behaviour — local sends pace only on LocalLatency (a
	// shared-memory copy, not the NIC) — but the bytes are still
	// tallied in LocalBytes so the bypass is visible, not silent.
	LocalBytesPerSec float64
	// RetransmitTimeout is the delay before a transmission discarded by
	// the loss hook is retried (default 1 ms — a transport-level RTO).
	RetransmitTimeout sim.Time
}

// DefaultConfig matches the paper's testbed network: 1 Gbps Ethernet.
func DefaultConfig() Config {
	return Config{
		BytesPerSec:  125e6,
		WireLatency:  50 * sim.Microsecond,
		LocalLatency: 5 * sim.Microsecond,
	}
}

// PostFunc delivers a cross-node event: run fn at absolute time at on
// dst's engine, attributed to src. The fabric guarantees at is at least
// one WireLatency after src's current time, which is exactly the
// lookahead contract sim.ShardGroup.Post requires.
type PostFunc func(src, dst int, at sim.Time, fn func())

// Fabric is the cluster interconnect.
//
// State is partitioned by node so that the fabric needs no locks:
// tx/lo and the *By counters indexed by src are only touched from the
// source node's shard, rx and deliveredBy (indexed by dst) only from the
// destination's. The summing getters are meant for barrier time (or any
// single-threaded moment); the per-element writes themselves never race.
type Fabric struct {
	engines []*sim.Engine // per-node engine (shared by a shard's nodes)
	post    PostFunc
	cfg     Config
	tx      []sim.Time // per-node NIC transmit-free time (src shard)
	rx      []sim.Time // per-node NIC receive-free time (dst shard)
	lo      []sim.Time // per-node loopback-free time (LocalBytesPerSec)

	sentBy      []uint64 // Send calls, by src
	deliveredBy []uint64 // completed deliveries, by dst
	wireBy      []uint64 // bytes that crossed the wire, by src
	localBy     []uint64 // bytes delivered node-locally, by src
	lostBy      []uint64 // transmissions discarded by the loss hook, by src
	retxBy      []uint64 // retransmissions after losses, by src

	// lossFn, when set, is consulted once per wire transmission attempt;
	// returning true discards the attempt (it is retried after
	// RetransmitTimeout). bwFn, when set, scales a node's NIC line rate
	// by the returned fraction in (0,1]; values outside that range mean
	// full rate. Both must be deterministic in their arguments plus any
	// explicitly seeded state (see internal/fault), and they are called
	// concurrently from different shards, so any such state must be
	// partitioned by the src/node argument.
	lossFn func(src, dst int, now sim.Time) bool
	bwFn   func(node int, now sim.Time) float64
}

// New creates a fabric over per-node engines (nodes sharing a shard
// share its engine) whose cross-node deliveries are sequenced through
// post. WireLatency must be positive: it is the conservative lookahead
// that makes the sharding sound.
func New(engines []*sim.Engine, cfg Config, post PostFunc) *Fabric {
	if len(engines) == 0 {
		panic("netmodel: need at least one node")
	}
	if post == nil {
		panic("netmodel: fabric needs a post function")
	}
	if cfg.WireLatency <= 0 {
		panic(fmt.Sprintf("netmodel: fabric needs a positive wire latency, got %v", cfg.WireLatency))
	}
	if cfg.BytesPerSec <= 0 {
		panic(fmt.Sprintf("netmodel: invalid bandwidth %v", cfg.BytesPerSec))
	}
	nodes := len(engines)
	return &Fabric{
		engines:     append([]*sim.Engine(nil), engines...),
		post:        post,
		cfg:         cfg,
		tx:          make([]sim.Time, nodes),
		rx:          make([]sim.Time, nodes),
		lo:          make([]sim.Time, nodes),
		sentBy:      make([]uint64, nodes),
		deliveredBy: make([]uint64, nodes),
		wireBy:      make([]uint64, nodes),
		localBy:     make([]uint64, nodes),
		lostBy:      make([]uint64, nodes),
		retxBy:      make([]uint64, nodes),
	}
}

// SetLoss installs (or, with nil, removes) the packet-loss hook.
func (f *Fabric) SetLoss(fn func(src, dst int, now sim.Time) bool) { f.lossFn = fn }

// SetBandwidth installs (or, with nil, removes) the line-rate
// degradation hook.
func (f *Fabric) SetBandwidth(fn func(node int, now sim.Time) float64) { f.bwFn = fn }

// Nodes returns the number of nodes the fabric connects.
func (f *Fabric) Nodes() int { return len(f.tx) }

// Lookahead returns the minimum cross-node delivery delay — the
// conservative synchronization window a sharded simulation may use.
func (f *Fabric) Lookahead() sim.Time { return f.cfg.WireLatency }

func sum(a []uint64) uint64 {
	var n uint64
	for _, v := range a {
		n += v
	}
	return n
}

// PacketsSent returns the number of Send calls so far.
func (f *Fabric) PacketsSent() uint64 { return sum(f.sentBy) }

// PacketsDelivered returns the number of completed deliveries.
func (f *Fabric) PacketsDelivered() uint64 { return sum(f.deliveredBy) }

// InFlight returns packets sent but not yet delivered (including
// cross-shard deliveries still queued at the barrier).
func (f *Fabric) InFlight() uint64 { return sum(f.sentBy) - sum(f.deliveredBy) }

// WireBytes returns the bytes that crossed the physical wire (node-local
// traffic excluded).
func (f *Fabric) WireBytes() uint64 { return sum(f.wireBy) }

// LocalBytes returns the bytes delivered node-locally over the loopback
// path (never on the wire).
func (f *Fabric) LocalBytes() uint64 { return sum(f.localBy) }

// PacketsLost returns the transmissions discarded by the loss hook.
func (f *Fabric) PacketsLost() uint64 { return sum(f.lostBy) }

// Retransmits returns the retransmissions performed after losses.
func (f *Fabric) Retransmits() uint64 { return sum(f.retxBy) }

// Send transmits size bytes from node src to node dst, invoking deliver
// when the last byte arrives at dst's NIC. Node-local sends take the
// loopback path: LocalLatency, plus loopback serialization when
// LocalBytesPerSec is configured. Must be called from src's engine.
func (f *Fabric) Send(src, dst, size int, deliver func()) {
	if src < 0 || src >= len(f.tx) || dst < 0 || dst >= len(f.tx) {
		panic(fmt.Sprintf("netmodel: node out of range src=%d dst=%d nodes=%d", src, dst, len(f.tx)))
	}
	if size < 0 {
		panic("netmodel: negative packet size")
	}
	f.sentBy[src]++
	wrapped := func() {
		f.deliveredBy[dst]++
		deliver()
	}
	now := f.engines[src].Now()
	if src == dst {
		f.localBy[src] += uint64(size)
		at := now + f.cfg.LocalLatency
		if f.cfg.LocalBytesPerSec > 0 {
			start := now
			if f.lo[src] > start {
				start = f.lo[src]
			}
			done := start + sim.Time(float64(size)/f.cfg.LocalBytesPerSec*float64(sim.Second))
			f.lo[src] = done
			at = done + f.cfg.LocalLatency
		}
		f.engines[src].At(at, wrapped)
		return
	}
	f.transmit(src, dst, size, wrapped)
}

// transmit books one wire attempt. A lost attempt is retried after
// RetransmitTimeout — link/transport recovery below the guest: the
// guest's send completes once, delivery just arrives late, so the
// packet-conservation invariant holds under loss. Everything up to the
// wire (tx booking, loss, retransmit) happens on src's engine; only the
// arrival crosses to dst.
func (f *Fabric) transmit(src, dst, size int, wrapped func()) {
	now := f.engines[src].Now()
	f.wireBy[src] += uint64(size)
	start := now
	if f.tx[src] > start {
		start = f.tx[src]
	}
	txDone := start + f.serialTime(size, src, now)
	f.tx[src] = txDone
	if f.lossFn != nil && f.lossFn(src, dst, now) {
		f.lostBy[src]++
		rto := f.cfg.RetransmitTimeout
		if rto <= 0 {
			rto = sim.Millisecond
		}
		f.engines[src].At(txDone+rto, func() {
			f.retxBy[src]++
			f.transmit(src, dst, size, wrapped)
		})
		return
	}
	// The receiver-side NIC booking must read dst's state at arrival
	// time on dst's own shard. arrive >= now + WireLatency, so the post
	// always clears the lookahead window by construction.
	arrive := txDone + f.cfg.WireLatency
	f.post(src, dst, arrive, func() {
		f.arriveAt(dst, size, wrapped)
	})
}

// arriveAt books the receiver-side NIC occupancy for a packet whose last
// byte reaches dst at the current time on dst's engine, then schedules
// the delivery. Runs on dst's shard. An idle receiver sees the
// pipelined arrival (last byte lands WireLatency after it left the
// sender), but N senders converging on one NIC drain at line rate, not
// N× it.
func (f *Fabric) arriveAt(dst, size int, wrapped func()) {
	now := f.engines[dst].Now()
	rxDone := now
	if t := f.rx[dst] + f.serialTime(size, dst, now); t > rxDone {
		rxDone = t
	}
	f.rx[dst] = rxDone
	f.engines[dst].At(rxDone, wrapped)
}

// serialTime returns the serialization time of size bytes on node's
// NIC, honouring the bandwidth-degradation hook.
func (f *Fabric) serialTime(size, node int, now sim.Time) sim.Time {
	bw := f.cfg.BytesPerSec
	if f.bwFn != nil {
		if frac := f.bwFn(node, now); frac > 0 && frac < 1 {
			bw *= frac
		}
	}
	return sim.Time(float64(size) / bw * float64(sim.Second))
}
