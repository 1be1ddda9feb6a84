package main

import (
	"math/rand/v2"

	"atcsched/internal/daemon"
	"atcsched/internal/sim"
)

// The fleet-control generator: every node hosts three parallel VMs and
// one non-parallel VM with an administrator slice. Each parallel VM's
// spin latency follows seeded segments that rise, fall, hold or drop to
// zero, so the controller's slices shrink to the 0.3 ms clamp and relax
// back. A quarter of the nodes are flaky: about one in eight of their
// readings repeats the previous sequence number (a stale sample, ~3% of
// all readings), and now and then such a node goes dark for 1–4
// periods. The other nodes are clean and feed the replay check.
const (
	vmsPerNode = 4
	flakyShare = 0.25
	staleProb  = 0.12
	darkProb   = 0.01
	maxLatency = 3 * sim.Millisecond
)

type segKind uint8

const (
	segRise segKind = iota
	segFall
	segHold
	segZero
	nSegKinds
)

// vmTrace is one VM's latency generator state.
type vmTrace struct {
	kind  segKind
	left  int      // periods left in the segment
	step  sim.Time // per-period change while rising or falling
	level sim.Time
	seq   uint64
	last  sim.Time // the last reading, repeated by a stale sample
}

// fleetGen produces each period's node batches from one seeded stream;
// next must be called once per period, in order.
type fleetGen struct {
	rng      *rand.Rand
	vms      []vmTrace
	admin    []sim.Time
	flaky    []bool
	darkLeft []int
	k        int
}

func newFleetGen(seed uint64, nodes int) *fleetGen {
	g := &fleetGen{
		rng:      rand.New(rand.NewPCG(seed, 0xf1ee7c0de)),
		vms:      make([]vmTrace, nodes*vmsPerNode),
		admin:    make([]sim.Time, nodes),
		flaky:    make([]bool, nodes),
		darkLeft: make([]int, nodes),
	}
	for n := range nodes {
		g.flaky[n] = g.rng.Float64() < flakyShare
		g.admin[n] = sim.Time(5*(1+g.rng.IntN(3))) * sim.Millisecond
		for j := range vmsPerNode {
			g.newSegment(&g.vms[n*vmsPerNode+j])
		}
	}
	return g
}

func (g *fleetGen) nodes() int { return len(g.flaky) }

func (g *fleetGen) newSegment(v *vmTrace) {
	v.kind = segKind(g.rng.IntN(int(nSegKinds)))
	v.left = 3 + g.rng.IntN(18)
	v.step = sim.Time(20+g.rng.IntN(180)) * sim.Microsecond
}

// next returns the coming period's batches in node order; a dark node
// contributes none.
func (g *fleetGen) next() []daemon.NodeBatch {
	slab := make([]daemon.VMSample, 0, len(g.vms))
	out := make([]daemon.NodeBatch, 0, g.nodes())
	for n := range g.nodes() {
		dark := g.darkLeft[n] > 0
		if dark {
			g.darkLeft[n]--
		} else if g.flaky[n] && g.k >= 2 && g.rng.Float64() < darkProb {
			g.darkLeft[n] = g.rng.IntN(4)
			dark = true
		}
		start := len(slab)
		for j := range vmsPerNode {
			s := g.sample(n, j)
			if !dark {
				slab = append(slab, s)
			}
		}
		if !dark {
			out = append(out, daemon.NodeBatch{Node: n, Samples: slab[start:len(slab):len(slab)]})
		}
	}
	g.k++
	return out
}

// sample takes VM j of node n's reading for this period. The monitor
// keeps reading while its node is dark, so the trace advances anyway.
func (g *fleetGen) sample(n, j int) daemon.VMSample {
	v := &g.vms[n*vmsPerNode+j]
	s := daemon.VMSample{ID: n*vmsPerNode + j, Parallel: j < vmsPerNode-1}
	if !s.Parallel {
		s.AdminSlice = g.admin[n]
	}
	if g.flaky[n] && v.seq > 0 && g.rng.Float64() < staleProb {
		s.AvgSpinLatency, s.Seq = v.last, v.seq
		return s
	}
	var lat sim.Time
	if s.Parallel {
		switch v.kind {
		case segRise:
			v.level = min(v.level+v.step, maxLatency)
		case segFall:
			v.level = max(v.level-v.step, 0)
		case segZero:
			v.level = 0
		}
		lat = v.level * sim.Time(95+g.rng.IntN(11)) / 100
		if v.left--; v.left == 0 {
			g.newSegment(v)
		}
	} else {
		lat = sim.Time(g.rng.IntN(50)) * sim.Microsecond
	}
	v.seq++
	v.last = lat
	s.AvgSpinLatency, s.Seq = lat, v.seq
	return s
}

// cleanNodes picks up to n nodes that are never stale or dark, seeded.
func (g *fleetGen) cleanNodes(seed uint64, n int) []int {
	var clean []int
	for id, flaky := range g.flaky {
		if !flaky {
			clean = append(clean, id)
		}
	}
	r := rand.New(rand.NewPCG(seed, 0xc1ea2))
	r.Shuffle(len(clean), func(i, j int) { clean[i], clean[j] = clean[j], clean[i] })
	return clean[:min(n, len(clean))]
}
