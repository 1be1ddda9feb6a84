package proptest_test

import (
	"slices"
	"testing"

	"atcsched/internal/cluster"
	"atcsched/internal/proptest"
)

// fuzzApproaches keeps FuzzWorld iterations cheap: the baseline, the
// paper's scheduler, and the hybrid extension cover the three distinct
// scheduler cores.
var fuzzApproaches = []cluster.Approach{cluster.CR, cluster.ATC, cluster.HY}

// FuzzWorld derives tiny generator parameters from fuzz bytes and runs
// the full property battery (audit, liveness, conservation, determinism
// replay, differential agreement) on the resulting world. Run deep with
//
//	go test ./internal/proptest -fuzz=FuzzWorld -fuzztime=30s
func FuzzWorld(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(42), uint8(1), uint8(3), uint8(1), uint8(2), uint8(5))
	f.Add(uint64(7), uint8(0), uint8(1), uint8(7), uint8(1), uint8(255))
	// A generated fault window scoped to node 1 of a world shrunk to
	// one node.
	f.Add(uint64(24), uint8(0x00), uint8(0x05), uint8(0x9a), uint8('+'), uint8('8'))
	f.Fuzz(func(t *testing.T, seed uint64, nodes, pcpus, kernel, shape, opts uint8) {
		spec := proptest.Generate(seed, proptest.Bounded())
		// Rewrite the generated spec's shape from the fuzz bytes, clamped
		// to a tiny world so each iteration stays cheap, and keep a single
		// cluster so the fuzzer owns every knob that matters.
		spec.Nodes = 1 + int(nodes)%2
		spec.PCPUs = 1 + int(pcpus)%3
		kernels := []string{"lu", "is", "sp", "bt", "mg", "cg", "ep", "ft"}
		spec.Clusters = spec.Clusters[:1]
		spec.Clusters[0].Kernel = kernels[int(kernel)%len(kernels)]
		spec.Clusters[0].Class = "A"
		spec.Clusters[0].VMs = 1 + int(shape)%2
		spec.Clusters[0].VCPUs = 1 + int(shape>>2)%3
		spec.Clusters[0].Rounds = 1
		spec.Clusters[0].Iterations = 1 + int(shape>>4)%3
		spec.FixedSliceMs = []float64{0, 0.3, 5, 30}[int(opts)%4]
		spec.DisableBoost = opts&16 != 0
		spec.DisableSteal = opts&32 != 0
		if len(spec.Jobs) > 1 {
			spec.Jobs = spec.Jobs[:1]
		}
		for i := range spec.Jobs {
			spec.Jobs[i].Node %= spec.Nodes
		}
		// The rewritten world may have fewer nodes than the generated
		// per-node policy pins.
		if len(spec.NodeKinds) > spec.Nodes {
			spec.NodeKinds = spec.NodeKinds[:spec.Nodes]
		}
		// Likewise the generated fault windows' node scopes: drop the
		// nodes that are gone, and a window none of whose nodes remain
		// (an empty scope would widen it to every node).
		if spec.Faults != nil {
			windows := spec.Faults.Windows[:0]
			for _, w := range spec.Faults.Windows {
				scoped := len(w.Nodes) > 0
				w.Nodes = slices.DeleteFunc(w.Nodes, func(n int) bool { return n >= spec.Nodes })
				if !scoped || len(w.Nodes) > 0 {
					windows = append(windows, w)
				}
			}
			spec.Faults.Windows = windows
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("fuzz-derived spec invalid: %v", err)
		}
		if err := proptest.CheckSpec(spec, fuzzApproaches); err != nil {
			t.Fatalf("property violated on fuzz-derived spec %+v: %v", spec, err)
		}
	})
}
