package proptest

import (
	"testing"

	"atcsched/internal/cluster"
	"atcsched/internal/fault"
)

// dfrsKinds are the fractional-share family added by the DFRS PR; the
// battery below pins both through every equivalence axis.
var dfrsKinds = []cluster.Approach{cluster.DFRS, cluster.ATCDFRS}

// dfrsEquivSpec is the pinned fractional-share scenario: four nodes,
// parallel clusters striped across them (so the hybrid's ATC plane has
// spinning tenants), demand-diverse non-parallel jobs (the fraction
// pool), one node heterogeneous on the sibling fractional kind, a live
// swap to the sibling kind mid-run, and faults touching the compute,
// network and monitor planes.
func dfrsEquivSpec(kind cluster.Approach) Spec {
	other := string(cluster.ATCDFRS)
	if kind == cluster.ATCDFRS {
		other = string(cluster.DFRS)
	}
	return Spec{
		Seed:  11,
		Nodes: 4,
		PCPUs: 2,
		Clusters: []ClusterSpec{
			{Kernel: "lu", Class: "A", VMs: 4, VCPUs: 2, Rounds: 2, Iterations: 3},
			{Kernel: "ep", Class: "A", VMs: 2, VCPUs: 2, Rounds: 2, Iterations: 2},
		},
		Jobs: []JobSpec{
			{Type: "web", Node: 0},
			{Type: "disk", Node: 2},
			{Type: "ping", Node: 3},
		},
		NodeKinds:  []string{"", other, "", ""},
		SwapKind:   other,
		SwapAtSec:  0.25,
		HorizonSec: 900,
		Faults: &fault.Spec{Windows: []fault.Window{
			{Kind: fault.PCPUSlow, StartSec: 0.02, DurSec: 0.2, Nodes: []int{2}, Severity: 3},
			{Kind: fault.PacketLoss, StartSec: 0.05, DurSec: 0.3, Severity: 0.15},
			{Kind: fault.MonitorDrop, StartSec: 0.01, DurSec: 0.3, Severity: 0.4},
		}},
	}
}

// TestDFRSDifferentialPinned runs the full property battery — audit
// invariants, liveness, analytic packet/round conservation, clock
// monotonicity, swap application, differential same-work vs the CR
// baseline, and byte-identical determinism replay — for both fractional
// kinds on the pinned scenario.
func TestDFRSDifferentialPinned(t *testing.T) {
	for _, kind := range dfrsKinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			spec := dfrsEquivSpec(kind)
			if err := spec.Validate(); err != nil {
				t.Fatal(err)
			}
			// Seed 11 with two approaches makes the traced primary the
			// fractional kind itself, not CR.
			if p := Primary(spec, []cluster.Approach{cluster.CR, kind}); p != kind {
				t.Fatalf("primary = %s, want %s (replay must trace the new kind)", p, kind)
			}
			if err := CheckSpec(spec, []cluster.Approach{cluster.CR, kind}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestDFRSShardTelemetryEquivalence pins, for both fractional kinds,
// that the determinism fingerprint is byte-identical across shard
// counts {1,2,4,8}, with the telemetry plane on vs off at every shard
// count, and on a replay that leaves the shard count at zero (one
// shard).
func TestDFRSShardTelemetryEquivalence(t *testing.T) {
	counts := []int{1, 2, 4, 8}
	for _, kind := range dfrsKinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			spec := dfrsEquivSpec(kind)
			fps := make(map[int]string, len(counts))
			for _, sc := range counts {
				bare := spec
				bare.Shards = sc
				bare.Telemetry = false
				r, err := runOne(bare, kind, true)
				if err != nil {
					t.Fatalf("shards=%d: build: %v", sc, err)
				}
				if err := r.check(bare); err != nil {
					t.Fatalf("shards=%d: %v", sc, err)
				}
				fps[sc] = r.fingerprint

				tele := bare
				tele.Telemetry = true
				rt, err := runOne(tele, kind, true)
				if err != nil {
					t.Fatalf("shards=%d telemetry: build: %v", sc, err)
				}
				if rt.fingerprint != r.fingerprint {
					t.Errorf("shards=%d: telemetry-on fingerprint diverged at byte %d of %d/%d",
						sc, diffAt(r.fingerprint, rt.fingerprint), len(r.fingerprint), len(rt.fingerprint))
				}
			}
			for _, sc := range counts[1:] {
				if fps[sc] != fps[1] {
					t.Errorf("shards=%d: fingerprint diverged from shards=1 at byte %d of %d/%d",
						sc, diffAt(fps[1], fps[sc]), len(fps[1]), len(fps[sc]))
				}
			}
			// Replay with the shard count unset: zero means one shard.
			replay := spec
			replay.Shards = 0
			r2, err := runOne(replay, kind, true)
			if err != nil {
				t.Fatal(err)
			}
			if r2.fingerprint != fps[1] {
				t.Errorf("shards=0 replay diverged from shards=1 at byte %d", diffAt(fps[1], r2.fingerprint))
			}
		})
	}
}

// TestGenerateDrawsFractionalKinds pins that the generator's kind pool
// actually contains the fractional family — nodeKinds and swapKind draws
// come from registry.Kinds(), so DFRS/ATCDFRS must flow into generated
// scenarios without proptest-side lists to maintain.
func TestGenerateDrawsFractionalKinds(t *testing.T) {
	seen := map[string]bool{}
	for seed := uint64(1); seed <= 400 && (!seen["DFRS"] || !seen["ATCDFRS"]); seed++ {
		spec := Generate(seed, Bounded())
		seen[spec.SwapKind] = true
		for _, k := range spec.NodeKinds {
			seen[k] = true
		}
	}
	for _, k := range []string{"DFRS", "ATCDFRS"} {
		if !seen[k] {
			t.Errorf("400 generated specs never drew kind %s", k)
		}
	}
}
