package proptest

import (
	"testing"

	"atcsched/internal/cluster"
)

// telemetryShardCounts spans the acceptance set: one shard (no
// concurrency) and real fan-out (2, 4, 8).
var telemetryShardCounts = []int{1, 2, 4, 8}

// telemetryFingerprint runs spec with Telemetry forced to want and
// returns the determinism fingerprint.
func telemetryFingerprint(t *testing.T, spec Spec, approach cluster.Approach, shards int, want bool) string {
	t.Helper()
	spec.Shards = shards
	spec.Telemetry = want
	r, err := runOne(spec, approach, true)
	if err != nil {
		t.Fatalf("shards=%d telemetry=%v: build: %v", shards, want, err)
	}
	if !r.completed {
		t.Fatalf("shards=%d telemetry=%v: measured runs incomplete (rounds %v)", shards, want, r.runRounds)
	}
	return r.fingerprint
}

// TestTelemetryEquivalencePinned proves the telemetry plane is invisible
// to the simulation: the pinned shard-equivalence scenario — faults,
// live policy switch and co-tenants included — fingerprints
// byte-identically with telemetry attached and detached at every shard
// count in the acceptance set.
func TestTelemetryEquivalencePinned(t *testing.T) {
	spec := shardEquivSpec()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, sc := range telemetryShardCounts {
		off := telemetryFingerprint(t, spec, cluster.ATC, sc, false)
		on := telemetryFingerprint(t, spec, cluster.ATC, sc, true)
		if on != off {
			t.Errorf("shards=%d: telemetry-on fingerprint diverged from telemetry-off at byte %d of %d/%d",
				sc, diffAt(off, on), len(off), len(on))
		}
	}
}

// TestTelemetryEquivalenceGenerated extends the pinned check to
// generated scenarios: several seeds, each run on-vs-off across the
// shard set under its seed-derived primary approach.
func TestTelemetryEquivalenceGenerated(t *testing.T) {
	approaches := cluster.ExtendedApproaches()
	counts := telemetryShardCounts
	if testing.Short() {
		counts = []int{1, 4}
	}
	for seed := uint64(1); seed <= 3; seed++ {
		spec := Generate(seed, Bounded())
		approach := Primary(spec, approaches)
		for _, sc := range counts {
			off := telemetryFingerprint(t, spec, approach, sc, false)
			on := telemetryFingerprint(t, spec, approach, sc, true)
			if on != off {
				t.Errorf("seed=%d shards=%d (%s): telemetry-on fingerprint diverged at byte %d of %d/%d",
					seed, sc, approach, diffAt(off, on), len(off), len(on))
			}
		}
	}
}
