package daemon

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"atcsched/internal/core"
	"atcsched/internal/sim"
)

// -update rewrites the golden files under testdata from the current code.
var update = flag.Bool("update", false, "rewrite golden files")

// goldenFleet builds a small fleet with fixed, fully-populated control
// state: two nodes, VMs with history, a blacked-out VM, admin slices,
// sequence numbers and fault counters.
func goldenFleet(t *testing.T) *Fleet {
	t.Helper()
	act := &MapActuator{}
	f := NewFleet(core.DefaultConfig(), nil, act, FleetOptions{Shards: 2})
	t.Cleanup(f.Close)
	step := func(node int, samples ...VMSample) {
		if err := f.Ingest(NodeBatch{Node: node, Samples: samples}); err != nil {
			t.Fatal(err)
		}
		f.Drain() // per-period barrier: the golden state must be deterministic
	}
	for seq := uint64(1); seq <= 4; seq++ {
		step(0,
			VMSample{ID: 1, AvgSpinLatency: ms(2), Parallel: true, Seq: seq},
			VMSample{ID: 2, AvgSpinLatency: ms(5), Parallel: true, Seq: seq},
			VMSample{ID: 3, AdminSlice: ms(6), Seq: seq})
		step(1, VMSample{ID: 4, AvgSpinLatency: ms(1), Parallel: true, Seq: seq})
	}
	// One stale repeat and one dropout for node 1's bookkeeping.
	step(1, VMSample{ID: 4, AvgSpinLatency: ms(1), Parallel: true, Seq: 4})
	step(0,
		VMSample{ID: 1, AvgSpinLatency: ms(2), Parallel: true, Seq: 5},
		VMSample{ID: 2, AvgSpinLatency: ms(5), Parallel: true, Seq: 5})
	f.Drain()
	f.periods.Store(6)
	return f
}

// TestSnapshotGolden pins the snapshot wire format byte-for-byte
// (regenerate with -update): the schema is a compatibility surface — a
// daemon must be restorable from a snapshot written by an older build
// of the same version.
func TestSnapshotGolden(t *testing.T) {
	enc, err := goldenFleet(t).Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "fleet_snapshot.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(enc, want) {
		t.Errorf("snapshot encoding changed; if intentional bump SnapshotVersion and rerun with -update\ngot:\n%s\nwant:\n%s", enc, want)
	}
}

// TestSnapshotRoundTrip pins encode→decode→restore→encode as the
// identity on control state.
func TestSnapshotRoundTrip(t *testing.T) {
	enc, err := goldenFleet(t).Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	f2 := NewFleet(core.DefaultConfig(), nil, &MapActuator{}, FleetOptions{Shards: 3})
	defer f2.Close()
	if err := f2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	enc2, err := f2.Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Errorf("restore is not the identity:\nfirst:\n%s\nsecond:\n%s", enc, enc2)
	}
}

// TestSnapshotVersionMismatch pins outright rejection of any other
// schema version — no guessing.
func TestSnapshotVersionMismatch(t *testing.T) {
	enc, err := goldenFleet(t).Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(enc, []byte(`"version": 1`), []byte(`"version": 2`), 1)
	if !bytes.Contains(enc, []byte(`"version": 1`)) {
		t.Fatal("test assumes version field renders as \"version\": 1")
	}
	if _, err := DecodeSnapshot(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("DecodeSnapshot(version 2) = %v, want version-mismatch error", err)
	}
	if _, err := DecodeSnapshot([]byte("{not json")); err == nil {
		t.Error("DecodeSnapshot accepted malformed JSON")
	}
	s := &FleetSnapshot{Version: 99, Config: core.DefaultConfig()}
	f := NewFleet(core.DefaultConfig(), nil, &MapActuator{}, FleetOptions{})
	defer f.Close()
	if err := f.Restore(s); err == nil {
		t.Error("Restore accepted a version-99 snapshot")
	}
}

// TestSnapshotDecodeReportsForeignVersion pins that DecodeSnapshot's
// single parse still names a foreign schema version as such: a
// well-formed version-2 document and one whose fields no longer fit
// this schema both fail with the version error, not a field type
// error, while a version-1 document with a mistyped field is a parse
// error.
func TestSnapshotDecodeReportsForeignVersion(t *testing.T) {
	const want = "daemon: snapshot version 2, want 1"
	for name, doc := range map[string]string{
		"well-formed": `{"version": 2, "periods": 3, "decisions": 5, "nodes": []}`,
		"mistyped":    `{"version": 2, "periods": "three", "nodes": {"0": {"vms": 4}}}`,
	} {
		if _, err := DecodeSnapshot([]byte(doc)); err == nil || err.Error() != want {
			t.Errorf("%s version-2 document: err = %v, want %q", name, err, want)
		}
	}
	_, err := DecodeSnapshot([]byte(`{"version": 1, "periods": "three", "nodes": []}`))
	if err == nil || strings.Contains(err.Error(), "version") {
		t.Errorf("mistyped version-1 document: err = %v, want a parse error", err)
	}
}

// TestSnapshotRestoreUnknownNode pins restore-with-unknown-node
// handling: entries outside the fleet's MaxNodes are skipped and
// counted, the rest restore fine — a shrunk fleet still comes back up.
func TestSnapshotRestoreUnknownNode(t *testing.T) {
	snap := goldenFleet(t).Snapshot() // nodes 0 and 1
	snap.Nodes = append(snap.Nodes, NodeSnapshot{Node: 99, Periods: 3})
	f := NewFleet(core.DefaultConfig(), nil, &MapActuator{}, FleetOptions{MaxNodes: 1})
	defer f.Close()
	if err := f.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := f.RestoredNodes(); got != 1 {
		t.Errorf("restored = %d, want 1 (node 0 only)", got)
	}
	if got := f.SkippedRestoreNodes(); got != 2 {
		t.Errorf("skipped = %d, want 2 (node 1 beyond MaxNodes, node 99 unknown)", got)
	}
	if got := f.Nodes(); len(got) != 1 || got[0] != 0 {
		t.Errorf("fleet nodes = %v, want [0]", got)
	}
}

// TestSnapshotConfigMismatch pins that a snapshot taken under a
// different controller config is refused (the history windows are
// config-shaped).
func TestSnapshotConfigMismatch(t *testing.T) {
	snap := goldenFleet(t).Snapshot()
	cfg := core.DefaultConfig()
	cfg.Default = 24 * sim.Millisecond
	f := NewFleet(cfg, nil, &MapActuator{}, FleetOptions{})
	defer f.Close()
	if err := f.Restore(snap); err == nil {
		t.Error("Restore accepted a snapshot with a different controller config")
	}
}
