package daemon

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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
	bad := bytes.Replace(enc, []byte(`"version":2`), []byte(`"version":3`), 1)
	if !bytes.Contains(enc, []byte(`"version":2`)) {
		t.Fatal("test assumes version field renders as \"version\":2")
	}
	if _, err := DecodeSnapshot(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("DecodeSnapshot(version 3) = %v, want version-mismatch error", err)
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
	if _, err := s.Encode(); err == nil {
		t.Error("Encode wrote a version-99 snapshot in the current wire format")
	}
}

// TestSnapshotDecodeReportsForeignVersion pins that DecodeSnapshot's
// single parse still names a foreign schema version as such: the last
// version-1 golden, a well-formed version-1 document and one whose
// fields do not fit this schema all fail with the version error, not a
// field error, while a current-version document with a mistyped field
// is a parse error.
func TestSnapshotDecodeReportsForeignVersion(t *testing.T) {
	const want = "daemon: snapshot version 1, want 2"
	v1, err := os.ReadFile(filepath.Join("testdata", "fleet_snapshot_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	for name, doc := range map[string]string{
		"v1 golden":   string(v1),
		"well-formed": `{"version": 1, "periods": 3, "decisions": 5, "nodes": []}`,
		"mistyped":    `{"version": 1, "periods": "three", "nodes": {"0": {"vms": 4}}}`,
	} {
		if _, err := DecodeSnapshot([]byte(doc)); err == nil || err.Error() != want {
			t.Errorf("%s version-1 document: err = %v, want %q", name, err, want)
		}
	}
	_, err = DecodeSnapshot([]byte(`{"version": 2, "periods": "three", "nodes": []}`))
	if err == nil || strings.Contains(err.Error(), "version") {
		t.Errorf("mistyped version-2 document: err = %v, want a parse error", err)
	}
}

// TestSnapshotDecodeTruncated cuts the golden at every byte offset:
// each cut must fail cleanly, never panic or decode. Only the trailing
// newline is optional — it is whitespace after a complete document.
func TestSnapshotDecodeTruncated(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "fleet_snapshot.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	doc := bytes.TrimSuffix(golden, []byte("\n"))
	for n := range len(doc) {
		if s, err := DecodeSnapshot(doc[:n]); err == nil {
			t.Fatalf("prefix of %d bytes decoded to %+v", n, s)
		}
	}
	whole, err := DecodeSnapshot(golden)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := DecodeSnapshot(doc)
	if err != nil {
		t.Fatalf("golden without its trailing newline: %v", err)
	}
	if !reflect.DeepEqual(whole, bare) {
		t.Error("the trailing newline changed the decoded snapshot")
	}
}

// TestSnapshotDecodeStrict pins the decoder's rejections, each a small
// edit of the golden.
func TestSnapshotDecodeStrict(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "fleet_snapshot.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	edit := func(old, new string) []byte {
		if !bytes.Contains(golden, []byte(old)) {
			t.Fatalf("golden lacks %q", old)
		}
		return bytes.Replace(golden, []byte(old), []byte(new), 1)
	}
	for name, doc := range map[string][]byte{
		"unknown key":           edit(`"overflow":0,`, `"overflow":0,"extra":1,`),
		"missing key":           edit(`"overflow":0,`, ``),
		"misplaced key":         edit(`"periods":6,"decisions":10`, `"decisions":10,"periods":6`),
		"trailing data":         append(slices.Clone(golden), `{}`...),
		"second document":       append(slices.Clone(golden), golden...),
		"sign on unsigned":      edit(`"periods":6`, `"periods":-6`),
		"sign on seq":           edit(`[1,7,0,24000000,5,`, `[1,7,0,24000000,-5,`),
		"fraction":              edit(`"decisions":10`, `"decisions":10.0`),
		"exponent":              edit(`"decisions":10`, `"decisions":1e1`),
		"leading zero":          edit(`"decisions":10`, `"decisions":010`),
		"string time":           edit(`"default":30000000`, `"default":"30ms"`),
		"uint64 overflow":       edit(`"decisions":10`, `"decisions":18446744073709551616`),
		"int64 overflow":        edit(`"default":30000000`, `"default":9223372036854775808`),
		"unknown flag bits":     edit(`[1,7,`, `[1,15,`),
		"odd history":           edit(`,24000000,24000000,24000000]`, `,24000000,24000000]`),
		"short VM":              edit(`[4,7,0,24000000,4,1,4,1000000,1000000,1000000,24000000,24000000,24000000]`, `[4,7,0]`),
		"escaped key":           edit(`"version"`, `"\u0076ersion"`),
		"unclosed nodes":        bytes.TrimSuffix(golden, []byte("]}\n")),
		"empty":                 nil,
		"nodes object not list": edit(`"nodes":[`, `"nodes":{`),
	} {
		if s, err := DecodeSnapshot(doc); err == nil {
			t.Errorf("%s: decoded to %+v, want an error", name, s)
		}
	}
	// Extremes that fit their fields decode, and whitespace between
	// tokens is allowed.
	for name, doc := range map[string][]byte{
		"max uint64": edit(`"decisions":10`, `"decisions":18446744073709551615`),
		"min int64":  edit(`"default":30000000`, `"default":-9223372036854775808`),
		"whitespace": edit(`"periods":6,"decisions":10`, "\"periods\" :\t6 ,\r\n \"decisions\": 10"),
	} {
		if _, err := DecodeSnapshot(doc); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// FuzzDecodeSnapshot pins the decoder on arbitrary input: it never
// panics, and whatever it accepts re-encodes to bytes that decode to
// an equal snapshot and re-encode to themselves.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, name := range []string{"fleet_snapshot.golden.json", "fleet_snapshot_v1.json"} {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"version":2,"config":{"default":0,"minThreshold":0,"alpha":0,"beta":0,"window":0},"periods":0,"decisions":0,"overflow":0,"nodes":[]}`))
	f.Add([]byte(`{"version":2,"config":{"default":-1,"minThreshold":0,"alpha":0,"beta":0,"window":-3},"periods":18446744073709551615,"decisions":0,"overflow":0,"nodes":[{"node":-4,"periods":0,"consecDrops":-1,"stats":{"retries":0,"droppedPeriods":0,"staleSamples":0,"degraded":0},"vms":[[-9223372036854775808,0,0,0,0,0,0],[0,0,0,0,0,0,0,1,2]]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		enc, err := s.Encode()
		if err != nil {
			t.Fatalf("accepted snapshot does not encode: %v", err)
		}
		s2, err := DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("round trip changed the snapshot:\n%+v\n%+v", s, s2)
		}
		enc2, err := s2.Encode()
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not canonical (err %v):\n%s\n%s", err, enc, enc2)
		}
	})
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

// codecRoundTrip is the codec's unit of work: image the fleet, encode
// it, decode the bytes.
func codecRoundTrip(tb testing.TB, f *Fleet) int {
	enc, err := f.Snapshot().Encode()
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := DecodeSnapshot(enc); err != nil {
		tb.Fatal(err)
	}
	return len(enc)
}

// BenchmarkSnapshotCodec measures the snapshot codec alone on a warm
// 4096-node × 4-VM canned fleet: Snapshot, Encode and DecodeSnapshot
// per op, the part of a kill-restore that scales with the fleet.
func BenchmarkSnapshotCodec(b *testing.B) {
	f := cannedFleet(b, 4096, 4)
	b.ReportAllocs()
	var size int
	for b.Loop() {
		size = codecRoundTrip(b, f)
	}
	b.ReportMetric(float64(size)/1e6, "MB/snapshot")
}

// TestSnapshotCodecAllocs pins the codec's allocations per node over
// Snapshot, Encode and DecodeSnapshot of a 4096-node × 4-VM fleet.
func TestSnapshotCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const (
		nodes, vms = 4096, 4
		max        = 4.0
	)
	f := cannedFleet(t, nodes, vms)
	allocs := testing.AllocsPerRun(3, func() { codecRoundTrip(t, f) }) / nodes
	t.Logf("%.2f allocs per node", allocs)
	if allocs > max {
		t.Fatalf("snapshot codec makes %.2f allocs per node, want <= %v", allocs, max)
	}
}
