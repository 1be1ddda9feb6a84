package experiment

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update rewrites the dfrs golden files from the current output.
var update = flag.Bool("update", false, "rewrite dfrs golden files")

// checkGolden compares got against testdata/name, rewriting under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/experiment -run TestDFRSGolden -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden (re-run with -update if the change is intended)\ngot:\n%s\nwant:\n%s",
			name, got, want)
	}
}

// TestDFRSGoldenTable pins the committed head-to-head table: the dfrs
// experiment at small scale, seed 1, is fully deterministic, so its
// rendered tables — including the shard-equivalence fingerprints — must
// reproduce byte-for-byte on every machine.
func TestDFRSGoldenTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full small-scale head-to-head matrix")
	}
	if raceEnabled {
		t.Skip("deterministic byte-compare; the multi-shard fingerprint runs crawl under the race detector")
	}
	e, err := ByID("dfrs")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e.Run(Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tab := range tables {
		b.WriteString(tab.String())
		b.WriteByte('\n')
	}
	checkGolden(t, "dfrs_small.golden.txt", []byte(b.String()))
}

// TestDFRSGoldenArtifacts pins the showcase's telemetry exports: the
// JSONL dump and the Perfetto timeline of the instrumented hybrid run,
// which must both stay parseable and byte-stable.
func TestDFRSGoldenArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the instrumented showcase")
	}
	if raceEnabled {
		t.Skip("deterministic byte-compare; race coverage comes from the proptest battery")
	}
	res, err := DFRSShowcase(Small, 1)
	if err != nil {
		t.Fatal(err)
	}

	var jl bytes.Buffer
	if err := res.WriteJSONL(&jl); err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(jl.String(), "\n")
	var meta map[string]any
	if err := json.Unmarshal([]byte(first), &meta); err != nil || meta["type"] != "meta" {
		t.Fatalf("jsonl does not start with a meta line: %q (%v)", first, err)
	}
	if !strings.Contains(jl.String(), "vm_fraction") {
		t.Error("jsonl dump carries no vm_fraction series — the fractional plane is dark")
	}
	checkGolden(t, "dfrs_showcase.jsonl", jl.Bytes())

	var tl bytes.Buffer
	if err := res.WriteTimeline(&tl); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(tl.Bytes(), &file); err != nil {
		t.Fatalf("timeline is not trace-event JSON: %v", err)
	}
	var redistribute, spin bool
	for _, ev := range file.TraceEvents {
		switch ev.Name {
		case "redistribute":
			redistribute = true
		case "spin":
			spin = true
		}
	}
	if !redistribute || !spin {
		t.Errorf("timeline lacks hybrid spans: redistribute=%v spin=%v", redistribute, spin)
	}
	checkGolden(t, "dfrs_showcase_timeline.json", tl.Bytes())
}
