package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"atcsched/internal/report"
)

func genBytes(t *testing.T, seed uint64, nodes, periods int) []byte {
	t.Helper()
	g := newFleetGen(seed, nodes)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for range periods {
		if err := enc.Encode(g.next()); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestFleetGenDeterministic(t *testing.T) {
	a := genBytes(t, 7, 64, 40)
	if b := genBytes(t, 7, 64, 40); !bytes.Equal(a, b) {
		t.Fatal("same seed gave different batches")
	}
	if c := genBytes(t, 8, 64, 40); bytes.Equal(a, c) {
		t.Fatal("different seeds gave identical batches")
	}
}

func TestFleetGenShape(t *testing.T) {
	g := newFleetGen(3, 400)
	stale, readings, dark := 0, 0, 0
	lastSeq := map[int]uint64{}
	for range 60 {
		batches := g.next()
		dark += 400 - len(batches)
		for _, b := range batches {
			if len(b.Samples) != vmsPerNode {
				t.Fatalf("node %d: %d samples", b.Node, len(b.Samples))
			}
			for _, s := range b.Samples {
				readings++
				if s.Seq <= lastSeq[s.ID] {
					stale++
				}
				lastSeq[s.ID] = s.Seq
			}
		}
	}
	if share := float64(stale) / float64(readings); share < 0.01 || share > 0.06 {
		t.Errorf("stale share %.3f, want a few percent", share)
	}
	if dark == 0 {
		t.Error("no node ever went dark")
	}
	for _, n := range g.cleanNodes(1, 50) {
		if g.flaky[n] {
			t.Errorf("clean node %d is flaky", n)
		}
	}
}

// smallFleet is a fleet-control pass small enough for a unit test.
var smallFleet = fleetConfig{nodes: 16, periods: 24, period: 4 * time.Millisecond, killAt: 12, watch: 4}

func TestFleetControlSmallPassChecksOut(t *testing.T) {
	res, err := runFleetControl(5, smallFleet, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckErr != "" || res.Failed != 0 {
		t.Fatalf("check failed: %s (%d/%d)", res.CheckErr, res.Failed, res.Attempted)
	}
	if res.Det["replay.decisions"] != float64(smallFleet.watch*smallFleet.periods) {
		t.Fatalf("replayed %v decisions", res.Det["replay.decisions"])
	}
}

func TestSlowActuatorShowsInDecisionP99(t *testing.T) {
	p99 := func(slow func(int)) float64 {
		tr := newTracer()
		res, err := runFleetControl(5, smallFleet, tr, slow)
		if err != nil {
			t.Fatal(err)
		}
		if res.CheckErr != "" {
			t.Fatalf("check failed: %s", res.CheckErr)
		}
		return tr.layer["daemon.decision_p99_ms"]
	}
	fast := p99(nil)
	// 16 nodes × 1 ms per actuation is 16 ms of work per 4 ms period:
	// every period starts later than the one before.
	slow := p99(func(int) { time.Sleep(time.Millisecond) })
	if slow < fast+16 || slow < 30 {
		t.Fatalf("decision p99: fast %.2f ms, slow %.2f ms; want the slow actuator's lateness to show", fast, slow)
	}
}

func TestEveryInternalPackageHasOneLayer(t *testing.T) {
	used := map[string]bool{}
	err := filepath.WalkDir("../internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		rel, err := filepath.Rel("../internal", filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(rel)
		first, _, _ := strings.Cut(pkg, "/")
		used[first] = true
		layer := layerForFunc(modulePrefix + pkg + ".F")
		if layer == "other" || layer == "go" || layer == "bench" || layer != layerOf[first] {
			t.Errorf("package %s maps to layer %q", pkg, layer)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(used) == 0 {
		t.Fatal("found no internal packages")
	}
	for first := range layerOf {
		if !used[first] {
			t.Errorf("layer map names %q, which is not a package", first)
		}
	}
}

func TestLayerForFunc(t *testing.T) {
	for fn, want := range map[string]string{
		"atcsched/internal/sim.(*Engine).Step":                     "sim",
		"atcsched/internal/sched/credit.(*Scheduler).PickNext":     "sched",
		"atcsched/internal/runner.MapN[go.shape.struct { a/b.T }]": "runner",
		"atcsched/internal/daemon.(*fleetShard).decideLoop.func1":  "daemon",
		"runtime.mallocgc":                   "go",
		"encoding/json.(*encodeState).value": "go",
		"main.(*openLoop).SampleFleet":       "bench",
		"atcsched.Run":                       "other",
	} {
		if got := layerForFunc(fn); got != want {
			t.Errorf("layerForFunc(%q) = %q, want %q", fn, got, want)
		}
	}
}

var sink int

func TestLayerSharesDecodesProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		for i := range 1000 {
			sink += i * i
		}
	}
	pprof.StopCPUProfile()
	shares, err := layerShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if len(shares) == 0 || sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares %v sum to %v", shares, sum)
	}
	if _, err := layerShares([]byte("not a profile")); err == nil {
		t.Fatal("garbage decoded without error")
	}
}

func TestParseScorecard(t *testing.T) {
	tab := report.New("Reproduction scorecard: 1/2 paper claims reproduced at scale \"small\"",
		"Check", "Paper", "Measured", "Verdict")
	tab.Add(gainClaim, "1.5-10x", "4.4x", "PASS")
	tab.Add("fig1 CS scalability", "grows", "shrinks", "DIVERGES")
	card, err := parseScorecard([]*report.Table{tab})
	if err != nil {
		t.Fatal(err)
	}
	if card.claims != 2 || card.passed != 1 || card.gain != 4.4 {
		t.Fatalf("parsed %+v", card)
	}
	tab.Title = "Reproduction scorecard: 2/2 paper claims reproduced"
	if _, err := parseScorecard([]*report.Table{tab}); err == nil {
		t.Fatal("title disagreeing with the rows was accepted")
	}
}

func TestSameDetFlagsTracedDifference(t *testing.T) {
	a := outcome{passResult: passResult{Det: map[string]float64{"sim.events": 10}}}
	b := outcome{passResult: passResult{Det: map[string]float64{"sim.events": 10}}, traced: true}
	if err := sameDet([]outcome{a, b}); err != nil {
		t.Fatal(err)
	}
	b.Det = map[string]float64{"sim.events": 11}
	if err := sameDet([]outcome{a, b}); err == nil {
		t.Fatal("differing deterministic quantities were accepted")
	}
}

func TestQuantile(t *testing.T) {
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Fatalf("median = %v", got)
	}
	if got := quantile(nil, 0.99); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark %s (%s)",
					kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
}
