package experiment

import (
	"sort"
	"strconv"
	"strings"
	"testing"

	"atcsched/internal/sim"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1", "fig2", "fig5", "fig8", "euclid", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "tab1", "sens", "score", "ablate", "switch", "faults", "scale", "dfrs", "fleet"}
	all := All()
	have := map[string]bool{}
	for _, e := range all {
		have[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("%s: incomplete registration", e.ID)
		}
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
	if len(all) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(all), len(want))
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("fig10"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestScaleByName(t *testing.T) {
	for _, n := range []string{"small", "medium", "full"} {
		sc, err := ScaleByName(n)
		if err != nil || sc.Name != n {
			t.Errorf("%s: %v %v", n, sc.Name, err)
		}
	}
	if _, err := ScaleByName("huge"); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestScalesAreOrdered(t *testing.T) {
	if !(len(Small.NodeSteps) <= len(Medium.NodeSteps) && len(Medium.NodeSteps) <= len(Full.NodeSteps)) {
		t.Error("node steps not monotone across scales")
	}
	if !(Small.Rounds <= Medium.Rounds && Medium.Rounds <= Full.Rounds) {
		t.Error("rounds not monotone")
	}
	if Full.MixNodes != 32 {
		t.Errorf("full MixNodes = %d, want the paper's 32", Full.MixNodes)
	}
	if Full.Rounds != 10 {
		t.Errorf("full Rounds = %d, want the paper's 10", Full.Rounds)
	}
}

func TestIterCount(t *testing.T) {
	if got := iterCount(50, 0.5); got != 25 {
		t.Errorf("iterCount = %d", got)
	}
	if got := iterCount(4, 0.1); got != 3 {
		t.Errorf("floor = %d, want 3", got)
	}
}

// parseNorm extracts the float in a table cell.
func parseNorm(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "s"), 64)
	if err != nil {
		t.Fatalf("bad cell %q: %v", cell, err)
	}
	return v
}

func TestTab1SmallRuns(t *testing.T) {
	e, _ := ByID("tab1")
	tables, err := e.Run(Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("tables = %d", len(tables))
	}
	if len(tables[0].Rows) != 7 {
		t.Errorf("Table I rows = %d", len(tables[0].Rows))
	}
}

func TestFig1ShapeSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run")
	}
	e, _ := ByID("fig1")
	tables, err := e.Run(Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) != len(Small.NodeSteps) {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// CS must beat CR at every size (normalized < 1).
	for _, row := range tb.Rows {
		if norm := parseNorm(t, row[3]); norm >= 1 {
			t.Errorf("CS normalized = %v at %s nodes, want < 1", norm, row[0])
		}
	}
}

func TestFig5ShapeSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run")
	}
	e, _ := ByID("fig5")
	tables, err := e.Run(Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		first := parseNorm(t, tb.Rows[0][1])
		last := parseNorm(t, tb.Rows[len(tb.Rows)-1][1])
		if last >= first {
			t.Errorf("%s: exec at shortest slice %v >= at 30ms %v", tb.Title, last, first)
		}
		// The Pearson note must report a strong positive correlation.
		found := false
		for _, n := range tb.Notes {
			if strings.Contains(n, "Pearson") {
				found = true
				var r float64
				if _, err := fmt_sscan(n, &r); err == nil && r < 0.8 {
					t.Errorf("%s: Pearson %v < 0.8", tb.Title, r)
				}
			}
		}
		if !found {
			t.Errorf("%s: no Pearson note", tb.Title)
		}
	}
}

// fmt_sscan pulls the first float out of a Pearson note.
func fmt_sscan(note string, out *float64) (int, error) {
	i := strings.Index(note, "= ")
	if i < 0 {
		return 0, strconv.ErrSyntax
	}
	rest := note[i+2:]
	j := strings.IndexAny(rest, " (")
	if j < 0 {
		j = len(rest)
	}
	v, err := strconv.ParseFloat(rest[:j], 64)
	if err != nil {
		return 0, err
	}
	*out = v
	return 1, nil
}

func TestFig10ATCBeatsCR(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run")
	}
	// Just one kernel at the smallest step to keep the test quick.
	cr, err := typeAExec(Small, "CR", "lu", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	atcT, err := typeAExec(Small, "ATC", "lu", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	gain := cr / atcT
	if gain < 1.5 {
		t.Errorf("ATC gain = %.2fx, want >= 1.5x (paper: 1.5-10x)", gain)
	}
}

func TestEuclidPicksShortSlice(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run")
	}
	e, _ := ByID("euclid")
	tables, err := e.Run(Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	note := tables[0].Notes[0]
	if !strings.Contains(note, "threshold") {
		t.Fatalf("unexpected note %q", note)
	}
	// The chosen threshold must be one of the short candidates (sub-ms).
	if strings.Contains(note, "30.000ms") {
		t.Errorf("optimizer picked the 30ms baseline: %q", note)
	}
}

func TestPlacerDistinctNodes(t *testing.T) {
	p := newPlacer(4)
	got := p.forVC(4)
	seen := map[int]bool{}
	for _, n := range got {
		if seen[n] {
			t.Fatalf("node %d reused in %v", n, got)
		}
		seen[n] = true
	}
	// Larger than node count: wraps but stays balanced.
	q := newPlacer(2)
	nodes := q.forVC(6)
	count := map[int]int{}
	for _, n := range nodes {
		count[n]++
	}
	if count[0] != 3 || count[1] != 3 {
		t.Errorf("unbalanced wrap: %v", count)
	}
	// one() always picks the least-loaded.
	r := newPlacer(3)
	r.load[0], r.load[1], r.load[2] = 5, 1, 3
	if r.one() != 1 {
		t.Error("one() not least-loaded")
	}
}

func TestMixedLayoutDeterministic(t *testing.T) {
	l1, k1, err := mixedLayout(Small, 9)
	if err != nil {
		t.Fatal(err)
	}
	l2, k2, err := mixedLayout(Small, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(k1) != len(l1.Clusters) {
		t.Fatalf("kernels %d vs clusters %d", len(k1), len(l1.Clusters))
	}
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Error("kernel assignment not deterministic")
		}
	}
	if l1.TotalVMs() != l2.TotalVMs() {
		t.Error("layout not deterministic")
	}
}

func TestMsHelper(t *testing.T) {
	if ms(0.3) != 300*sim.Microsecond {
		t.Errorf("ms(0.3) = %v", ms(0.3))
	}
}

func TestAblateSmallRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run")
	}
	e, _ := ByID("ablate")
	tables, err := e.Run(Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) != 7 {
		t.Fatalf("rows = %d, want 7 variants", len(tb.Rows))
	}
	// The no-clamp variant must be measurably worse than full ATC.
	noClamp := parseNorm(t, tb.Rows[1][2])
	if noClamp < 1.2 {
		t.Errorf("no-clamp ablation = %v, want clearly > 1 (§III-B pathology)", noClamp)
	}
}

func TestSensSmallRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run")
	}
	e, _ := ByID("sens")
	tables, err := e.Run(Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) != 8 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Every perturbation keeps the headline gain above 1.5x.
	for _, row := range tb.Rows {
		if g := parseNorm(t, row[1]); g < 1.5 {
			t.Errorf("%s: gain %v < 1.5", row[0], g)
		}
	}
}

func TestFig11ShapeSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run")
	}
	e, _ := ByID("fig11")
	tables, err := e.Run(Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	// Median ATC normalized time across VCs must beat CR (1.0) clearly;
	// use only VC rows (skip INDn, which are tiny and noisy).
	var atcVals []float64
	for _, row := range tb.Rows {
		if strings.HasPrefix(row[0], "VC") {
			atcVals = append(atcVals, parseNorm(t, row[5]))
		}
	}
	if len(atcVals) < 3 {
		t.Fatalf("VC rows = %d", len(atcVals))
	}
	sort.Float64s(atcVals)
	med := atcVals[len(atcVals)/2]
	if med > 0.7 {
		t.Errorf("median ATC normalized time = %v, want < 0.7", med)
	}
}

func TestMixedShapeSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run")
	}
	r, err := mixedNonparallel(Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	// fig13 row 0 = web; its CS column must be well below 1 while both
	// ATC variants stay near 1.
	webCS, ok := cellFloat(r.ioApps, 0, 3)
	if !ok {
		t.Fatal("cannot parse web/CS")
	}
	if webCS > 0.8 {
		t.Errorf("web under CS = %v, want clearly degraded", webCS)
	}
	atc30, _ := cellFloat(r.ioApps, 0, 7)
	if atc30 < 0.9 || atc30 > 1.1 {
		t.Errorf("web under ATC(30ms) = %v, want ~1", atc30)
	}
	// fig14: every approach's CPU-job performance within a sane band.
	for ri := range r.cpuApps.Rows {
		for ci := 2; ci < len(r.cpuApps.Headers); ci++ {
			v, ok := cellFloat(r.cpuApps, ri, ci)
			if ok && (v < 0.6 || v > 1.4) {
				t.Errorf("cpu row %d col %d = %v out of band", ri, ci, v)
			}
		}
	}
}

// TestScoreSmallPassesMost pins the small-scale scorecard at seed 1 —
// the one a reader runs — at every one of its 11 paper claims: a
// DIVERGES verdict there is a lost claim, not noise.
func TestScoreSmallPassesMost(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run")
	}
	e, _ := ByID("score")
	tables, err := e.Run(Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	pass := 0
	for _, row := range tb.Rows {
		if row[3] == "PASS" {
			pass++
		}
	}
	if pass != 11 || len(tb.Rows) != 11 {
		t.Errorf("scorecard: %d/%d passed, want 11/11", pass, len(tb.Rows))
	}
}
