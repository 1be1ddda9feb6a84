package vmm

import (
	"bytes"
	"strings"
	"testing"

	"atcsched/internal/sim"
)

func TestTracerCapturesLifecycle(t *testing.T) {
	w := testWorld(t, 1, 1, 5*sim.Millisecond)
	tr := NewTracer(0)
	w.SetTracer(tr)
	vm := w.Node(0).NewVM("tr", ClassParallel, 1, 0, 1)
	vm.VCPU(0).SetProcess(&seqProc{actions: []Action{
		Compute(12 * sim.Millisecond), // spans two 5ms slices → preempts
		Sleep(2 * sim.Millisecond),    // block + wake
		Compute(sim.Millisecond),
	}}, nil)
	w.Start()
	w.RunUntil(sim.Second)

	if len(tr.records) != 0 {
		t.Errorf("template tracer holds %d records; nodes record into their own rings", len(tr.records))
	}
	var dispatches, preempts, blocks, wakes int
	for _, r := range w.TraceRecords() {
		switch r.Kind {
		case TraceDispatch:
			dispatches++
		case TracePreempt:
			preempts++
		case TraceBlock:
			blocks++
		case TraceWake:
			wakes++
		}
		if r.Node != 0 {
			t.Errorf("record on node %d", r.Node)
		}
	}
	if dispatches < 3 {
		t.Errorf("dispatches = %d, want >= 3", dispatches)
	}
	if preempts < 2 {
		t.Errorf("preempts = %d, want >= 2 (12ms over 5ms slices)", preempts)
	}
	if blocks < 2 || wakes < 1 {
		t.Errorf("blocks = %d wakes = %d", blocks, wakes)
	}
	// Records are time-ordered.
	recs := w.TraceRecords()
	for i := 1; i < len(recs); i++ {
		if recs[i].At < recs[i-1].At {
			t.Fatal("records out of order")
		}
	}
}

func TestTracerRingBound(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.add(TraceRecord{At: sim.Time(i), Kind: TraceDispatch, VM: "x"})
	}
	if len(tr.records) != 4 {
		t.Fatalf("retained %d records, want 4", len(tr.records))
	}
	if tr.dropped != 6 {
		t.Errorf("dropped = %d, want 6", tr.dropped)
	}
	recs := tr.retained()
	if recs[0].At != 6 || recs[3].At != 9 {
		t.Errorf("ring kept %v..%v, want 6..9", recs[0].At, recs[3].At)
	}
}

func TestTracerOutputs(t *testing.T) {
	w := testWorld(t, 2, 1, 5*sim.Millisecond)
	w.SetTracer(NewTracer(0))
	// Node 1's record is earlier: the world merges the rings by time.
	w.Node(1).trc.add(TraceRecord{At: sim.Millisecond, Kind: TraceDispatch, Node: 1, PCPU: 2, VM: "vm0", VCPU: 1})
	w.Node(0).trc.add(TraceRecord{At: 2 * sim.Millisecond, Kind: TraceSliceChange, Node: 0, PCPU: -1, VM: "vm0", VCPU: -1, Arg: 6 * sim.Millisecond})
	var buf bytes.Buffer
	if err := w.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "dispatch") || !strings.Contains(out, "slice=6.000ms") {
		t.Errorf("text output:\n%s", out)
	}
	buf.Reset()
	if err := w.WriteTraceCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if lines[0] != "at_ns,kind,node,pcpu,vm,vcpu,arg_ns" {
		t.Errorf("csv header = %q", lines[0])
	}
	if !strings.Contains(lines[2], "slice") || !strings.Contains(lines[2], "6000000") {
		t.Errorf("csv slice row = %q", lines[2])
	}
}

func TestTracerSummary(t *testing.T) {
	w := testWorld(t, 1, 1, 5*sim.Millisecond)
	w.SetTracer(NewTracer(2))
	ring := w.Node(0).trc
	ring.add(TraceRecord{Kind: TraceDispatch, VM: "a"})
	ring.add(TraceRecord{Kind: TraceBlock, VM: "a"})
	ring.add(TraceRecord{Kind: TraceWake, VM: "b"})
	s := w.TraceSummary()
	if !strings.Contains(s, "b") || !strings.Contains(s, "dropped") {
		t.Errorf("summary:\n%s", s)
	}
}

func TestTraceKindStrings(t *testing.T) {
	for _, k := range []TraceKind{TraceDispatch, TracePreempt, TraceBlock, TraceWake, TraceSliceChange, TraceKind(42)} {
		if k.String() == "" {
			t.Error("empty kind name")
		}
	}
}

func TestNoTracerIsCheap(t *testing.T) {
	// Smoke: a run without a tracer must not record or panic.
	w := testWorld(t, 1, 1, 5*sim.Millisecond)
	vm := w.Node(0).NewVM("x", ClassParallel, 1, 0, 1)
	vm.VCPU(0).SetProcess(&seqProc{actions: []Action{Compute(sim.Millisecond)}}, nil)
	w.Start()
	w.RunUntil(100 * sim.Millisecond)
	if w.TraceRecords() != nil || w.TraceDropped() != 0 {
		t.Fatal("unexpected trace")
	}
}

// periodSpy wraps rrSched and records when OnPeriod fires.
type periodSpy struct {
	rrSched
	eng   *sim.Engine
	fires *[]sim.Time
}

func (s *periodSpy) OnPeriod(n *Node) {
	*s.fires = append(*s.fires, s.eng.Now())
}

func TestNodeTimerPhasesStaggered(t *testing.T) {
	// Two nodes' period timers must not fire at identical instants
	// (phase-locked timers let gang dispatch accidentally co-schedule
	// virtual clusters across nodes). Observe the actual OnPeriod times.
	cfg := DefaultNodeConfig()
	cfg.PCPUs = 1
	cfg.Dom0VCPUs = 1
	fires := make([][]sim.Time, 2)
	w, err := NewWorld(2, cfg, defaultNet(), func(n *Node) Scheduler {
		return &periodSpy{rrSched: rrSched{slice: 5 * sim.Millisecond}, eng: n.Engine(), fires: &fires[n.ID()]}
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	w.RunUntil(200 * sim.Millisecond)
	if len(fires[0]) < 3 || len(fires[1]) < 3 {
		t.Fatalf("periods fired %d/%d times", len(fires[0]), len(fires[1]))
	}
	// Skip the synchronized start-time call (index 0), then require no
	// shared instants.
	seen := map[sim.Time]bool{}
	for _, at := range fires[0][1:] {
		seen[at] = true
	}
	for _, at := range fires[1][1:] {
		if seen[at] {
			t.Fatalf("nodes share a period instant %v — timers phase-locked", at)
		}
	}
}
