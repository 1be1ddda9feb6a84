package daemon

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"atcsched/internal/core"
	"atcsched/internal/fault"
	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
	"atcsched/internal/workload"
)

// renderSlices renders one actuation deterministically.
func renderSlices(node int, slices map[int]sim.Time) string {
	ids := make([]int, 0, len(slices))
	for id := range slices {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var b bytes.Buffer
	fmt.Fprintf(&b, "n%d:", node)
	for _, id := range ids {
		fmt.Fprintf(&b, " vm%d=%v", id, slices[id])
	}
	b.WriteByte('\n')
	return b.String()
}

// recordingFleetActuator logs every ApplyNode (fleet path).
type recordingFleetActuator struct {
	inner FleetActuator
	mu    sync.Mutex
	log   bytes.Buffer
}

func (r *recordingFleetActuator) ApplyNode(node int, slices map[int]sim.Time) error {
	if err := r.inner.ApplyNode(node, slices); err != nil {
		return err
	}
	r.mu.Lock()
	r.log.WriteString(renderSlices(node, slices))
	r.mu.Unlock()
	return nil
}

// singleNodeBackend builds the equivalence-test cluster.
func singleNodeBackend(t *testing.T) *SimBackend {
	t.Helper()
	b, err := NewSimBackend(SimBackendConfig{
		Nodes:      1,
		VCPUsPerVM: 4,
		Clusters:   2,
		Kernel:     "lu",
		Class:      workload.ClassA,
		MaxPeriods: 60,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFleetSingleNodeByteIdentical pins the fold of the single-node
// daemon into the fleet: a 1-node, 1-shard fleet makes byte-identical
// actuations and cluster trajectory to the retired single-node Daemon,
// whose actuation log, committed periods, executed events and final
// clock on this cluster are recorded in the golden file. Re-pin with
// -update only for an intended behaviour change.
func TestFleetSingleNodeByteIdentical(t *testing.T) {
	b := singleNodeBackend(t)
	act := &recordingFleetActuator{inner: b}
	f := NewFleet(core.DefaultConfig(), b, act, FleetOptions{Shards: 1})
	defer f.Close()
	if err := f.Run(); !IsDone(err) {
		t.Fatalf("fleet: %v", err)
	}
	fmt.Fprintf(&act.log, "# periods=%d executed=%d now=%d\n",
		f.Decisions(), b.World.Executed(), int64(b.World.Eng.Now()))

	golden := filepath.Join("testdata", "single_node_daemon.golden.txt")
	if *update {
		if err := os.WriteFile(golden, act.log.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := act.log.String(); got != string(want) {
		t.Fatalf("1-node fleet diverges from the single-node daemon record:\nfleet:\n%s\ngolden:\n%s", got, want)
	}
}

// wedgeActuator blocks inside ApplyNode until released, so decisions
// pile up in the actuation queue.
type wedgeActuator struct {
	MapActuator
	entered chan struct{} // signaled once on first Apply
	release chan struct{}
	once    sync.Once
}

func (w *wedgeActuator) ApplyNode(node int, slices map[int]sim.Time) error {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return w.MapActuator.ApplyNode(node, slices)
}

// TestFleetQueueOverflowDropsOldest pins the bounded actuation queue:
// with the actuator wedged and QueueCapacity 1, every extra decision
// for the node evicts the previous queued one (superseded by fresher
// data), counted as overflow and a dropped period — and the decision
// that finally lands is the newest.
func TestFleetQueueOverflowDropsOldest(t *testing.T) {
	act := &wedgeActuator{entered: make(chan struct{}), release: make(chan struct{})}
	f := NewFleet(core.DefaultConfig(), nil, act, FleetOptions{Shards: 1, QueueCapacity: 1})
	defer f.Close()

	batch := func(lat sim.Time) NodeBatch {
		return NodeBatch{Node: 0, Samples: []VMSample{{ID: 1, AvgSpinLatency: lat, Parallel: true}}}
	}
	if err := f.Ingest(batch(ms(2))); err != nil {
		t.Fatal(err)
	}
	<-act.entered // applier is wedged inside ApplyNode; queue is empty
	for i := 0; i < 3; i++ {
		if err := f.Ingest(batch(ms(3))); err != nil {
			t.Fatal(err)
		}
	}
	// The three decisions funnel through one decider: the queue (cap 1)
	// holds only the newest, evicting the two before it. Eviction is
	// synchronous with the push, but the pushes race the wedged applier
	// only through the queue lock, so wait for both evictions.
	deadline := time.After(5 * time.Second)
	for f.Overflow() < 2 {
		select {
		case <-deadline:
			t.Fatalf("overflow = %d, want 2", f.Overflow())
		case <-time.After(time.Millisecond):
		}
	}
	close(act.release)
	f.Drain()

	if got := f.Overflow(); got != 2 {
		t.Errorf("overflow = %d, want 2", got)
	}
	if got := f.Decisions(); got != 2 {
		t.Errorf("decisions = %d, want 2 (first and newest)", got)
	}
	if got := f.Stats().DroppedPeriods; got != 2 {
		t.Errorf("dropped periods = %d, want 2 (the evicted decisions)", got)
	}
	if got := f.Stats().Retries; got != 0 {
		t.Errorf("retries = %d, want 0 — overflow must not count as actuation failure", got)
	}
	if act.Applies != 2 {
		t.Errorf("actuator saw %d applies, want 2", act.Applies)
	}
	tbl := f.Table()
	if len(tbl) != 1 || tbl[0].DroppedPeriods != 2 || tbl[0].Periods != 2 {
		t.Errorf("table = %+v, want one node with 2 periods and 2 drops", tbl)
	}
}

// faultedFleetBackend builds the kill-restore cluster: contended nodes
// plus a daemon-crash blackout window mid-run.
func faultedFleetBackend(t *testing.T, maxPeriods int) *SimBackend {
	t.Helper()
	b, err := NewSimBackend(SimBackendConfig{
		Nodes:      2,
		VCPUsPerVM: 4,
		Clusters:   2,
		Kernel:     "lu",
		Class:      workload.ClassA,
		MaxPeriods: maxPeriods,
		Seed:       3,
		Faults: &fault.Spec{Windows: []fault.Window{
			{Kind: fault.DaemonCrash, StartSec: 0.6, DurSec: 0.45},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runFleetPeriods steps f n times (stopping early on clean end).
func runFleetPeriods(t *testing.T, f *Fleet, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := f.Step(); err != nil {
			if IsDone(err) {
				return
			}
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

// TestFleetKillRestoreMidBlackout is the headline resilience pin: the
// fleet daemon is killed in the middle of a daemon-crash blackout, a
// new fleet is restored from the snapshot, and the run continues. The
// restored run's post-convergence control state must be byte-identical
// to an uninterrupted run's — and the controller must re-engage (ATC
// slices below the default) after the blackout lifts.
func TestFleetKillRestoreMidBlackout(t *testing.T) {
	const total, killAt = 60, 25 // blackout spans periods 21..35 (0.6s..1.05s)
	opts := FleetOptions{Shards: 2}

	// Uninterrupted reference run.
	refB := faultedFleetBackend(t, total)
	ref := NewFleet(core.DefaultConfig(), refB, refB, opts)
	runFleetPeriods(t, ref, total)
	refSnap, err := ref.Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()

	// Killed-and-restored run on an identical cluster.
	b := faultedFleetBackend(t, total)
	f1 := NewFleet(core.DefaultConfig(), b, b, opts)
	runFleetPeriods(t, f1, killAt)
	if !b.plan.DaemonDown(b.World.Eng.Now()) {
		t.Fatalf("kill point %d is not inside the blackout window (now %v)", killAt, b.World.Eng.Now())
	}
	snap := f1.Snapshot()
	enc, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	f1.Close() // the crash

	restored, err := DecodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	f2 := NewFleet(core.DefaultConfig(), b, b, opts)
	defer f2.Close()
	if err := f2.Restore(restored); err != nil {
		t.Fatal(err)
	}
	if got := f2.RestoredNodes(); got != 2 {
		t.Fatalf("restored %d nodes, want 2", got)
	}
	runFleetPeriods(t, f2, total-killAt)

	gotSnap, err := f2.Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotSnap, refSnap) {
		t.Errorf("post-convergence control state diverges from uninterrupted run:\nrestored:\n%s\nreference:\n%s",
			gotSnap, refSnap)
	}
	if rep := b.FaultReport(); rep.DaemonDarkPeriods == 0 {
		t.Error("no dark periods tallied — blackout window never engaged")
	}
	// Re-engagement: after the blackout the controller is adapting again,
	// so the contended parallel VMs sit below the default slice.
	def := core.DefaultConfig().Default
	engaged := false
	for _, node := range f2.Nodes() {
		for _, sl := range f2.LastSlices(node) {
			if sl < def {
				engaged = true
			}
		}
	}
	if !engaged {
		t.Error("no parallel VM below the default slice after restore — ATC never re-engaged")
	}
	if errs := b.World.Audit(); len(errs) > 0 {
		t.Fatalf("audit: %v", errs[0])
	}
}

// TestFleetShardCountInvariant pins that the shard count is pure
// plumbing: the same cluster driven at 1, 2 and 4 shards lands the
// same control state, byte for byte.
func TestFleetShardCountInvariant(t *testing.T) {
	var want []byte
	for _, shards := range []int{1, 2, 4} {
		b := faultedFleetBackend(t, 40)
		f := NewFleet(core.DefaultConfig(), b, b, FleetOptions{Shards: shards})
		runFleetPeriods(t, f, 40)
		enc, err := f.Snapshot().Encode()
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		if want == nil {
			want = enc
			continue
		}
		if !bytes.Equal(enc, want) {
			t.Errorf("shards=%d control state diverges from shards=1", shards)
		}
	}
}

// TestFleetMaxNodesRejectsStrays pins the MaxNodes bound: batches for
// out-of-range nodes are counted and ignored, never grown into state.
func TestFleetMaxNodesRejectsStrays(t *testing.T) {
	act := &MapActuator{}
	f := NewFleet(core.DefaultConfig(), nil, act, FleetOptions{MaxNodes: 2})
	defer f.Close()
	for _, node := range []int{0, 1, 2, -1, 7} {
		if err := f.Ingest(NodeBatch{Node: node, Samples: []VMSample{{ID: 1, AvgSpinLatency: ms(1), Parallel: true}}}); err != nil {
			t.Fatal(err)
		}
	}
	f.Drain()
	if got := f.Rejected(); got != 3 {
		t.Errorf("rejected = %d, want 3", got)
	}
	if got := f.Nodes(); len(got) != 2 {
		t.Errorf("fleet grew state for %v, want exactly nodes [0 1]", got)
	}
}

// TestFleetTelemetry pins what an attached registry receives without a
// clock: one decision span per period on the synthetic 30 ms grid, one
// daemon_decision_* count per node-period outcome, the fault counts,
// and a daemon_slice_ns point per (node, VM) on commit only.
func TestFleetTelemetry(t *testing.T) {
	periods := [][]VMSample{
		{{ID: 1, AvgSpinLatency: ms(2), Parallel: true}},
		{{ID: 1, AvgSpinLatency: ms(2), Parallel: true}},
		{{ID: 1, AvgSpinLatency: ms(2), Parallel: true}},
	}
	act := &scriptedActuator{script: []error{nil, errActuator, errActuator}}
	f := sliceFleet(t, periods, act, Options{MaxRetries: -1, GiveUpAfter: 2, Sleep: noSleep})
	reg := telemetry.NewRegistry(telemetry.Options{})
	f.SetTelemetry(reg, nil)
	if err := f.Run(); !errors.Is(err, errActuator) {
		t.Fatalf("Run = %v, want give-up on the third period", err)
	}
	snap := reg.Snapshot()

	counts := map[string]uint64{}
	for _, c := range snap.Counters {
		counts[c.Name] = c.Value
	}
	for name, want := range map[string]uint64{
		"daemon_decision_apply": 1, "daemon_decision_drop": 1, "daemon_decision_giveup": 1,
		"daemon_dropped_periods": 2, "daemon_retries": 0,
	} {
		if counts[name] != want {
			t.Errorf("%s = %d, want %d", name, counts[name], want)
		}
	}
	var spans []string
	for _, s := range snap.Spans {
		spans = append(spans, fmt.Sprintf("%s %v-%v", s.Name, s.Start, s.End))
	}
	if got, want := strings.Join(spans, ", "), "decision 0ns-30.000ms, decision 30.000ms-60.000ms, decision 60.000ms-90.000ms"; got != want {
		t.Errorf("spans = %s, want %s", got, want)
	}
	if len(snap.Series) != 1 {
		t.Fatalf("series = %+v, want one daemon_slice_ns series", snap.Series)
	}
	s := snap.Series[0]
	if s.Name != "daemon_slice_ns" || s.Label != (telemetry.Label{Node: 0, VM: "vm1"}) ||
		len(s.Points) != 1 || s.Points[0].T != ms(30) {
		t.Errorf("slice series = %+v, want one point for node 0 vm1 at 30ms", s)
	}
}
