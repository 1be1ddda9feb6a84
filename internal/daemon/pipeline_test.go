package daemon

import (
	"bytes"
	"io"
	"maps"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"testing"

	"atcsched/internal/core"
	"atcsched/internal/sim"
)

// cannedSource is a FleetSource over fixed batches that advance in
// place every period — fresh Seqs, latencies cycling through a fixed
// pattern — so it never ends and allocates nothing: a Step over it
// measures the pipeline, not a workload.
type cannedSource struct {
	batches []NodeBatch
	period  uint64
}

// newCannedSource builds nodes batches of vms samples each; the last VM
// of every node is non-parallel.
func newCannedSource(nodes, vms int) *cannedSource {
	slab := make([]VMSample, nodes*vms)
	s := &cannedSource{batches: make([]NodeBatch, nodes)}
	for n := range s.batches {
		samples := slab[n*vms : (n+1)*vms : (n+1)*vms]
		for j := range samples {
			samples[j] = VMSample{ID: j + 1, Parallel: j < vms-1}
		}
		s.batches[n] = NodeBatch{Node: n, Samples: samples}
	}
	return s
}

func (s *cannedSource) SampleFleet() ([]NodeBatch, error) {
	s.period++
	for _, b := range s.batches {
		for j := range b.Samples {
			smp := &b.Samples[j]
			smp.Seq = s.period
			smp.AvgSpinLatency = sim.Time((s.period+uint64(b.Node+j))%4) * 500 * sim.Microsecond
		}
	}
	return s.batches, nil
}

// nopActuator accepts every actuation and keeps nothing.
type nopActuator struct{}

func (nopActuator) ApplyNode(int, map[int]sim.Time) error { return nil }

// cannedFleet builds a 1-shard fleet over a canned source and steps it
// warm: every node known, every VM tracked, the queues at their size.
func cannedFleet(tb testing.TB, nodes, vms int) *Fleet {
	tb.Helper()
	f := NewFleet(core.DefaultConfig(), newCannedSource(nodes, vms), nopActuator{}, FleetOptions{})
	tb.Cleanup(f.Close)
	for range 8 {
		if err := f.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	return f
}

// BenchmarkFleetStep measures the fleet pipeline alone: one Step of a
// 1024-node × 4-VM canned fleet through a no-op actuator, reported per
// node decision.
func BenchmarkFleetStep(b *testing.B) {
	const nodes, vms = 1024, 4
	f := cannedFleet(b, nodes, vms)
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for range b.N {
		if err := f.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	decisions := float64(b.N * nodes)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/decisions, "ns/decision")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/decisions, "allocs/decision")
}

// TestFleetStepAllocs pins the pipeline's allocations per node
// decision over a warm Step. NodeSlices' result map is the one the
// FleetActuator API requires; everything else — the hand-off, the
// per-VM records, the actuation queue — reuses its storage.
func TestFleetStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const (
		nodes, vms = 1024, 4
		runs       = 20
		max        = 3.0
	)
	f := cannedFleet(t, nodes, vms)
	// AllocsPerRun makes one untimed warm-up call before its runs.
	allocs := testing.AllocsPerRun(runs, func() {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}) / nodes
	t.Logf("%.2f allocs per decision", allocs)
	if allocs > max {
		t.Fatalf("warm Step makes %.2f allocs per decision, want <= %v", allocs, max)
	}
}

// periodSource replays pre-generated periods of fleet batches, then
// io.EOF.
type periodSource struct {
	periods [][]NodeBatch
	k       int
}

func (s *periodSource) SampleFleet() ([]NodeBatch, error) {
	if s.k >= len(s.periods) {
		return nil, io.EOF
	}
	s.k++
	return s.periods[s.k-1], nil
}

// seededPeriods generates periods of batches for nodes nodes of vms VMs
// each. Per node and period a VM's sample is fresh, a stale repeat of
// its last Seq, or missing (a dropout); a node goes dark (no batch) now
// and then; and every period carries one batch for a node outside
// [0,nodes), which a fleet bounded by MaxNodes rejects.
func seededPeriods(seed uint64, nodes, vms, periods int) [][]NodeBatch {
	rng := rand.New(rand.NewPCG(seed, 0))
	seq := make([]uint64, nodes*vms)
	out := make([][]NodeBatch, periods)
	for k := range out {
		for n := range nodes {
			if rng.IntN(8) == 0 {
				continue
			}
			var samples []VMSample
			for j := range vms {
				r := rng.IntN(10)
				if r == 0 {
					continue
				}
				if i := n*vms + j; r > 1 || seq[i] == 0 {
					seq[i]++
				}
				s := VMSample{ID: j + 1, Parallel: j < vms-1, Seq: seq[n*vms+j],
					AvgSpinLatency: sim.Time(rng.IntN(5)) * 500 * sim.Microsecond}
				if !s.Parallel {
					s.AdminSlice = ms(6)
				}
				samples = append(samples, s)
			}
			out[k] = append(out[k], NodeBatch{Node: n, Samples: samples})
		}
		out[k] = append(out[k], NodeBatch{Node: nodes + k, Samples: []VMSample{{ID: 1, Parallel: true}}})
	}
	return out
}

// nodeLogActuator keeps every node's actuations, in order.
type nodeLogActuator struct {
	mu   sync.Mutex
	logs map[int][]string
}

func (a *nodeLogActuator) ApplyNode(node int, slices map[int]sim.Time) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.logs == nil {
		a.logs = map[int][]string{}
	}
	a.logs[node] = append(a.logs[node], renderSlices(node, slices))
	return nil
}

// TestFleetIngestStepEquivalence pins that Step's one chunk per shard
// and Ingest's chunk of one are the same pipeline: the same seeded
// periods — stale Seqs, dropouts, dark and out-of-bounds nodes
// included — fed through per-batch Ingest with a Drain per period and
// through Step actuate the same slices on every node and leave
// byte-identical snapshots, at 1 and 3 shards.
func TestFleetIngestStepEquivalence(t *testing.T) {
	const nodes, vms, periods = 24, 4, 40
	batches := seededPeriods(7, nodes, vms, periods)
	for _, shards := range []int{1, 3} {
		opts := FleetOptions{Shards: shards, MaxNodes: nodes}

		stepAct := &nodeLogActuator{}
		fs := NewFleet(core.DefaultConfig(), &periodSource{periods: batches}, stepAct, opts)
		runFleetPeriods(t, fs, periods)
		fs.Close()

		ingestAct := &nodeLogActuator{}
		fi := NewFleet(core.DefaultConfig(), nil, ingestAct, opts)
		for _, period := range batches {
			for _, b := range period {
				if err := fi.Ingest(b); err != nil {
					t.Fatal(err)
				}
			}
			fi.Drain()
		}
		fi.periods.Store(fs.Periods()) // Step counts periods; Drain does not
		fi.Close()

		if !maps.EqualFunc(stepAct.logs, ingestAct.logs, slices.Equal) {
			t.Errorf("shards=%d: actuations differ:\nstep:   %v\ningest: %v", shards, stepAct.logs, ingestAct.logs)
		}
		if fs.Rejected() != periods || fi.Rejected() != periods {
			t.Errorf("shards=%d: rejected step %d, ingest %d, want %d each", shards, fs.Rejected(), fi.Rejected(), periods)
		}
		stepSnap, err := fs.Snapshot().Encode()
		if err != nil {
			t.Fatal(err)
		}
		ingestSnap, err := fi.Snapshot().Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stepSnap, ingestSnap) {
			t.Errorf("shards=%d: snapshots differ:\nstep:\n%s\ningest:\n%s", shards, stepSnap, ingestSnap)
		}
	}
}

// TestFleetConcurrentReaders runs the read surfaces — Table, Summary,
// LastSlices, Stats — in a loop on other goroutines while Step hands
// chunks to the shards and while several goroutines Ingest between
// Drains. Run under -race it checks the hand-off, the in-place
// actuation queue and the per-VM records against every reader.
func TestFleetConcurrentReaders(t *testing.T) {
	const nodes, vms, rounds, ingesters = 64, 4, 10, 4
	src := newCannedSource(nodes, vms)
	f := NewFleet(core.DefaultConfig(), src, &MapActuator{}, FleetOptions{Shards: 3})
	defer f.Close()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				f.Table()
				f.Summary()
				f.LastSlices(n % nodes)
				f.Stats()
			}
		}()
	}
	for range rounds {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
		batches, _ := src.SampleFleet()
		var ingest sync.WaitGroup
		for g := range ingesters {
			ingest.Add(1)
			go func() {
				defer ingest.Done()
				for n := g; n < nodes; n += ingesters {
					if err := f.Ingest(batches[n]); err != nil {
						t.Error(err)
					}
				}
			}()
		}
		ingest.Wait()
		f.Drain()
	}
	close(stop)
	readers.Wait()

	if got, want := f.Decisions(), uint64(2*rounds*nodes); got != want {
		t.Errorf("decisions = %d, want %d", got, want)
	}
	s := f.Summary()
	if s.Overflow != 0 || s.IngestDepth != 0 || s.QueueDepth != 0 || s.Stats.StaleSamples != 0 {
		t.Errorf("summary after the last drain = %+v, want no overflow, empty queues, no stale samples", s)
	}
	for _, row := range f.Table() {
		if row.VMs != vms || row.Periods != 2*rounds {
			t.Errorf("node %d: %d VMs, %d periods; want %d and %d", row.Node, row.VMs, row.Periods, vms, 2*rounds)
		}
	}
}
