package main

import (
	"math"
	"sort"
	"time"
)

// workload is one benchmark input set. pass builds the program state,
// runs the timed phase under measure, checks the outputs and, when tr is
// non-nil, records per-layer metrics into tr.
type workload struct {
	name string
	pass func(seed uint64, tr *tracer) (passResult, error)
}

var workloads = map[string]workload{
	"paper-score":   {"paper-score", paperScorePass},
	"atcd-hollow":   {"atcd-hollow", hollowPass},
	"fleet-control": {"fleet-control", fleetControlPass},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metricDef struct{ name, unit string }

// endToEndMetrics is every metric a plain run prints, in the order of
// BENCHMARK.json's end_to_end list: medians over the run's plain passes.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"run_wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayerMetrics is every metric a traced run prints, in the order of
// BENCHMARK.json's per_layer list. A workload that does not drive a
// layer reports 0 for it; README.md says which workload moves which.
var perLayerMetrics = []metricDef{
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.advance_s", "s"},
	{"sim.pending_max", "count"},
	{"vmm.ctx_switches", "count"},
	{"vmm.live_heap_growth_mb", "MiB"},
	{"vmm.audit_violations", "count"},
	{"netmodel.packets", "count"},
	{"netmodel.wire_mb", "MB"},
	{"workload.rounds", "count"},
	{"core.decide_ns", "ns"},
	{"daemon.decision_p50_ms", "ms"},
	{"daemon.decision_p99_ms", "ms"},
	{"daemon.drain_ms_p50", "ms"},
	{"daemon.drain_ms_p99", "ms"},
	{"daemon.service_ns", "ns"},
	{"daemon.first_apply_us", "us"},
	{"daemon.noop_apply_ratio", "ratio"},
	{"daemon.gen_lag_ms_p99", "ms"},
	{"daemon.apply_s", "s"},
	{"daemon.decisions", "count"},
	{"daemon.stale_skipped", "count"},
	{"daemon.overflow", "count"},
	{"daemon.recover_s", "s"},
	{"daemon.snapshot_encode_ms", "ms"},
	{"daemon.snapshot_decode_ms", "ms"},
	{"daemon.restore_ms", "ms"},
	{"daemon.snapshot_mb", "MB"},
	{"telemetry.export_ms", "ms"},
	{"telemetry.jsonl_mb", "MB"},
	{"telemetry.points", "count"},
	{"runner.cells", "count"},
	{"experiment.atc_gain_x", "x"},
	{"sim.cpu_share", "ratio"},
	{"vmm.cpu_share", "ratio"},
	{"sched.cpu_share", "ratio"},
	{"netmodel.cpu_share", "ratio"},
	{"cachemodel.cpu_share", "ratio"},
	{"diskmodel.cpu_share", "ratio"},
	{"workload.cpu_share", "ratio"},
	{"core.cpu_share", "ratio"},
	{"daemon.cpu_share", "ratio"},
	{"telemetry.cpu_share", "ratio"},
	{"go.cpu_share", "ratio"},
	{"bench.cpu_share", "ratio"},
	{"go.gc_cpu_share", "ratio"},
	{"go.allocs_per_op", "count"},
	{"go.alloc_mb", "MiB"},
	{"trace.overhead_wall_s", "s"},
	{"trace.overhead_cpu_s", "s"},
}

// quantile returns the q-quantile of xs (linear interpolation between
// closest ranks), sorting xs in place; empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durQuantileMS is quantile over durations, in milliseconds.
func durQuantileMS(ds []time.Duration, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(time.Millisecond)
	}
	return quantile(xs, q)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sinceS(t time.Time) float64 { return time.Since(t).Seconds() }
