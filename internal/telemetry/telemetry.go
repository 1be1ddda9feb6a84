// Package telemetry is the simulator's sim-time observability plane: a
// metric registry (counters, gauges, time series, sim-clock histograms)
// plus span tracking for spin episodes, BSP rounds, and controller
// decision cycles, with exporters for Chrome/Perfetto trace-event JSON,
// JSONL time series, and Prometheus-style text exposition.
//
// The plane is strictly off the determinism path: every publish site in
// the simulator is guarded by a nil check, sampling reads lifetime
// counters without consuming the scheduler-facing period accumulators,
// and every node of a world gets its own Registry (mirroring the
// per-node tracer rings) so shards never contend on shared state.
// Enabling telemetry must never change a run's fingerprint — the
// proptest battery enforces byte-identical results telemetry-on vs
// telemetry-off at every shard count.
//
// Registries serialize their own access with a mutex so a live HTTP
// scrape (cmd/atcd) can snapshot mid-run; within the simulator each
// registry is only ever written from one engine goroutine, so the lock
// is uncontended on the hot path.
package telemetry

import (
	"fmt"
	"sort"
	"sync"

	"atcsched/internal/sim"
)

// Label scopes a metric to a node and/or a VM. Node -1 means "not
// node-scoped" (global/daemon metrics).
type Label struct {
	Node int    `json:"node"`
	VM   string `json:"vm,omitempty"`
}

// GlobalLabel is the label of node-agnostic metrics.
func GlobalLabel() Label { return Label{Node: -1} }

// key identifies one metric instance inside a registry.
type key struct {
	name string
	lab  Label
}

// Span is one completed interval on the sim clock: a spin episode, a
// BSP round, a controller decision cycle, or a fault window.
type Span struct {
	// Name classifies the span ("spin", "round", "decision", "fault:...").
	Name string `json:"name"`
	// Track groups spans onto one timeline row (a VM name, "daemon", ...).
	Track string   `json:"track"`
	Node  int      `json:"node"`
	Start sim.Time `json:"start"`
	End   sim.Time `json:"end"`
	// Value carries span-specific payload (the spin latency, the slice in
	// force, the round index).
	Value sim.Time `json:"value,omitempty"`
}

// Point is one time-series sample.
type Point struct {
	T sim.Time `json:"t"`
	V float64  `json:"v"`
}

// Counter is a monotonically advancing count in a Snapshot.
type Counter struct {
	Name string `json:"name"`
	Label
	Value uint64 `json:"value"`
}

// Gauge is a point-in-time value in a Snapshot.
type Gauge struct {
	Name string `json:"name"`
	Label
	Value float64 `json:"value"`
}

// Series is one metric instance's retained samples in a Snapshot.
type Series struct {
	Name string `json:"name"`
	Label
	Points []Point `json:"points"`
}

// Histogram is a cumulative sim-duration histogram in a Snapshot.
// Counts[i] counts observations <= Bounds[i]; the implicit final bucket
// (+Inf) is Count minus the last cumulative bound count.
type Histogram struct {
	Name string `json:"name"`
	Label
	Bounds []sim.Time `json:"bounds"`
	Counts []uint64   `json:"counts"` // cumulative, len == len(Bounds)
	Count  uint64     `json:"count"`
	Sum    sim.Time   `json:"sum"`
}

// Quantile estimates the q-quantile (clamped to [0,1]) from the
// cumulative bucket counts, interpolating linearly within the winning
// bucket — the Prometheus histogram_quantile estimator. Observations
// beyond the last bound clamp to it; an empty histogram reports 0.
func (h *Histogram) Quantile(q float64) sim.Time {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.Count)
	var prevCum uint64
	var lo sim.Time
	for i, cum := range h.Counts {
		if float64(cum) >= target {
			in := cum - prevCum
			hi := h.Bounds[i]
			if in == 0 {
				return hi
			}
			frac := (target - float64(prevCum)) / float64(in)
			return lo + sim.Time(frac*float64(hi-lo))
		}
		prevCum = cum
		lo = h.Bounds[i]
	}
	return h.Bounds[len(h.Bounds)-1]
}

// DefaultBounds is the sim-latency bucket ladder: wide enough for
// microsecond spin episodes through multi-second stalls.
func DefaultBounds() []sim.Time {
	return []sim.Time{
		1 * sim.Microsecond, 10 * sim.Microsecond, 100 * sim.Microsecond,
		300 * sim.Microsecond, 1 * sim.Millisecond, 3 * sim.Millisecond,
		10 * sim.Millisecond, 30 * sim.Millisecond, 100 * sim.Millisecond,
		300 * sim.Millisecond, 1 * sim.Second, 10 * sim.Second,
	}
}

// Options bound a Registry's memory.
type Options struct {
	// SeriesCap bounds the points retained per series (<= 0: default).
	// Past the cap new points are dropped and counted.
	SeriesCap int
	// SpanCap bounds the spans retained per registry (<= 0: default).
	SpanCap int
	// HistBounds overrides the histogram bucket ladder (nil: default).
	HistBounds []sim.Time
}

const (
	defaultSeriesCap = 1 << 16
	defaultSpanCap   = 1 << 16
)

func (o Options) withDefaults() Options {
	if o.SeriesCap <= 0 {
		o.SeriesCap = defaultSeriesCap
	}
	if o.SpanCap <= 0 {
		o.SpanCap = defaultSpanCap
	}
	if o.HistBounds == nil {
		o.HistBounds = DefaultBounds()
	}
	return o
}

// series is the mutable series state.
type series struct {
	points  []Point
	dropped uint64
}

// hist is the mutable histogram state (per-bucket counts, not yet
// cumulative; Snapshot renders the cumulative view).
type hist struct {
	counts []uint64 // len == len(bounds)+1; last is +Inf
	count  uint64
	sum    sim.Time
}

// Registry holds one publisher domain's metrics: one per node inside a
// World (so shards never share state) plus one global instance for the
// control daemon. All methods are safe for concurrent use; inside the
// simulator each registry is written from a single engine goroutine.
type Registry struct {
	mu           sync.Mutex
	opts         Options
	counters     map[key]uint64
	gauges       map[key]float64
	series       map[key]*series
	hists        map[key]*hist
	spans        []Span
	spansDropped uint64
}

// NewRegistry builds a registry (zero Options select the defaults).
func NewRegistry(opts Options) *Registry {
	return &Registry{
		opts:     opts.withDefaults(),
		counters: make(map[key]uint64),
		gauges:   make(map[key]float64),
		series:   make(map[key]*series),
		hists:    make(map[key]*hist),
	}
}

// Add advances a counter by delta.
func (r *Registry) Add(name string, lab Label, delta uint64) {
	r.mu.Lock()
	r.counters[key{name, lab}] += delta
	r.mu.Unlock()
}

// SetCount sets a counter to an absolute value (finalization totals).
func (r *Registry) SetCount(name string, lab Label, v uint64) {
	r.mu.Lock()
	r.counters[key{name, lab}] = v
	r.mu.Unlock()
}

// SetGauge sets a gauge.
func (r *Registry) SetGauge(name string, lab Label, v float64) {
	r.mu.Lock()
	r.gauges[key{name, lab}] = v
	r.mu.Unlock()
}

// Point appends one time-series sample. Past the series cap the sample
// is dropped (and counted) rather than evicting history — a bounded
// prefix keeps exporter output deterministic.
func (r *Registry) Point(name string, lab Label, t sim.Time, v float64) {
	r.mu.Lock()
	k := key{name, lab}
	s := r.series[k]
	if s == nil {
		s = &series{}
		r.series[k] = s
	}
	if len(s.points) >= r.opts.SeriesCap {
		s.dropped++
	} else {
		s.points = append(s.points, Point{T: t, V: v})
	}
	r.mu.Unlock()
}

// Observe records one duration into a sim-clock histogram.
func (r *Registry) Observe(name string, lab Label, d sim.Time) {
	r.mu.Lock()
	k := key{name, lab}
	h := r.hists[k]
	if h == nil {
		h = &hist{counts: make([]uint64, len(r.opts.HistBounds)+1)}
		r.hists[k] = h
	}
	i := sort.Search(len(r.opts.HistBounds), func(i int) bool { return d <= r.opts.HistBounds[i] })
	h.counts[i]++
	h.count++
	h.sum += d
	r.mu.Unlock()
}

// AddSpan records one completed span. Past the cap spans are dropped
// and counted.
func (r *Registry) AddSpan(s Span) {
	r.mu.Lock()
	if len(r.spans) >= r.opts.SpanCap {
		r.spansDropped++
	} else {
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
}

// Snapshot captures everything the plane knows, deterministically
// ordered: counters, gauges, series, and histograms sorted by
// (name, node, vm); spans sorted by (start, node) with per-registry
// insertion order (engine order) breaking ties.
type Snapshot struct {
	Counters      []Counter   `json:"counters"`
	Gauges        []Gauge     `json:"gauges"`
	Series        []Series    `json:"series"`
	Histograms    []Histogram `json:"histograms"`
	Spans         []Span      `json:"spans"`
	DroppedPoints uint64      `json:"droppedPoints,omitempty"`
	DroppedSpans  uint64      `json:"droppedSpans,omitempty"`
}

// snapshotInto appends this registry's state to snap (caller merges and
// sorts).
func (r *Registry) snapshotInto(snap *Snapshot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range r.counters {
		snap.Counters = append(snap.Counters, Counter{Name: k.name, Label: k.lab, Value: v})
	}
	for k, v := range r.gauges {
		snap.Gauges = append(snap.Gauges, Gauge{Name: k.name, Label: k.lab, Value: v})
	}
	for k, s := range r.series {
		snap.Series = append(snap.Series, Series{
			Name: k.name, Label: k.lab,
			Points: append([]Point(nil), s.points...),
		})
		snap.DroppedPoints += s.dropped
	}
	for k, h := range r.hists {
		out := Histogram{
			Name: k.name, Label: k.lab,
			Bounds: append([]sim.Time(nil), r.opts.HistBounds...),
			Counts: make([]uint64, len(r.opts.HistBounds)),
			Count:  h.count,
			Sum:    h.sum,
		}
		var cum uint64
		for i := range out.Counts {
			cum += h.counts[i]
			out.Counts[i] = cum
		}
		snap.Histograms = append(snap.Histograms, out)
	}
	snap.Spans = append(snap.Spans, r.spans...)
	snap.DroppedSpans += r.spansDropped
}

// Snapshot renders this single registry deterministically.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	r.snapshotInto(&snap)
	sortSnapshot(&snap)
	return snap
}

// Plane is a whole world's telemetry: one registry per node plus one
// global registry for node-agnostic publishers (the control daemon,
// shard sync stats, the network fabric). Attach to a world with
// vmm.World.SetTelemetry before Start.
type Plane struct {
	opts   Options
	mu     sync.Mutex
	nodes  []*Registry
	global *Registry
}

// New builds a plane (zero Options select the defaults).
func New(opts Options) *Plane {
	o := opts.withDefaults()
	return &Plane{opts: o, global: NewRegistry(o)}
}

// Node returns node i's registry, creating it (and any lower-indexed
// ones) on first use.
func (p *Plane) Node(i int) *Registry {
	if i < 0 {
		panic(fmt.Sprintf("telemetry: negative node index %d", i))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.nodes) <= i {
		p.nodes = append(p.nodes, NewRegistry(p.opts))
	}
	return p.nodes[i]
}

// Global returns the node-agnostic registry.
func (p *Plane) Global() *Registry { return p.global }

// Snapshot merges every registry into one deterministically ordered
// view. Safe to call mid-run (each registry is locked briefly).
func (p *Plane) Snapshot() Snapshot {
	p.mu.Lock()
	regs := append([]*Registry(nil), p.nodes...)
	p.mu.Unlock()
	var snap Snapshot
	for _, r := range regs {
		r.snapshotInto(&snap)
	}
	p.global.snapshotInto(&snap)
	sortSnapshot(&snap)
	return snap
}

// labelLess orders labels by (node, vm).
func labelLess(a, b Label) bool {
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	return a.VM < b.VM
}

// sortSnapshot puts every section in its canonical order.
func sortSnapshot(s *Snapshot) {
	sort.Slice(s.Counters, func(i, j int) bool {
		if s.Counters[i].Name != s.Counters[j].Name {
			return s.Counters[i].Name < s.Counters[j].Name
		}
		return labelLess(s.Counters[i].Label, s.Counters[j].Label)
	})
	sort.Slice(s.Gauges, func(i, j int) bool {
		if s.Gauges[i].Name != s.Gauges[j].Name {
			return s.Gauges[i].Name < s.Gauges[j].Name
		}
		return labelLess(s.Gauges[i].Label, s.Gauges[j].Label)
	})
	sort.Slice(s.Series, func(i, j int) bool {
		if s.Series[i].Name != s.Series[j].Name {
			return s.Series[i].Name < s.Series[j].Name
		}
		return labelLess(s.Series[i].Label, s.Series[j].Label)
	})
	sort.Slice(s.Histograms, func(i, j int) bool {
		if s.Histograms[i].Name != s.Histograms[j].Name {
			return s.Histograms[i].Name < s.Histograms[j].Name
		}
		return labelLess(s.Histograms[i].Label, s.Histograms[j].Label)
	})
	sort.SliceStable(s.Spans, func(i, j int) bool {
		if s.Spans[i].Start != s.Spans[j].Start {
			return s.Spans[i].Start < s.Spans[j].Start
		}
		return s.Spans[i].Node < s.Spans[j].Node
	})
}
