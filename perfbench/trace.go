package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"
)

// outDir holds everything a run leaves behind, relative to the
// checkout root the benchmark runs from.
const outDir = ".bench_build"

// span is one timed call the benchmark made into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: none
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the tracer was made
	End    int64  `json:"endNs"`
}

// tracer records spans in memory, a CPU profile of the run phase and
// runtime/metrics deltas. A nil *tracer is a plain pass: every method
// is then a no-op, so workloads call it unconditionally.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span IDs; spans come from one goroutine
	prof  bytes.Buffer
	rt    [2][]metrics.Sample
	layer map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), layer: map[string]float64{}}
}

// begin opens a span whose parent is the innermost open span.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// total sums the durations of every span with this name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += time.Duration(s.End - s.Start)
		}
	}
	return d
}

// set records one per-layer metric.
func (t *tracer) set(name string, v float64) {
	if t != nil {
		t.layer[name] = v
	}
}

// writeSpans writes the spans as JSON lines under outDir.
func (t *tracer) writeSpans(workload string, seed uint64) error {
	dir := filepath.Join(outDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d-pid%d.jsonl", workload, seed, os.Getpid())))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runtimeMetrics are read before and after a traced run phase.
var runtimeMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func sampleFloat(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// delta returns how much runtime metric i grew over the run phase.
func (t *tracer) delta(i int) float64 { return sampleFloat(t.rt[1][i]) - sampleFloat(t.rt[0][i]) }

// allocs is the number of heap objects the run phase allocated.
func (t *tracer) allocs() float64 {
	if t == nil {
		return 0
	}
	return t.delta(0)
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// liveHeapMB forces a collection and returns the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// measure runs fn as the pass's run phase, filling WallS and CPUS. A
// tracer also profiles the phase and records the Go runtime metrics.
func measure(t *tracer, res *passResult, fn func() error) error {
	if t != nil {
		if err := pprof.StartCPUProfile(&t.prof); err != nil {
			return err
		}
		t.rt[0] = readRuntime()
	}
	cpu0, wall0 := cpuSeconds(), time.Now()
	err := fn()
	res.WallS = time.Since(wall0).Seconds()
	res.CPUS = cpuSeconds() - cpu0
	if t == nil {
		return err
	}
	t.rt[1] = readRuntime()
	pprof.StopCPUProfile()
	if used := t.delta(3) - t.delta(4); used > 0 {
		t.set("go.gc_cpu_share", t.delta(2)/used)
	}
	t.set("go.alloc_mb", t.delta(1)/(1<<20))
	shares, perr := layerShares(t.prof.Bytes())
	if perr != nil {
		return perr
	}
	for _, l := range sharedLayers {
		t.set(l+".cpu_share", shares[l])
	}
	return err
}
