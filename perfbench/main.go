// Command perfbench is the repository benchmark. It runs one workload
// for a fixed number of host seconds, checks the program's outputs and
// prints one JSON result line:
//
//	perfbench --workload fleet-control --seed 3 --seconds 30 --trace 0
//
// Every measured pass runs in a fresh child process (this binary with
// --pass), so peak RSS, set-up time and the experiment package's memo
// tables belong to that pass alone. The parent repeats passes until the
// time budget is spent and reports medians. With --trace 1 it alternates
// plain and traced passes: per-layer metrics come from the traced ones,
// and deterministic quantities must agree between the two kinds.
//
// See README.md for the workloads, the metric → layer map and the host
// caveats.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// startedAt is taken while the main package initializes, after every
// imported package's init has run: the end of process start-up.
var startedAt = time.Now()

// minPlainPasses is the fewest plain passes a run reports a median of.
const minPlainPasses = 3

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "input generator seed")
	seconds := fs.Int("seconds", 40, "host seconds the passes of a run may take")
	trace := fs.Int("trace", 0, "1: alternate plain and traced passes and report per-layer metrics")
	pass := fs.String("pass", "", "run one pass in this process and print its raw result (plain|traced)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	switch *pass {
	case "":
	case "plain", "traced":
		return runPass(w, *seed, *pass == "traced", stdout)
	default:
		return fmt.Errorf("unknown pass kind %q", *pass)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	return drive(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stdout)
}

// passResult is what one child pass reports to the parent.
type passResult struct {
	// StartedUnixNano is the child's startedAt.
	StartedUnixNano int64 `json:"startedUnixNano"`
	// BuildS is the host time the pass spent building program state.
	BuildS float64 `json:"buildS"`
	// WallS and CPUS cover the run phase only.
	WallS float64 `json:"wallS"`
	CPUS  float64 `json:"cpuS"`
	// Attempted and Failed count the pass's operations.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// CheckErr is the first failed output check ("" when all passed).
	CheckErr string `json:"checkErr,omitempty"`
	// Det holds deterministic quantities that every pass of one seed,
	// traced or not, must reproduce exactly.
	Det map[string]float64 `json:"det"`
	// Layer holds the per-layer metrics of a traced pass.
	Layer map[string]float64 `json:"layer,omitempty"`
}

// fail marks every operation of the pass failed, keeping the first cause.
func (r *passResult) fail(format string, args ...any) {
	if r.CheckErr == "" {
		r.CheckErr = fmt.Sprintf(format, args...)
	}
	r.Failed = r.Attempted
}

// runPass executes one pass in this process and prints its result.
func runPass(w workload, seed uint64, traced bool, stdout io.Writer) error {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	res, err := w.pass(seed, tr)
	if err != nil {
		return err
	}
	res.StartedUnixNano = startedAt.UnixNano()
	if tr != nil {
		res.Layer = tr.layer
		if err := tr.writeSpans(w.name, seed); err != nil {
			return err
		}
	}
	return json.NewEncoder(stdout).Encode(res)
}

// outcome is a finished child pass as the parent saw it.
type outcome struct {
	passResult
	traced    bool
	setupS    float64
	peakRSSMB float64
}

// endToEnd returns one of the endToEndMetrics of this pass.
func (o outcome) endToEnd(name string) float64 {
	switch name {
	case "setup_s":
		return o.setupS
	case "run_wall_s":
		return o.WallS
	case "cpu_s":
		return o.CPUS
	case "peak_rss_mb":
		return o.peakRSSMB
	}
	panic("perfbench: unknown end-to-end metric " + name)
}

// spawn runs one child pass and collects its result and resource usage.
func spawn(exe string, w workload, seed uint64, traced bool) (outcome, error) {
	kind := "plain"
	if traced {
		kind = "traced"
	}
	cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatUint(seed, 10), "--pass", kind)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	launched := time.Now()
	if err := cmd.Run(); err != nil {
		return outcome{}, fmt.Errorf("%s pass: %w", kind, err)
	}
	o := outcome{traced: traced}
	if err := json.Unmarshal(lastLine(out.Bytes()), &o.passResult); err != nil {
		return outcome{}, fmt.Errorf("%s pass result: %w", kind, err)
	}
	o.setupS = float64(o.StartedUnixNano-launched.UnixNano())/1e9 + o.BuildS
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		o.peakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return o, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// drive repeats passes while another one still fits in the budget and
// prints the result.
func drive(w workload, seed uint64, budget time.Duration, traced bool, stdout io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	start := time.Now()
	var plain, tracedRuns []outcome
	for i := 0; ; i++ {
		passStart := time.Now()
		o, err := spawn(exe, w, seed, traced && i%2 == 1)
		if err != nil {
			return err
		}
		if o.traced {
			tracedRuns = append(tracedRuns, o)
		} else {
			plain = append(plain, o)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s pass %d traced=%v wall=%.3fs cpu=%.3fs setup=%.4fs rss=%.1fMiB failed=%d/%d %s\n",
			w.name, i, o.traced, o.WallS, o.CPUS, o.setupS, o.peakRSSMB, o.Failed, o.Attempted, o.CheckErr)
		enough := len(plain) >= minPlainPasses && (!traced || len(tracedRuns) > 0)
		if enough && time.Since(start)+time.Since(passStart) > budget {
			break
		}
	}
	res := summarize(plain, tracedRuns, traced)
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// summarize folds the passes of one run into the printed result.
func summarize(plain, traced []outcome, perLayer bool) result {
	all := append(append([]outcome(nil), plain...), traced...)
	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, o := range all {
		res.Attempted += o.Attempted
		res.Failed += o.Failed
		if o.CheckErr != "" {
			res.Correct = false
		}
	}
	if err := sameDet(all); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.Correct = false
		res.Failed = res.Attempted
	}
	pick := func(outs []outcome, f func(outcome) float64) float64 {
		xs := make([]float64, len(outs))
		for i, o := range outs {
			xs[i] = f(o)
		}
		return median(xs)
	}
	if !perLayer {
		for _, m := range endToEndMetrics {
			res.Metrics[m.name] = metric{pick(plain, func(o outcome) float64 { return o.endToEnd(m.name) }), m.unit}
		}
		return res
	}
	for _, m := range perLayerMetrics {
		res.Metrics[m.name] = metric{pick(traced, func(o outcome) float64 { return o.Layer[m.name] }), m.unit}
	}
	// Tracing overhead: traced minus plain medians.
	overhead := func(name string) float64 {
		f := func(o outcome) float64 { return o.endToEnd(name) }
		return pick(traced, f) - pick(plain, f)
	}
	res.Metrics["trace.overhead_wall_s"] = metric{overhead("run_wall_s"), "s"}
	res.Metrics["trace.overhead_cpu_s"] = metric{overhead("cpu_s"), "s"}
	return res
}

// sameDet is the determinism and transparency check: every pass of one
// seed, traced or plain, must report identical deterministic quantities.
func sameDet(all []outcome) error {
	if len(all) == 0 {
		return errors.New("no passes")
	}
	ref := all[0].Det
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, o := range all[1:] {
		if len(o.Det) != len(ref) {
			return fmt.Errorf("pass %d reports %d deterministic quantities, pass 0 %d", i+1, len(o.Det), len(ref))
		}
		for _, k := range keys {
			if v := o.Det[k]; v != ref[k] && !(math.IsNaN(v) && math.IsNaN(ref[k])) {
				return fmt.Errorf("pass %d (traced=%v): %s = %v, pass 0 (traced=%v) has %v",
					i+1, o.traced, k, v, all[0].traced, ref[k])
			}
		}
	}
	return nil
}
