// Command atcsim runs a single ad-hoc scenario: a cluster of nodes under
// a chosen scheduling approach, a set of identical virtual clusters
// running one NPB-like kernel, and optional non-parallel co-tenants. It
// prints per-cluster execution times, spinlock latency, and scheduler
// statistics — a quick way to poke at the simulator without the full
// experiment harness.
//
// Example:
//
//	atcsim -nodes 4 -sched ATC -kernel lu -class B -vcs 4 -rounds 3
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"atcsched/internal/cluster"
	"atcsched/internal/report"
	"atcsched/internal/scenario"
	"atcsched/internal/sched/atc"
	"atcsched/internal/sched/registry"
	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
	"atcsched/internal/vmm"
	"atcsched/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "atcsim:", err)
		os.Exit(1)
	}
}

// run parses args and executes one scenario, writing results to stdout.
// Split from main so tests can drive the whole command in-process.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("atcsim", flag.ContinueOnError)
	var (
		specFile = fs.String("f", "", "run a JSON scenario file instead of the flag-built scenario (see examples/scenarios)")
		list     = fs.Bool("list-schedulers", false, "list every registered scheduling policy with its default options and exit")
		nodes    = fs.Int("nodes", 2, "physical nodes")
		schedArg = fs.String("sched", "ATC", "scheduling policy kind (see -list-schedulers)")
		kernel   = fs.String("kernel", "lu", "NPB kernel: lu, is, sp, bt, mg, cg")
		class    = fs.String("class", "B", "problem class: A, B, C")
		vcs      = fs.Int("vcs", 4, "identical virtual clusters (one VM per node each)")
		vcpus    = fs.Int("vcpus", 8, "VCPUs per VM")
		rounds   = fs.Int("rounds", 3, "measured rounds per cluster")
		slice    = fs.Float64("slice", 0, "fixed time slice in ms (0 = scheduler default)")
		seed     = fs.Uint64("seed", 1, "workload seed")
		horizon  = fs.Float64("horizon", 1200, "virtual-time budget in seconds")
		hogs     = fs.Int("hogs", 0, "CPU-hog non-parallel VMs per node")
		trace    = fs.String("trace", "", "write a scheduling trace: 'summary', 'text:<file>' or 'csv:<file>'")
		traceCap = fs.Int("tracecap", 200000, "max trace records retained (ring)")
		timeline = fs.String("timeline", "", "write a Chrome/Perfetto trace-event timeline to this file")
		jsonlOut = fs.String("jsonl", "", "write the telemetry time-series dump (JSON Lines) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		return listSchedulers(stdout)
	}

	// Either artifact flag attaches the telemetry plane; the timeline
	// additionally needs the scheduling tracer for its PCPU lanes.
	var plane *telemetry.Plane
	if *timeline != "" || *jsonlOut != "" {
		plane = telemetry.New(telemetry.Options{})
	}
	needTracer := func() bool { return *trace != "" || *timeline != "" }

	if *specFile != "" {
		f, err := os.Open(*specFile)
		if err != nil {
			return err
		}
		spec, err := scenario.Load(f)
		f.Close()
		if err != nil {
			return err
		}
		res, err := scenario.Build(spec)
		if err != nil {
			return err
		}
		if plane != nil {
			res.Scenario.Cfg.Telemetry = plane
			res.Scenario.World.SetTelemetry(plane)
		}
		if needTracer() {
			res.Scenario.World.SetTracer(vmm.NewTracer(*traceCap))
		}
		table, err := res.Run()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, table.String())
		if plane != nil {
			res.Scenario.FinalizeTelemetry()
			if err := writeTelemetryArtifacts(*timeline, *jsonlOut, res.Scenario.World, plane); err != nil {
				return err
			}
		}
		if *trace != "" {
			return emitTrace(stdout, res.Scenario.World, *trace)
		}
		return nil
	}

	var cls workload.Class
	switch strings.ToUpper(*class) {
	case "A":
		cls = workload.ClassA
	case "B":
		cls = workload.ClassB
	case "C":
		cls = workload.ClassC
	default:
		return fmt.Errorf("unknown class %q", *class)
	}

	cfg := cluster.DefaultConfig(*nodes, cluster.Approach(strings.ToUpper(*schedArg)))
	cfg.Seed = *seed
	if *slice > 0 {
		cfg.Sched.FixedSlice = sim.FromMillis(*slice)
	}
	cfg.Telemetry = plane
	s, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	if needTracer() {
		s.World.SetTracer(vmm.NewTracer(*traceCap))
	}

	prof := workload.NPB(*kernel, cls)
	var runs []*workload.ParallelRun
	for vc := 0; vc < *vcs; vc++ {
		vms := s.VirtualCluster(fmt.Sprintf("vc%d", vc), *nodes, *vcpus, nil)
		runs = append(runs, s.RunParallel(prof, vms, *rounds, false))
	}
	for n := 0; n < *nodes; n++ {
		for h := 0; h < *hogs; h++ {
			vm := s.IndependentVM(fmt.Sprintf("hog%d-%d", n, h), n, *vcpus, vmm.ClassNonParallel)
			for _, v := range vm.VCPUs() {
				workload.NewCPUJob(v, workload.SPECProfiles()[0])
			}
		}
	}

	wall := time.Now()
	ok := s.Go(sim.FromSeconds(*horizon))
	elapsed := time.Since(wall)

	fmt.Fprintf(stdout, "scenario: %d nodes x %d PCPUs, %d VCs of %d x %d-VCPU VMs, kernel %s, scheduler %s\n",
		*nodes, cfg.Node.PCPUs, *vcs, *nodes, *vcpus, prof.Name, s.World.Node(0).Scheduler().Name())
	if !ok {
		fmt.Fprintln(stdout, "WARNING: horizon exceeded before all clusters finished")
	}
	t := report.New("per-cluster results", "VC", "rounds", "mean exec", "spin latency", "LLC misses")
	for i, r := range runs {
		t.Add(fmt.Sprintf("vc%d", i), report.I(r.Rounds()),
			fmt.Sprintf("%.3fs", r.MeanTime()),
			r.App.SpinLatencyMean().String(),
			report.I(r.App.LLCMisses()))
	}
	fmt.Fprintln(stdout, t.String())

	var ctx, wakes uint64
	for _, n := range s.World.Nodes() {
		ctx += n.CtxSwitches()
		wakes += n.Wakes()
	}
	fmt.Fprintf(stdout, "virtual time %v, context switches %d, wakes %d, packets %d, events %d (wall %v)\n",
		s.World.Now(), ctx, wakes, s.World.Fabric.PacketsSent(), s.World.Executed(), elapsed.Round(time.Millisecond))
	if a, isATC := s.World.Node(0).Scheduler().(*atc.Scheduler); isATC {
		for _, vm := range s.World.Node(0).VMs()[:min(3, len(s.World.Node(0).VMs()))] {
			fmt.Fprintf(stdout, "node0 %s: final ATC slice %v\n", vm.Name(), a.CurrentSlice(vm))
		}
	}
	if plane != nil {
		s.FinalizeTelemetry()
		if err := writeTelemetryArtifacts(*timeline, *jsonlOut, s.World, plane); err != nil {
			return err
		}
	}
	if *trace != "" {
		return emitTrace(stdout, s.World, *trace)
	}
	return nil
}

// writeTelemetryArtifacts flushes the -timeline and -jsonl outputs
// (empty paths are skipped).
func writeTelemetryArtifacts(timeline, jsonl string, w *vmm.World, plane *telemetry.Plane) error {
	if timeline != "" {
		f, err := os.Create(timeline)
		if err != nil {
			return err
		}
		err = telemetry.WriteTimeline(f, w.TelemetryEvents(), plane.Snapshot())
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("timeline: %w", err)
		}
	}
	if jsonl != "" {
		f, err := os.Create(jsonl)
		if err != nil {
			return err
		}
		err = telemetry.WriteJSONL(f, plane.Snapshot())
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("jsonl: %w", err)
		}
	}
	return nil
}

// listSchedulers prints every registered policy — the paper's comparison
// set in presentation order, then extensions, then the rest — with its
// description and default options as the JSON accepted by scenario files.
func listSchedulers(stdout io.Writer) error {
	seen := map[string]bool{}
	var kinds []string
	for _, a := range cluster.ExtendedApproaches() {
		kinds = append(kinds, string(a))
		seen[string(a)] = true
	}
	for _, k := range registry.Kinds() {
		if !seen[k] {
			kinds = append(kinds, k)
		}
	}
	for _, k := range kinds {
		d, ok := registry.Lookup(k)
		if !ok {
			return registry.UnknownKindError(k)
		}
		fmt.Fprintf(stdout, "%s\t%s\n", d.Kind, d.Description)
		opts, err := json.MarshalIndent(d.Defaults(), "  ", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  defaults: %s\n", opts)
	}
	return nil
}

// emitTrace renders the collected trace per the -trace spec.
func emitTrace(stdout io.Writer, w *vmm.World, spec string) error {
	switch {
	case spec == "summary":
		fmt.Fprint(stdout, w.TraceSummary())
		return nil
	case strings.HasPrefix(spec, "text:"):
		f, err := os.Create(strings.TrimPrefix(spec, "text:"))
		if err != nil {
			return err
		}
		defer f.Close()
		return w.WriteTrace(f)
	case strings.HasPrefix(spec, "csv:"):
		f, err := os.Create(strings.TrimPrefix(spec, "csv:"))
		if err != nil {
			return err
		}
		defer f.Close()
		return w.WriteTraceCSV(f)
	default:
		return fmt.Errorf("unknown -trace spec %q (summary | text:<file> | csv:<file>)", spec)
	}
}
