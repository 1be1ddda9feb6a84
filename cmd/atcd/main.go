// Command atcd is a userspace Adaptive Time-slice Control daemon
// prototype. The paper implements ATC inside Xen's scheduler; this
// daemon runs the identical control law (internal/core) in userspace
// against pluggable latency sources and slice actuators — the deployment
// shape available without hypervisor modifications.
//
// Every backend runs the same control loop, the sharded fleet control
// plane (internal/daemon.Fleet), which decides per node:
//
//	-backend demo    synthesize a contention episode on one node and
//	                 print the control trajectory (default)
//	-backend stdio   one node; one period per input line group: lines of
//	                 "<vmID> <avg-latency-us> <parallel:0|1> [admin-us]"
//	                 terminated by "--"; emits "vm<N> <slice>us" lines
//	-backend sim     close the loop against a live simulated cluster
//	                 (2 nodes unless -nodes is set): the daemon samples
//	                 real spinlock latencies from the simulator and
//	                 actuates each node's scheduler slices
//
// Fleet shape and state:
//
//	-nodes N         simulate N nodes (implies -backend sim)
//	-shards S        shard the per-node controller state S ways
//	-hollow          sim: kubemark-style hollow nodes (one light VM each)
//	-snapshot f.json write a control-plane snapshot at exit
//	-restore f.json  resume from a snapshot written by -snapshot
//
// Observability:
//
//	-listen addr     serve Prometheus text exposition on /metrics and a
//	                 JSON state snapshot on /debug/atc; the process keeps
//	                 serving after the control loop ends until SIGINT or
//	                 SIGTERM arrives (clean shutdown either way)
//	-timeline f.json sim: write a Chrome/Perfetto trace-event timeline
//	-jsonl f.jsonl   sim: write the telemetry time-series dump
//
// Example:
//
//	printf '1 2000 1\n--\n1 4000 1\n--\n' | atcd -backend stdio
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"atcsched/internal/core"
	"atcsched/internal/daemon"
	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
	"atcsched/internal/vmm"
	"atcsched/internal/workload"
)

// timelineTraceCap bounds each node's trace ring attached for -timeline.
const timelineTraceCap = 200000

// listenReady, when set (tests), receives the bound listen address once
// the HTTP surface is up.
var listenReady func(addr string)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "atcd:", err)
		os.Exit(1)
	}
}

// run is main with its environment injected, so tests drive the whole
// daemon — flags, signals, HTTP surface, artifact flush — in-process.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("atcd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		backend   = fs.String("backend", "demo", "demo | stdio | sim")
		defSlice  = fs.Float64("default", 30, "default slice in ms")
		threshold = fs.Float64("min", 0.3, "minimum slice threshold in ms")
		alpha     = fs.Float64("alpha", 6, "coarse adjustment step in ms")
		beta      = fs.Float64("beta", 0.3, "fine adjustment step in ms")
		periods   = fs.Int("periods", 40, "demo/sim: number of control periods")
		swap      = fs.String("swap", "", `sim: scheduled policy switches "period:node:KIND[,...]" (node -1 = all), e.g. "10:-1:ATC"`)
		nodes     = fs.Int("nodes", 0, "simulate this many nodes (implies -backend sim; 0 = the sim default of 2)")
		shards    = fs.Int("shards", 0, "decider/applier shard count (default 1)")
		hollow    = fs.Bool("hollow", false, "sim: hollow kubemark-style nodes — one light VM per node")
		snapshot  = fs.String("snapshot", "", "write a control-plane snapshot to this file at exit")
		restore   = fs.String("restore", "", "restore control-plane state from this snapshot file at start")
		listen    = fs.String("listen", "", "serve /metrics and /debug/atc on this address (e.g. :9090)")
		timeline  = fs.String("timeline", "", "sim: write a Chrome/Perfetto timeline to this file at exit")
		jsonl     = fs.String("jsonl", "", "sim: write the telemetry JSONL dump to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := core.Config{
		Default:      sim.FromMillis(*defSlice),
		MinThreshold: sim.FromMillis(*threshold),
		Alpha:        sim.FromMillis(*alpha),
		Beta:         sim.FromMillis(*beta),
		Window:       3,
	}
	if err := cfg.Validate(); err != nil {
		return err
	}

	if *nodes > 0 {
		if *backend == "stdio" {
			return fmt.Errorf("-nodes requires the sim backend, not %q", *backend)
		}
		*backend = "sim"
	}

	// Any observability output needs the telemetry plane; the fleet and
	// (for -backend sim) the simulated world publish into it.
	var plane *telemetry.Plane
	if *listen != "" || *timeline != "" || *jsonl != "" {
		plane = telemetry.New(telemetry.Options{})
	}

	// demo and stdio drive one node; sim drives every simulated node.
	var (
		src      daemon.FleetSource
		act      daemon.FleetActuator = daemon.WriterActuator{W: stdout}
		sb       *daemon.SimBackend
		maxNodes = 1
		clock    func() sim.Time
	)
	switch *backend {
	case "demo":
		src = demoSource(*periods)
	case "stdio":
		src = &stdioSource{r: bufio.NewScanner(os.Stdin)}
	case "sim":
		switches, err := parseSwitches(*swap)
		if err != nil {
			return err
		}
		sb, err = daemon.NewSimBackend(daemon.SimBackendConfig{
			Nodes:      *nodes,
			Class:      workload.ClassB,
			MaxPeriods: *periods,
			Switches:   switches,
			Telemetry:  plane,
			Hollow:     *hollow,
		})
		if err != nil {
			return err
		}
		if *timeline != "" {
			// The timeline merges scheduling events with telemetry spans;
			// the world's clock has not advanced yet, so attaching the
			// tracer here still captures the whole run.
			sb.World.SetTracer(vmm.NewTracer(timelineTraceCap))
		}
		src, act = sb, sb
		maxNodes = len(sb.World.Nodes())
		clock = sb.Now
	default:
		return fmt.Errorf("unknown backend %q", *backend)
	}
	f := daemon.NewFleet(cfg, src, act, daemon.FleetOptions{Shards: *shards, MaxNodes: maxNodes})
	defer f.Close()
	if plane != nil {
		f.SetTelemetry(plane.Global(), clock)
	}
	if *restore != "" {
		if err := restoreFleet(f, *restore); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "atcd: restored %d nodes from %s (%d skipped)\n",
			f.RestoredNodes(), *restore, f.SkippedRestoreNodes())
	}

	// SIGINT/SIGTERM stop the control loop at its next period boundary
	// and, once the loop has returned and artifacts are flushed, end the
	// process cleanly (the HTTP surface shuts down gracefully).
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	loopDone := make(chan struct{})
	interrupted := make(chan struct{})
	go func() {
		select {
		case <-sigc:
			close(interrupted)
			f.Stop()
		case <-loopDone:
		}
	}()

	var srv *http.Server
	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		srv = &http.Server{Handler: telemetry.Handler(plane.Snapshot, func() map[string]any {
			table := f.Table()
			if sb != nil {
				policies := sb.NodePolicies()
				for i := range table {
					if n := table[i].Node; n >= 0 && n < len(policies) {
						table[i].Policy = policies[n]
					}
				}
			}
			return map[string]any{
				"fleet": f.Summary(),
				"nodes": table,
			}
		})}
		fmt.Fprintf(stderr, "atcd: serving telemetry on http://%s\n", ln.Addr())
		if listenReady != nil {
			listenReady(ln.Addr().String())
		}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
	}

	runErr := f.Run()
	close(loopDone)
	if runErr != nil && !daemon.IsDone(runErr) {
		return runErr
	}
	fmt.Fprintf(stderr, "atcd: %d control periods executed (fleet of %d nodes, %d decisions applied)\n",
		f.Periods(), len(f.Nodes()), f.Decisions())

	// The snapshot is taken at the final period barrier (all queues
	// drained), so it is deterministic.
	if *snapshot != "" {
		snap := f.Snapshot()
		enc, err := snap.Encode()
		if err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		if err := os.WriteFile(*snapshot, enc, 0o644); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		fmt.Fprintf(stderr, "atcd: snapshot of %d nodes written to %s\n", len(snap.Nodes), *snapshot)
	}
	if sb != nil {
		sb.FinalizeTelemetry(plane)
		var rounds int
		for _, r := range sb.Runs() {
			rounds += r.Rounds()
		}
		fmt.Fprintf(stdout, "sim backend: %d application rounds completed in %v of virtual time\n",
			rounds, sb.World.Now())
	}
	if err := flushArtifacts(*timeline, *jsonl, plane, sb); err != nil {
		return err
	}
	if srv != nil {
		// Keep answering scrapes until asked to stop, then drain.
		select {
		case <-interrupted:
		case <-sigc:
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			return err
		}
		fmt.Fprintln(stderr, "atcd: telemetry server closed")
	}
	return nil
}

// restoreFleet loads the snapshot file at path into f.
func restoreFleet(f *daemon.Fleet, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	snap, err := daemon.DecodeSnapshot(raw)
	if err != nil {
		return fmt.Errorf("restore %s: %w", path, err)
	}
	if err := f.Restore(snap); err != nil {
		return fmt.Errorf("restore %s: %w", path, err)
	}
	return nil
}

// flushArtifacts writes the -timeline and -jsonl outputs (no-ops when
// the flags are unset).
func flushArtifacts(timeline, jsonl string, plane *telemetry.Plane, sb *daemon.SimBackend) error {
	if timeline != "" {
		var events []telemetry.SchedEvent
		if sb != nil {
			events = sb.World.TelemetryEvents()
		}
		if err := writeFileWith(timeline, func(w io.Writer) error {
			return telemetry.WriteTimeline(w, events, plane.Snapshot())
		}); err != nil {
			return fmt.Errorf("timeline: %w", err)
		}
	}
	if jsonl != "" {
		if err := writeFileWith(jsonl, func(w io.Writer) error {
			return telemetry.WriteJSONL(w, plane.Snapshot())
		}); err != nil {
			return fmt.Errorf("jsonl: %w", err)
		}
	}
	return nil
}

// writeFileWith streams fn's output into path.
func writeFileWith(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseSwitches parses the -swap flag: comma-separated
// "period:node:KIND" triples.
func parseSwitches(s string) ([]daemon.PolicySwitch, error) {
	if s == "" {
		return nil, nil
	}
	var out []daemon.PolicySwitch
	for _, part := range strings.Split(s, ",") {
		f := strings.Split(strings.TrimSpace(part), ":")
		if len(f) != 3 {
			return nil, fmt.Errorf("bad -swap entry %q (want period:node:KIND)", part)
		}
		period, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("bad -swap period %q", f[0])
		}
		node, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("bad -swap node %q", f[1])
		}
		out = append(out, daemon.PolicySwitch{AtPeriod: period, Node: node, Kind: f[2]})
	}
	return out, nil
}

// demoSource synthesizes a parallel VM going through idle → rising
// contention → decay → idle, next to a non-parallel neighbour.
func demoSource(periods int) daemon.FleetSource {
	var ps [][]daemon.VMSample
	for i := 0; i < periods; i++ {
		var lat sim.Time
		switch {
		case i < 5: // idle
		case i < periods/2: // rising contention
			lat = sim.Time(i-4) * 2 * sim.Millisecond
		case i < periods*3/4: // decaying
			lat = sim.Time(periods-i) * sim.Millisecond
		default: // idle again
		}
		ps = append(ps, []daemon.VMSample{
			{ID: 1, AvgSpinLatency: lat, Parallel: true},
			{ID: 2, Parallel: false},
		})
	}
	return &daemon.SliceSource{Periods: ps}
}

// stdioSource parses period groups from stdin as node 0's batches.
type stdioSource struct {
	r *bufio.Scanner
}

// SampleFleet implements daemon.FleetSource. A read error — including a
// line longer than the scanner's buffer — ends the run with that error
// rather than passing for a clean end of input.
func (s *stdioSource) SampleFleet() ([]daemon.NodeBatch, error) {
	var out []daemon.VMSample
	for s.r.Scan() {
		line := strings.TrimSpace(s.r.Text())
		if line == "" {
			continue
		}
		if line == "--" {
			return []daemon.NodeBatch{{Node: 0, Samples: out}}, nil
		}
		f := strings.Fields(line)
		if len(f) < 3 {
			return nil, fmt.Errorf("bad input line %q (want: id latency-us parallel [admin-us])", line)
		}
		id, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("bad vm id %q", f[0])
		}
		latUS, err := strconv.ParseFloat(f[1], 64)
		if err != nil || latUS < 0 {
			return nil, fmt.Errorf("bad latency %q", f[1])
		}
		par := f[2] == "1" || strings.EqualFold(f[2], "true")
		vs := daemon.VMSample{
			ID:             id,
			AvgSpinLatency: sim.Time(latUS * float64(sim.Microsecond)),
			Parallel:       par,
		}
		if len(f) >= 4 {
			adminUS, err := strconv.ParseFloat(f[3], 64)
			if err != nil || adminUS < 0 {
				return nil, fmt.Errorf("bad admin slice %q", f[3])
			}
			vs.AdminSlice = sim.Time(adminUS * float64(sim.Microsecond))
		}
		out = append(out, vs)
	}
	if err := s.r.Err(); err != nil {
		return nil, fmt.Errorf("reading input: %w", err)
	}
	if len(out) > 0 {
		return []daemon.NodeBatch{{Node: 0, Samples: out}}, nil
	}
	return nil, io.EOF
}
