package atcsched

// One benchmark per paper artifact: each regenerates the corresponding
// table/figure at the "small" scale and reports simulator throughput
// alongside the standard testing.B metrics, so
//
//	go test -bench=. -benchmem
//
// exercises the entire reproduction pipeline. The ablation benchmarks at
// the bottom quantify the design choices DESIGN.md calls out (minimum
// slice clamp, node-level minimum, boost, stealing).

import (
	"fmt"
	"testing"
	"time"

	"atcsched/internal/cluster"
	"atcsched/internal/experiment"
	"atcsched/internal/rng"
	"atcsched/internal/sched/atc"
	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
	"atcsched/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiment.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		// A fixed seed keeps runs deterministic; figures 12-14 share one
		// memoized scenario per (scale, seed), which is exactly how the
		// CLI regenerates them too.
		tables, err := e.Run(experiment.Small, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no tables produced")
		}
	}
}

func BenchmarkFig1(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkEuclid(b *testing.B) { benchExperiment(b, "euclid") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "tab1") }

// BenchmarkEngineEventThroughput measures pure event-queue churn — the
// simulator's innermost hot path — in isolation: a self-perpetuating
// population of events with pseudorandom delays, plus a cancel every
// eighth firing to exercise mid-heap removal and the free list. It
// reports steady-state allocations (should be ~0 thanks to event
// recycling) and events per wall-clock second, so heap and pooling
// changes are measurable without running a whole scenario.
func BenchmarkEngineEventThroughput(b *testing.B) {
	eng := sim.New()
	src := rng.New(1)
	const outstanding = 512
	budget := b.N
	var churn func()
	churn = func() {
		if budget <= 0 {
			return
		}
		budget--
		h := eng.Schedule(sim.Time(1+src.Intn(1000))*sim.Microsecond, churn)
		if budget%8 == 0 {
			// Cancel-and-replace: exercises remove() from arbitrary slots.
			eng.Cancel(h)
			eng.Schedule(sim.Time(1+src.Intn(1000))*sim.Microsecond, churn)
		}
	}
	for i := 0; i < outstanding; i++ {
		eng.Schedule(sim.Time(1+src.Intn(1000))*sim.Microsecond, churn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	eng.Run()
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(eng.Executed())/elapsed, "events/s")
	}
}

// benchScenario runs one type-A scenario and reports simulated events
// per second — the simulator's own throughput figure.
func benchScenario(b *testing.B, cfg cluster.Config, kernel string) float64 {
	b.Helper()
	var lastMean float64
	var events uint64
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		s, err := cluster.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		prof := workload.NPB(kernel, workload.ClassB)
		prof.Iterations = 8
		var runs []*workload.ParallelRun
		for vc := 0; vc < 4; vc++ {
			vms := s.VirtualCluster(fmt.Sprintf("vc%d", vc), cfg.Nodes, 8, nil)
			runs = append(runs, s.RunParallel(prof, vms, 2, false))
		}
		if !s.Go(1200 * sim.Second) {
			b.Fatal("horizon exceeded")
		}
		var mean float64
		for _, r := range runs {
			mean += r.MeanTime()
		}
		lastMean = mean / float64(len(runs))
		events += s.World.Executed()
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
	return lastMean
}

// BenchmarkSimulatorCR/ATC measure raw simulation throughput under the
// baseline and the contributed scheduler.
func BenchmarkSimulatorCR(b *testing.B) {
	mean := benchScenario(b, cluster.DefaultConfig(2, cluster.CR), "lu")
	b.ReportMetric(mean, "simexec_s")
}

func BenchmarkSimulatorATC(b *testing.B) {
	mean := benchScenario(b, cluster.DefaultConfig(2, cluster.ATC), "lu")
	b.ReportMetric(mean, "simexec_s")
}

// benchTelemetry is benchScenario's type-A workload with the telemetry
// plane attached or detached, reporting ns/event so the disabled cost
// compares directly against the recorded pre-telemetry baseline.
func benchTelemetry(b *testing.B, instrumented bool) {
	b.Helper()
	var events uint64
	for i := 0; i < b.N; i++ {
		cfg := cluster.DefaultConfig(2, cluster.CR)
		cfg.Seed = uint64(i + 1)
		if instrumented {
			cfg.Telemetry = telemetry.New(telemetry.Options{})
		}
		s, err := cluster.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		prof := workload.NPB("lu", workload.ClassB)
		prof.Iterations = 8
		for vc := 0; vc < 4; vc++ {
			vms := s.VirtualCluster(fmt.Sprintf("vc%d", vc), cfg.Nodes, 8, nil)
			s.RunParallel(prof, vms, 2, false)
		}
		if !s.Go(1200 * sim.Second) {
			b.Fatal("horizon exceeded")
		}
		if instrumented {
			s.FinalizeTelemetry()
		}
		events += s.World.Executed()
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
	if events > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	}
}

// BenchmarkTelemetryDisabledOverhead pins the telemetry plane's
// determinism-path tax: with no plane attached (the default for every
// measurement run) the only additions on the hot path are two counter
// increments, one slice store and nil checks, so ns/event must stay
// within ~2% of the pre-telemetry BenchmarkSimulatorCR baseline
// (BENCH_parallel.json). The enabled variant quantifies the full
// instrumented cost for comparison.
func BenchmarkTelemetryDisabledOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) { benchTelemetry(b, false) })
	b.Run("enabled", func(b *testing.B) { benchTelemetry(b, true) })
}

// --- Ablations -----------------------------------------------------------

// ablATC runs the quickstart scenario under a customized ATC and returns
// the mean execution time.
func ablATC(b *testing.B, mutate func(*atc.Options), kernel string) float64 {
	b.Helper()
	opts := atc.DefaultOptions()
	if mutate != nil {
		mutate(&opts)
	}
	cfg := cluster.DefaultConfig(2, cluster.ATC)
	cfg.Sched.Options = opts
	return benchScenario(b, cfg, kernel)
}

// BenchmarkAblationMinThreshold compares the paper's 0.3 ms clamp with an
// over-shortening controller (threshold 10 µs): §III-B's pathology.
func BenchmarkAblationMinThreshold(b *testing.B) {
	b.Run("clamp0.3ms", func(b *testing.B) {
		b.ReportMetric(ablATC(b, nil, "lu"), "simexec_s")
	})
	b.Run("clamp10us", func(b *testing.B) {
		b.ReportMetric(ablATC(b, func(o *atc.Options) {
			o.Control.MinThreshold = 10 * sim.Microsecond
			o.Control.Beta = 30 * sim.Microsecond
		}, "lu"), "simexec_s")
	})
}

// BenchmarkAblationWindow compares the paper's 3-period trend window with
// a long window (slower reaction).
func BenchmarkAblationWindow(b *testing.B) {
	for _, w := range []int{3, 8} {
		w := w
		b.Run(fmt.Sprintf("window%d", w), func(b *testing.B) {
			b.ReportMetric(ablATC(b, func(o *atc.Options) { o.Control.Window = w }, "lu"), "simexec_s")
		})
	}
}

// BenchmarkAblationAlpha compares coarse-step granularities.
func BenchmarkAblationAlpha(b *testing.B) {
	for _, alphaMS := range []float64{6, 1.5} {
		alphaMS := alphaMS
		b.Run(fmt.Sprintf("alpha%.1fms", alphaMS), func(b *testing.B) {
			b.ReportMetric(ablATC(b, func(o *atc.Options) {
				o.Control.Alpha = sim.FromMillis(alphaMS)
			}, "lu"), "simexec_s")
		})
	}
}

// BenchmarkAblationBoost measures the credit core's wake boosting on the
// CR baseline (off → parallel I/O waits stretch).
func BenchmarkAblationBoost(b *testing.B) {
	for _, boost := range []bool{true, false} {
		boost := boost
		b.Run(fmt.Sprintf("boost=%v", boost), func(b *testing.B) {
			cfg := cluster.DefaultConfig(2, cluster.CR)
			cfg.Sched.DisableBoost = !boost
			b.ReportMetric(benchScenario(b, cfg, "lu"), "simexec_s")
		})
	}
}

// BenchmarkAblationSteal measures work-conserving stealing on CR.
func BenchmarkAblationSteal(b *testing.B) {
	for _, steal := range []bool{true, false} {
		steal := steal
		b.Run(fmt.Sprintf("steal=%v", steal), func(b *testing.B) {
			cfg := cluster.DefaultConfig(2, cluster.CR)
			cfg.Sched.DisableSteal = !steal
			b.ReportMetric(benchScenario(b, cfg, "lu"), "simexec_s")
		})
	}
}
