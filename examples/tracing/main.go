// Tracing: attach a scheduling tracer to a contended run and watch ATC
// walk a parallel VM's slice down, period by period — the control loop
// made visible. Prints the per-VM dispatch/preempt/block/wake summary
// and every slice decision ATC took on node 0.
package main

import (
	"fmt"
	"log"

	"atcsched"
	"atcsched/internal/sim"
	"atcsched/internal/vmm"
)

func main() {
	cfg := atcsched.DefaultScenarioConfig(2, atcsched.ATC)
	cfg.Seed = 9
	s, err := atcsched.NewScenario(cfg)
	if err != nil {
		log.Fatal(err)
	}
	s.World.SetTracer(vmm.NewTracer(500000))

	prof := atcsched.NPBProfile("cg", "B")
	prof.Iterations = 10
	for vc := 0; vc < 4; vc++ {
		s.RunParallel(prof, s.VirtualCluster(fmt.Sprintf("vc%d", vc), 2, 8, nil), 2, false)
	}
	if !s.Go(1200 * sim.Second) {
		log.Fatal("horizon exceeded")
	}

	fmt.Println("ATC slice decisions on node 0 (time, vm, new slice):")
	shown := 0
	for _, r := range s.World.TraceRecords() {
		if r.Kind == vmm.TraceSliceChange && r.Node == 0 && shown < 12 {
			fmt.Printf("  %s\n", r.String())
			shown++
		}
	}
	fmt.Println("\nper-VM scheduling summary:")
	fmt.Print(s.World.TraceSummary())
}
