package daemon_test

import (
	"fmt"

	"atcsched/internal/core"
	"atcsched/internal/daemon"
	"atcsched/internal/sim"
)

// Example runs the control loop — a 1-node fleet — over a three-period
// trace with a mock actuator: the integration shape of a dom0
// deployment.
func Example() {
	src := &daemon.SliceSource{Periods: [][]daemon.VMSample{
		{{ID: 1, AvgSpinLatency: 1 * sim.Millisecond, Parallel: true}},
		{{ID: 1, AvgSpinLatency: 2 * sim.Millisecond, Parallel: true}},
		{{ID: 1, AvgSpinLatency: 3 * sim.Millisecond, Parallel: true}},
	}}
	act := &daemon.MapActuator{}
	f := daemon.NewFleet(core.DefaultConfig(), src, act, daemon.FleetOptions{})
	defer f.Close()
	if err := f.Run(); err != nil {
		panic(err)
	}
	fmt.Printf("periods=%d slice=%v\n", f.Decisions(), act.Last[0][1])
	// Output: periods=3 slice=12.000ms
}
