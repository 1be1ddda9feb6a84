package daemon

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"atcsched/internal/core"
	"atcsched/internal/sim"
)

func ms(f float64) sim.Time { return sim.Time(f * float64(sim.Millisecond)) }

// sliceFleet builds a 1-node fleet that replays periods through act
// under the given per-node options.
func sliceFleet(t *testing.T, periods [][]VMSample, act FleetActuator, opts Options) *Fleet {
	t.Helper()
	f := NewFleet(core.DefaultConfig(), &SliceSource{Periods: periods}, act, FleetOptions{Node: opts})
	t.Cleanup(f.Close)
	return f
}

func TestDaemonShortensUnderRisingLatency(t *testing.T) {
	var periods [][]VMSample
	lat := sim.Time(0)
	for i := 0; i < 10; i++ {
		lat += ms(1)
		periods = append(periods, []VMSample{
			{ID: 1, AvgSpinLatency: lat, Parallel: true},
			{ID: 2, Parallel: false},
		})
	}
	act := &MapActuator{}
	f := sliceFleet(t, periods, act, Options{})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if f.Decisions() != 10 {
		t.Errorf("decisions = %d", f.Decisions())
	}
	if got := act.Last[0][1]; got >= ms(30) {
		t.Errorf("parallel slice = %v, want shortened", got)
	}
	if got := act.Last[0][2]; got != ms(30) {
		t.Errorf("non-parallel slice = %v, want default", got)
	}
	if act.Applies != 10 {
		t.Errorf("applies = %d", act.Applies)
	}
}

func TestDaemonRespectsAdminSlice(t *testing.T) {
	periods := [][]VMSample{
		{{ID: 1, Parallel: false, AdminSlice: ms(6)}},
	}
	act := &MapActuator{}
	if err := sliceFleet(t, periods, act, Options{}).Run(); err != nil {
		t.Fatal(err)
	}
	if act.Last[0][1] != ms(6) {
		t.Errorf("slice = %v, want admin 6ms", act.Last[0][1])
	}
}

func TestDaemonRecoversOnZeroLatency(t *testing.T) {
	var periods [][]VMSample
	for i := 0; i < 6; i++ {
		periods = append(periods, []VMSample{{ID: 1, AvgSpinLatency: ms(float64(6 - i)), Parallel: true}})
	}
	for i := 0; i < 40; i++ {
		periods = append(periods, []VMSample{{ID: 1, AvgSpinLatency: 0, Parallel: true}})
	}
	act := &MapActuator{}
	if err := sliceFleet(t, periods, act, Options{}).Run(); err != nil {
		t.Fatal(err)
	}
	if act.Last[0][1] != ms(30) {
		t.Errorf("slice = %v, want recovered to default", act.Last[0][1])
	}
}

func TestWriterActuatorFormat(t *testing.T) {
	var buf bytes.Buffer
	act := WriterActuator{W: &buf}
	if err := act.ApplyNode(0, map[int]sim.Time{2: ms(6), 1: ms(30)}); err != nil {
		t.Fatal(err)
	}
	want := "vm1 30000us\nvm2 6000us\n--\n"
	if buf.String() != want {
		t.Errorf("output = %q, want %q", buf.String(), want)
	}
}

func TestSliceSourceEOF(t *testing.T) {
	src := &SliceSource{Periods: [][]VMSample{{}}}
	batches, err := src.SampleFleet()
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 1 || batches[0].Node != 0 {
		t.Errorf("batches = %+v, want one (empty) batch for node 0", batches)
	}
	if _, err := src.SampleFleet(); err != io.EOF {
		t.Errorf("err = %v, want EOF", err)
	}
}

func TestNewPanicsOnNil(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil actuator accepted")
		}
	}()
	NewFleet(core.DefaultConfig(), &SliceSource{}, nil, FleetOptions{})
}

func TestDaemonEndToEndTrace(t *testing.T) {
	// A full trajectory through the WriterActuator: contention phase then
	// quiet phase; the rendered trace must show the slice walking down
	// and back up.
	var periods [][]VMSample
	for i := 0; i < 8; i++ {
		periods = append(periods, []VMSample{{ID: 7, AvgSpinLatency: ms(float64(i + 1)), Parallel: true}})
	}
	for i := 0; i < 40; i++ {
		periods = append(periods, []VMSample{{ID: 7, AvgSpinLatency: 0, Parallel: true}})
	}
	var buf bytes.Buffer
	if err := sliceFleet(t, periods, WriterActuator{W: &buf}, Options{}).Run(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	if !strings.Contains(buf.String(), "vm7 24000us") {
		t.Errorf("trace missing first α step:\n%s", strings.Join(lines[:10], "\n"))
	}
	if lines[len(lines)-3] != "vm7 30000us" {
		t.Errorf("final slice line = %q, want recovery to 30ms", lines[len(lines)-3])
	}
}
