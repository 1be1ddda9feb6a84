package main

import (
	"sync"
	"time"

	"atcsched/internal/daemon"
	"atcsched/internal/sim"
)

// fleetMeter times the fleet pipeline from outside, through its
// FleetSource and FleetActuator. The source side (Step's goroutine)
// stamps when each period's batches were due and when they were
// released; the actuator side (the fleet's applier goroutines) stamps
// when each ApplyNode returned.
type fleetMeter struct {
	mu sync.Mutex

	due, released time.Time // the current period
	firstApply    time.Time
	periodApplies int

	latency []time.Duration // due → ApplyNode returned, one per decision
	drain   []time.Duration // released → Step returned, one per period
	first   []time.Duration // released → first ApplyNode returned
	genLag  []time.Duration // released − due
	service []float64       // drain ns per decision of the period

	applyBusy     time.Duration // time spent inside the wrapped ApplyNode
	applies, noop int
	last          map[int][]vmSlice // each node's previous actuation
}

type vmSlice struct {
	vm int
	sl sim.Time
}

// newFleetMeter sizes the latency log for the decisions expected.
func newFleetMeter(decisions int) *fleetMeter {
	return &fleetMeter{latency: make([]time.Duration, 0, decisions), last: map[int][]vmSlice{}}
}

// release records that a period's batches, due at due, left the
// source at at.
func (m *fleetMeter) release(due, at time.Time) {
	m.mu.Lock()
	m.due, m.released = due, at
	m.genLag = append(m.genLag, at.Sub(due))
	m.mu.Unlock()
}

// applied records one ApplyNode call that ran from start to end.
func (m *fleetMeter) applied(node int, slices map[int]sim.Time, start, end time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.periodApplies == 0 {
		m.firstApply = end
	}
	m.periodApplies++
	m.applies++
	m.applyBusy += end.Sub(start)
	m.latency = append(m.latency, end.Sub(m.due))
	prev := m.last[node]
	same := len(prev) == len(slices)
	for _, p := range prev {
		if sl, ok := slices[p.vm]; !ok || sl != p.sl {
			same = false
		}
	}
	if same {
		m.noop++
		return
	}
	prev = prev[:0]
	for vm, sl := range slices {
		prev = append(prev, vmSlice{vm, sl})
	}
	m.last[node] = prev
}

// stepDone closes the period when Step returned at at.
func (m *fleetMeter) stepDone(at time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := at.Sub(m.released)
	m.drain = append(m.drain, d)
	if m.periodApplies > 0 {
		m.first = append(m.first, m.firstApply.Sub(m.released))
		m.service = append(m.service, float64(d)/float64(m.periodApplies))
	}
	m.periodApplies = 0
}

// report writes the daemon-layer metrics into tr.
func (m *fleetMeter) report(tr *tracer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	tr.set("daemon.decision_p50_ms", durQuantileMS(m.latency, 0.50))
	tr.set("daemon.decision_p99_ms", durQuantileMS(m.latency, 0.99))
	tr.set("daemon.drain_ms_p50", durQuantileMS(m.drain, 0.50))
	tr.set("daemon.drain_ms_p99", durQuantileMS(m.drain, 0.99))
	tr.set("daemon.first_apply_us", 1000*durQuantileMS(m.first, 0.50))
	tr.set("daemon.service_ns", median(m.service))
	tr.set("daemon.gen_lag_ms_p99", durQuantileMS(m.genLag, 0.99))
	tr.set("daemon.apply_s", m.applyBusy.Seconds())
	if m.applies > 0 {
		tr.set("daemon.noop_apply_ratio", float64(m.noop)/float64(m.applies))
	}
}

// meteredSource wraps a closed-loop source: a batch is due the moment
// the source returns it.
type meteredSource struct {
	inner daemon.FleetSource
	m     *fleetMeter
	tr    *tracer
}

func (s *meteredSource) SampleFleet() ([]daemon.NodeBatch, error) {
	s.tr.begin("source.SampleFleet")
	b, err := s.inner.SampleFleet()
	s.tr.end()
	if err == nil {
		now := time.Now()
		s.m.release(now, now)
	}
	return b, err
}

// meteredActuator times every ApplyNode of the wrapped actuator.
type meteredActuator struct {
	inner daemon.FleetActuator
	m     *fleetMeter
}

func (a *meteredActuator) ApplyNode(node int, slices map[int]sim.Time) error {
	start := time.Now()
	err := a.inner.ApplyNode(node, slices)
	a.m.applied(node, slices, start, time.Now())
	return err
}
