package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"atcsched/internal/core"
	"atcsched/internal/daemon"
	"atcsched/internal/telemetry"
	appworkload "atcsched/internal/workload"
)

// Size of the atcd-hollow world: what `atcd -nodes 256 -hollow
// -periods 20 -jsonl … -snapshot …` runs.
const (
	hollowNodes   = 256
	hollowPeriods = 20
)

// hollowPass composes atcd's hollow fleet mode from public calls: a
// SimBackend of hollow nodes with the telemetry plane attached, a
// one-shard Fleet in closed loop over it, and at exit a snapshot plus a
// JSONL dump. One operation is one node-period decision.
func hollowPass(seed uint64, tr *tracer) (passResult, error) {
	res := passResult{Attempted: hollowNodes * hollowPeriods}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return res, err
	}
	dir, err := os.MkdirTemp(outDir, "atcd-hollow-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	jsonlPath := filepath.Join(dir, "telemetry.jsonl")
	snapPath := filepath.Join(dir, "fleet.snapshot")

	start := time.Now()
	plane := telemetry.New(telemetry.Options{})
	sb, err := daemon.NewSimBackend(daemon.SimBackendConfig{
		Nodes:      hollowNodes,
		Class:      appworkload.ClassB,
		MaxPeriods: hollowPeriods,
		Seed:       seed,
		Telemetry:  plane,
		Hollow:     true,
	})
	if err != nil {
		return res, err
	}
	var src daemon.FleetSource = sb
	var act daemon.FleetActuator = sb
	var m *fleetMeter
	if tr != nil {
		m = newFleetMeter(hollowNodes * hollowPeriods)
		src = &meteredSource{inner: sb, m: m, tr: tr}
		act = &meteredActuator{inner: sb, m: m}
	}
	f := daemon.NewFleet(core.DefaultConfig(), src, act, daemon.FleetOptions{Shards: 1, MaxNodes: hollowNodes})
	defer f.Close()
	f.SetTelemetry(plane.Global(), sb.Now)
	res.BuildS = sinceS(start)

	var (
		snap               []byte
		heapQuarter, heapN float64
		pendingMax         int
		jsonlBytes         int64
		points             int
	)
	err = measure(tr, &res, func() error {
		for k := 0; ; k++ {
			if tr != nil && k == hollowPeriods/4 {
				heapQuarter = liveHeapMB()
			}
			tr.begin("fleet.Step")
			err := f.Step()
			tr.end()
			if daemon.IsDone(err) {
				break
			}
			if err != nil {
				return err
			}
			if m != nil {
				m.stepDone(time.Now())
				pendingMax = max(pendingMax, sb.World.Eng.Pending())
			}
		}
		if tr != nil {
			heapN = liveHeapMB()
		}
		// atcd's exit path: snapshot at the final barrier, then flush
		// the telemetry artifacts.
		tr.begin("daemon.Snapshot")
		var err error
		snap, err = f.Snapshot().Encode()
		tr.end()
		if err != nil {
			return err
		}
		if err := os.WriteFile(snapPath, snap, 0o644); err != nil {
			return err
		}
		sb.FinalizeTelemetry(plane)
		tr.begin("telemetry.Export")
		defer tr.end()
		ts := plane.Snapshot()
		for _, s := range ts.Series {
			points += len(s.Points)
		}
		fh, err := os.Create(jsonlPath)
		if err != nil {
			return err
		}
		if err := telemetry.WriteJSONL(fh, ts); err != nil {
			fh.Close()
			return err
		}
		if st, err := fh.Stat(); err == nil {
			jsonlBytes = st.Size()
		}
		return fh.Close()
	})
	if err != nil {
		res.fail("run: %v", err)
	}

	// Output checks.
	audit := sb.World.Audit()
	decisions := int(f.Decisions())
	res.Failed = max(res.Failed, res.Attempted-decisions+int(f.Overflow()+f.Rejected()))
	switch {
	case res.CheckErr != "":
	case len(audit) > 0:
		res.fail("World.Audit: %d violations, first: %v", len(audit), audit[0])
	case decisions != res.Attempted:
		res.fail("decisions = %d, want nodes × periods = %d", decisions, res.Attempted)
	case f.Err() != nil:
		res.fail("fleet: %v", f.Err())
	default:
		if err := checkJSONL(jsonlPath); err != nil {
			res.fail("%v", err)
		} else if err := checkSnapshotFile(snapPath, snap); err != nil {
			res.fail("%v", err)
		}
	}

	var rounds int
	for _, r := range sb.Runs() {
		rounds += r.Rounds()
	}
	events := float64(sb.World.Executed())
	res.Det = map[string]float64{
		"sim.events":       events,
		"workload.rounds":  float64(rounds),
		"netmodel.packets": float64(sb.World.Fabric.PacketsSent()),
		"daemon.decisions": float64(decisions),
	}
	if tr == nil {
		return res, nil
	}
	var ctx uint64
	for _, n := range sb.World.Nodes() {
		ctx += n.CtxSwitches()
	}
	advance := tr.total("source.SampleFleet")
	for k, v := range res.Det {
		tr.set(k, v)
	}
	tr.set("sim.advance_s", advance.Seconds())
	tr.set("sim.ns_per_event", float64(advance.Nanoseconds())/events)
	tr.set("sim.pending_max", float64(pendingMax))
	tr.set("vmm.ctx_switches", float64(ctx))
	tr.set("vmm.live_heap_growth_mb", heapN-heapQuarter)
	tr.set("vmm.audit_violations", float64(len(audit)))
	tr.set("netmodel.wire_mb", float64(sb.World.Fabric.WireBytes())/1e6)
	tr.set("daemon.stale_skipped", float64(f.Stats().StaleSamples))
	tr.set("daemon.overflow", float64(f.Overflow()))
	tr.set("daemon.snapshot_encode_ms", ms(tr.total("daemon.Snapshot")))
	tr.set("daemon.snapshot_mb", float64(len(snap))/1e6)
	tr.set("telemetry.export_ms", ms(tr.total("telemetry.Export")))
	tr.set("telemetry.jsonl_mb", float64(jsonlBytes)/1e6)
	tr.set("telemetry.points", float64(points))
	tr.set("go.allocs_per_op", tr.allocs()/events)
	m.report(tr)
	return res, nil
}

// checkJSONL verifies that every line of the telemetry dump is a JSON
// object.
func checkJSONL(path string) error {
	fh, err := os.Open(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	lines := 0
	for sc.Scan() {
		lines++
		var v map[string]any
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			return fmt.Errorf("%s line %d: %v", path, lines, err)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if lines < 2 {
		return fmt.Errorf("%s: %d lines, want a meta line and data", path, lines)
	}
	return nil
}

// checkSnapshotFile verifies that the snapshot on disk is the one
// encoded and that it decodes and re-encodes byte-identically.
func checkSnapshotFile(path string, enc []byte) error {
	disk, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if !bytes.Equal(disk, enc) {
		return fmt.Errorf("%s differs from the encoded snapshot", path)
	}
	_, err = roundTrip(enc)
	return err
}

// roundTrip decodes a snapshot and checks that it re-encodes
// byte-identically.
func roundTrip(enc []byte) (*daemon.FleetSnapshot, error) {
	dec, err := daemon.DecodeSnapshot(enc)
	if err != nil {
		return nil, err
	}
	again, err := dec.Encode()
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(again, enc) {
		return nil, fmt.Errorf("snapshot does not re-encode byte-identically")
	}
	return dec, nil
}
