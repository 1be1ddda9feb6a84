// Package fault is the deterministic fault-injection plane: a seeded,
// scenario-driven schedule of degradations layered onto an otherwise
// healthy simulated cluster. It models the conditions a production
// deployment of the paper's controller would face — straggler nodes
// (PCPU slowdown and freeze windows), a lossy or congested interconnect
// (packet loss, bandwidth degradation), a flaky monitoring path (sample
// dropouts, additive noise, stale readings) and a failing actuator —
// without touching the mechanisms under test. Every fault draw comes
// from streams derived from one explicit seed (one per node, plus one
// for the control plane), so identical (seed, spec) pairs produce
// byte-identical fault schedules and reports.
//
// A Spec is pure data (JSON-serializable, used by scenario files and the
// property-test generator); Compile turns it into a Plan bound to a
// seed, and Plan.Attach installs the hooks on a vmm.World.
package fault

import (
	"fmt"
	"sort"

	"atcsched/internal/sim"
)

// Kind names one injectable fault mechanism.
type Kind string

// The supported fault kinds.
const (
	// PCPUSlow multiplies the execution time of every compute/burn
	// segment started on the window's nodes by Severity (a factor >= 1;
	// default 4) — a straggler node running hot, throttled or oversold.
	PCPUSlow Kind = "pcpu-slow"
	// PCPUFreeze is PCPUSlow with an effectively infinite factor: the
	// window's nodes make (almost) no guest progress — a stalled host.
	PCPUFreeze Kind = "pcpu-freeze"
	// PacketLoss drops each wire transmission leaving the window's nodes
	// with probability Severity (default 0.1); the fabric retransmits
	// after a timeout, so packets arrive late rather than never (the
	// guest-visible semantics of a reliable transport over a lossy link).
	PacketLoss Kind = "packet-loss"
	// Bandwidth scales the NIC line rate of the window's nodes down to
	// the fraction Severity (default 0.5) — congestion or a renegotiated
	// link.
	Bandwidth Kind = "bandwidth"
	// MonitorDrop makes the window's VMs produce no spin-latency sample
	// with probability Severity (default 1) — a monitoring blackout.
	MonitorDrop Kind = "monitor-drop"
	// MonitorNoise adds uniform noise in [0, Severity) milliseconds to
	// the window's VMs' spin-latency samples (default 1 ms).
	MonitorNoise Kind = "monitor-noise"
	// MonitorStale re-reports the previous sample (same sequence number)
	// for the window's VMs with probability Severity (default 1) — a
	// wedged guest agent repeating itself.
	MonitorStale Kind = "monitor-stale"
	// ActuatorFail makes slice actuations fail with probability Severity
	// (default 1) while the window is open — the knob the daemon's retry
	// and give-up machinery is tested against.
	ActuatorFail Kind = "actuator-fail"
	// DaemonCrash takes the control daemon itself down for the window:
	// no sampling, no decisions, no actuations — the fleet control
	// plane's own blackout, which snapshot/restore must ride out. It is
	// binary (no severity) and cluster-wide (no scope), like the daemon
	// it models. Inert for in-sim self-adapting schedulers, which have
	// no daemon to crash.
	DaemonCrash Kind = "daemon-crash"
)

// Kinds returns every supported kind in a fixed order.
func Kinds() []Kind {
	return []Kind{PCPUSlow, PCPUFreeze, PacketLoss, Bandwidth,
		MonitorDrop, MonitorNoise, MonitorStale, ActuatorFail, DaemonCrash}
}

// freezeFactor stands in for "no progress": large enough that a frozen
// segment never completes within any realistic window, small enough that
// scaled durations stay far from the sim.Time range.
const freezeFactor = 1e6

// Window schedules one fault over [StartSec, StartSec+DurSec) of virtual
// time on a subset of the cluster.
type Window struct {
	Kind Kind `json:"kind"`
	// StartSec/DurSec bound the window in seconds of virtual time.
	StartSec float64 `json:"startSec"`
	DurSec   float64 `json:"durSec"`
	// Nodes restricts node-scoped kinds (pcpu-*, packet-loss, bandwidth)
	// to these node indices; empty means every node.
	Nodes []int `json:"nodes,omitempty"`
	// VMs restricts monitor-scoped kinds to these VM ids; empty means
	// every guest VM.
	VMs []int `json:"vms,omitempty"`
	// Severity parameterizes the kind (see the Kind docs); zero selects
	// the kind's default.
	Severity float64 `json:"severity,omitempty"`
}

// Spec is a complete fault schedule: pure data, JSON-round-trippable.
type Spec struct {
	// Seed, when nonzero, seeds the fault plane's probability draws;
	// zero derives the seed from the run's cluster seed so existing
	// scenarios stay reproducible without a new knob.
	Seed    uint64   `json:"seed,omitempty"`
	Windows []Window `json:"windows"`
}

// Resource caps, mirroring the scenario parser's hardening: a hostile or
// fuzzed spec must not allocate unboundedly or schedule absurd horizons.
const (
	maxWindows    = 256
	maxHorizonSec = 864000 // ten days of virtual time
	maxScopeList  = 4096
)

// nodeScoped reports whether k applies per node (vs per VM).
func nodeScoped(k Kind) bool {
	switch k {
	case PCPUSlow, PCPUFreeze, PacketLoss, Bandwidth:
		return true
	}
	return false
}

// monitorScoped reports whether k applies to the monitoring path.
func monitorScoped(k Kind) bool {
	switch k {
	case MonitorDrop, MonitorNoise, MonitorStale:
		return true
	}
	return false
}

// defaultSeverity returns the per-kind default used when Severity is 0.
func defaultSeverity(k Kind) float64 {
	switch k {
	case PCPUSlow:
		return 4
	case PCPUFreeze:
		return freezeFactor
	case PacketLoss:
		return 0.1
	case Bandwidth:
		return 0.5
	default: // monitor-* and actuator-fail: certainty
		return 1
	}
}

// Validate checks the spec against the supported kinds, the resource
// caps and the per-kind severity ranges. nodes bounds the node indices
// (0 disables the range check, for validation before a cluster exists).
func (s *Spec) Validate(nodes int) error {
	if len(s.Windows) > maxWindows {
		return fmt.Errorf("fault: %d windows exceeds cap %d", len(s.Windows), maxWindows)
	}
	for i := range s.Windows {
		w := &s.Windows[i]
		if err := w.validate(nodes); err != nil {
			return fmt.Errorf("fault: window %d: %w", i, err)
		}
	}
	return nil
}

func (w *Window) validate(nodes int) error {
	known := false
	for _, k := range Kinds() {
		if w.Kind == k {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("unknown kind %q (valid: %v)", w.Kind, Kinds())
	}
	if w.StartSec < 0 || w.DurSec <= 0 {
		return fmt.Errorf("window [%v, +%v) must have start >= 0 and positive duration", w.StartSec, w.DurSec)
	}
	if w.StartSec+w.DurSec > maxHorizonSec {
		return fmt.Errorf("window end %vs exceeds horizon cap %ds", w.StartSec+w.DurSec, maxHorizonSec)
	}
	if len(w.Nodes) > maxScopeList || len(w.VMs) > maxScopeList {
		return fmt.Errorf("scope list exceeds cap %d", maxScopeList)
	}
	if len(w.Nodes) > 0 && !nodeScoped(w.Kind) {
		return fmt.Errorf("kind %q does not take a node scope", w.Kind)
	}
	if len(w.VMs) > 0 && !monitorScoped(w.Kind) {
		return fmt.Errorf("kind %q does not take a VM scope", w.Kind)
	}
	for _, n := range w.Nodes {
		if n < 0 || (nodes > 0 && n >= nodes) {
			return fmt.Errorf("node %d out of range [0,%d)", n, nodes)
		}
	}
	for _, id := range w.VMs {
		if id < 0 {
			return fmt.Errorf("negative VM id %d", id)
		}
	}
	sev := w.Severity
	switch w.Kind {
	case PCPUSlow:
		if sev != 0 && (sev < 1 || sev > freezeFactor) {
			return fmt.Errorf("pcpu-slow severity %v must be a factor in [1, %g]", sev, float64(freezeFactor))
		}
	case PCPUFreeze:
		if sev != 0 {
			return fmt.Errorf("pcpu-freeze takes no severity (got %v)", sev)
		}
	case DaemonCrash:
		if sev != 0 {
			return fmt.Errorf("daemon-crash takes no severity (got %v)", sev)
		}
	case Bandwidth:
		if sev != 0 && (sev <= 0 || sev >= 1) {
			return fmt.Errorf("bandwidth severity %v must be a fraction in (0,1)", sev)
		}
	case PacketLoss:
		// Loss of 1 forever would livelock the retransmit path; cap below
		// certainty so every packet eventually clears the window.
		if sev != 0 && (sev < 0 || sev > 0.9) {
			return fmt.Errorf("packet-loss severity %v must be a probability in [0, 0.9]", sev)
		}
	case MonitorNoise:
		if sev < 0 || sev > 1000 {
			return fmt.Errorf("monitor-noise severity %v must be milliseconds in [0, 1000]", sev)
		}
	default: // probabilities
		if sev < 0 || sev > 1 {
			return fmt.Errorf("%s severity %v must be a probability in [0, 1]", w.Kind, sev)
		}
	}
	return nil
}

// Empty reports whether the spec schedules nothing.
func (s *Spec) Empty() bool { return s == nil || len(s.Windows) == 0 }

// window is a compiled Window: times in sim.Time, severity defaulted,
// scopes as sets.
type window struct {
	kind       Kind
	start, end sim.Time
	nodes      map[int]bool // nil = all
	vms        map[int]bool // nil = all
	severity   float64
}

func (w *window) active(now sim.Time) bool { return now >= w.start && now < w.end }

func (w *window) onNode(n int) bool { return w.nodes == nil || w.nodes[n] }

func (w *window) onVM(id int) bool { return w.vms == nil || w.vms[id] }

func compileWindow(src Window) window {
	w := window{
		kind:     src.Kind,
		start:    sim.Time(src.StartSec * float64(sim.Second)),
		end:      sim.Time((src.StartSec + src.DurSec) * float64(sim.Second)),
		severity: src.Severity,
	}
	if w.severity == 0 {
		w.severity = defaultSeverity(src.Kind)
	}
	if src.Kind == PCPUFreeze {
		w.severity = freezeFactor
	}
	if len(src.Nodes) > 0 {
		w.nodes = make(map[int]bool, len(src.Nodes))
		for _, n := range src.Nodes {
			w.nodes[n] = true
		}
	}
	if len(src.VMs) > 0 {
		w.vms = make(map[int]bool, len(src.VMs))
		for _, id := range src.VMs {
			w.vms[id] = true
		}
	}
	return w
}

// Describe renders the compiled schedule deterministically — the "fault
// schedule" half of the determinism contract (same seed + spec ⇒
// byte-identical output).
func (p *Plan) Describe() string {
	out := fmt.Sprintf("fault plan: seed=%d windows=%d\n", p.seed, len(p.windows))
	for i, w := range p.windows {
		scope := "all"
		if w.nodes != nil {
			scope = fmt.Sprintf("nodes=%v", sortedKeys(w.nodes))
		}
		if w.vms != nil {
			scope = fmt.Sprintf("vms=%v", sortedKeys(w.vms))
		}
		out += fmt.Sprintf("  [%d] %s %v..%v %s severity=%g\n", i, w.kind, w.start, w.end, scope, w.severity)
	}
	return out
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
