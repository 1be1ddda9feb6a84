package vmm

import (
	"fmt"
	"io"
	"sort"

	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
)

// TraceKind labels a scheduling trace record.
type TraceKind int

// Trace record kinds.
const (
	// TraceDispatch: a VCPU started running on a PCPU.
	TraceDispatch TraceKind = iota
	// TracePreempt: a VCPU lost its PCPU (slice end or tickle).
	TracePreempt
	// TraceBlock: a VCPU blocked (I/O, message, timer, idle).
	TraceBlock
	// TraceWake: a blocked VCPU became runnable.
	TraceWake
	// TraceSliceChange: a scheduler changed a VM's slice (ATC/DSS).
	TraceSliceChange
	// TraceSwap: the node's scheduling policy was replaced at a period
	// boundary (Node.SwapScheduler).
	TraceSwap
)

// String returns the record kind name.
func (k TraceKind) String() string {
	switch k {
	case TraceDispatch:
		return "dispatch"
	case TracePreempt:
		return "preempt"
	case TraceBlock:
		return "block"
	case TraceWake:
		return "wake"
	case TraceSliceChange:
		return "slice"
	case TraceSwap:
		return "swap"
	default:
		return fmt.Sprintf("TraceKind(%d)", int(k))
	}
}

// TraceRecord is one scheduling event.
type TraceRecord struct {
	At   sim.Time
	Kind TraceKind
	Node int
	// PCPU is the core index (-1 when not applicable).
	PCPU int
	// VM/VCPU identify the subject ("" / -1 when not applicable).
	VM   string
	VCPU int
	// Arg carries kind-specific data: the slice for TraceSliceChange.
	Arg sim.Time
}

// String renders one record as a stable single line.
func (r TraceRecord) String() string {
	switch r.Kind {
	case TraceSliceChange:
		return fmt.Sprintf("%-12v node%d %-8s vm=%s slice=%v", r.At, r.Node, r.Kind, r.VM, r.Arg)
	default:
		return fmt.Sprintf("%-12v node%d %-8s pcpu=%d vcpu=%s/%d", r.At, r.Node, r.Kind, r.PCPU, r.VM, r.VCPU)
	}
}

// Tracer configures scheduling tracing. Attach one to a World with
// World.SetTracer before Start; a nil tracer (the default) costs one
// branch per event. The tracer passed in is a template: each node
// records into its own ring of the same capacity, and the world's
// TraceRecords, TraceDropped, WriteTrace, WriteTraceCSV and TraceSummary
// are the read path.
type Tracer struct {
	// Keep bounds memory: once Cap records are stored, older records are
	// dropped (ring). Cap <= 0 means unbounded.
	Cap     int
	records []TraceRecord
	head    int
	dropped uint64
}

// NewTracer returns a tracer bounded to cap records (<= 0: unbounded).
func NewTracer(cap int) *Tracer { return &Tracer{Cap: cap} }

func (t *Tracer) add(r TraceRecord) {
	if t.Cap > 0 && len(t.records) == t.Cap {
		t.records[t.head] = r
		t.head = (t.head + 1) % t.Cap
		t.dropped++
		return
	}
	t.records = append(t.records, r)
}

// retained returns the ring's records in time order.
func (t *Tracer) retained() []TraceRecord {
	out := make([]TraceRecord, 0, len(t.records))
	out = append(out, t.records[t.head:]...)
	out = append(out, t.records[:t.head]...)
	return out
}

// WriteTrace dumps the world's retained trace records as text lines.
func (w *World) WriteTrace(out io.Writer) error {
	for _, r := range w.TraceRecords() {
		if _, err := fmt.Fprintln(out, r.String()); err != nil {
			return err
		}
	}
	return nil
}

// WriteTraceCSV dumps the world's retained trace records as CSV with a
// header.
func (w *World) WriteTraceCSV(out io.Writer) error {
	if _, err := fmt.Fprintln(out, "at_ns,kind,node,pcpu,vm,vcpu,arg_ns"); err != nil {
		return err
	}
	for _, r := range w.TraceRecords() {
		if _, err := fmt.Fprintf(out, "%d,%s,%d,%d,%s,%d,%d\n",
			int64(r.At), r.Kind, r.Node, r.PCPU, r.VM, r.VCPU, int64(r.Arg)); err != nil {
			return err
		}
	}
	return nil
}

// TraceSummary aggregates per-VM dispatch counts and CPU-visible state
// transitions over the world's trace — a quick textual profile of a
// run.
func (w *World) TraceSummary() string {
	type agg struct {
		dispatch, preempt, block, wake int
	}
	per := map[string]*agg{}
	for _, r := range w.TraceRecords() {
		if r.VM == "" {
			continue
		}
		a := per[r.VM]
		if a == nil {
			a = &agg{}
			per[r.VM] = a
		}
		switch r.Kind {
		case TraceDispatch:
			a.dispatch++
		case TracePreempt:
			a.preempt++
		case TraceBlock:
			a.block++
		case TraceWake:
			a.wake++
		}
	}
	names := make([]string, 0, len(per))
	for n := range per {
		names = append(names, n)
	}
	sort.Strings(names)
	out := fmt.Sprintf("%-16s %10s %10s %10s %10s\n", "vm", "dispatches", "preempts", "blocks", "wakes")
	for _, n := range names {
		a := per[n]
		out += fmt.Sprintf("%-16s %10d %10d %10d %10d\n", n, a.dispatch, a.preempt, a.block, a.wake)
	}
	if d := w.TraceDropped(); d > 0 {
		out += fmt.Sprintf("(%d older records dropped by the ring)\n", d)
	}
	return out
}

// trace emits a record if a tracer is attached to the world. Records go
// to the node's own ring (n.trc) so shards never contend on a shared
// tracer.
func (n *Node) trace(kind TraceKind, pcpu int, v *VCPU, arg sim.Time) {
	t := n.trc
	if t == nil {
		return
	}
	r := TraceRecord{At: n.eng.Now(), Kind: kind, Node: n.id, PCPU: pcpu, VCPU: -1}
	if v != nil {
		r.VM = v.vm.name
		r.VCPU = v.idx
	}
	r.Arg = arg
	t.add(r)
}

// traceVM emits a VM-level record (slice changes).
func (n *Node) traceVM(kind TraceKind, vm *VM, arg sim.Time) {
	t := n.trc
	if t == nil {
		return
	}
	t.add(TraceRecord{At: n.eng.Now(), Kind: kind, Node: n.id, PCPU: -1, VM: vm.name, VCPU: -1, Arg: arg})
}

// TraceSlice lets schedulers record a slice decision for vm (no-op
// without an attached tracer or telemetry plane).
func (n *Node) TraceSlice(vm *VM, slice sim.Time) {
	n.traceVM(TraceSliceChange, vm, slice)
	if n.tel != nil {
		n.tel.reg.Point("vm_slice_change_ns",
			telemetry.Label{Node: n.id, VM: vm.name}, n.eng.Now(), float64(slice))
	}
}
