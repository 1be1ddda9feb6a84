// Package experiment regenerates every table and figure of the paper's
// evaluation (§II motivation and §IV) on the simulated cluster. Each
// experiment is registered by figure id and renders report.Tables whose
// rows correspond to the published series. Absolute numbers differ from
// the paper's Xen testbed; the shapes — who wins, by roughly what
// factor, where the inflection points fall — are the reproduction target
// (see EXPERIMENTS.md).
package experiment

import (
	"fmt"
	"sort"

	"atcsched/internal/report"
	"atcsched/internal/sim"
)

// Scale sizes an experiment run. The paper's full testbed (32 nodes, 256
// cores) is expensive to simulate, so the harness offers reduced scales
// with the same structure.
type Scale struct {
	Name string
	// NodeSteps are the physical-node counts for scaling studies
	// (Figures 1 and 10; the paper uses 2,4,8,16,32).
	NodeSteps []int
	// MixNodes is the node count for the trace-driven mixed experiments
	// (Figures 11-14; the paper uses 32).
	MixNodes int
	// VCPUsPerVM is the per-VM VCPU count for 8-VCPU experiments.
	VCPUsPerVM int
	// BigVCPUsPerVM is the per-VM count for the 16-VCPU experiments
	// (Figures 5 and 8).
	BigVCPUsPerVM int
	// Rounds is how many measured repetitions each application runs
	// (the paper uses 10).
	Rounds int
	// IterScale scales each profile's iteration count.
	IterScale float64
	// SliceSweep is the slice set for Figure 5 (descending).
	SliceSweep []sim.Time
	// ShortSweep is the short-slice set for Figure 8/§III-B.
	ShortSweep []sim.Time
	// Horizon caps each scenario's virtual runtime.
	Horizon sim.Time
}

func ms(f float64) sim.Time { return sim.Time(f * float64(sim.Millisecond)) }

// Small is the quick-check scale (benchmarks, CI).
var Small = Scale{
	Name:          "small",
	NodeSteps:     []int{2, 4},
	MixNodes:      4,
	VCPUsPerVM:    8,
	BigVCPUsPerVM: 8,
	Rounds:        2,
	IterScale:     0.3,
	SliceSweep:    []sim.Time{ms(30), ms(6), ms(1), ms(0.3), ms(0.1)},
	ShortSweep:    []sim.Time{ms(0.5), ms(0.3), ms(0.2), ms(0.1), ms(0.03)},
	Horizon:       1200 * sim.Second,
}

// Medium exercises the full structure at reduced node counts.
var Medium = Scale{
	Name:          "medium",
	NodeSteps:     []int{2, 4, 8},
	MixNodes:      8,
	VCPUsPerVM:    8,
	BigVCPUsPerVM: 16,
	Rounds:        3,
	IterScale:     0.6,
	SliceSweep:    []sim.Time{ms(30), ms(24), ms(18), ms(12), ms(6), ms(1), ms(0.6), ms(0.3), ms(0.15), ms(0.1)},
	ShortSweep:    []sim.Time{ms(0.5), ms(0.4), ms(0.3), ms(0.2), ms(0.1), ms(0.03)},
	Horizon:       2400 * sim.Second,
}

// Full is the paper's testbed scale.
var Full = Scale{
	Name:          "full",
	NodeSteps:     []int{2, 4, 8, 16, 32},
	MixNodes:      32,
	VCPUsPerVM:    8,
	BigVCPUsPerVM: 16,
	Rounds:        10,
	IterScale:     1,
	SliceSweep:    []sim.Time{ms(30), ms(24), ms(18), ms(12), ms(6), ms(1), ms(0.6), ms(0.3), ms(0.15), ms(0.1)},
	ShortSweep:    []sim.Time{ms(0.5), ms(0.4), ms(0.3), ms(0.2), ms(0.1), ms(0.03)},
	Horizon:       7200 * sim.Second,
}

// ScaleByName resolves "small", "medium" or "full".
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	case "full":
		return Full, nil
	default:
		return Scale{}, fmt.Errorf("experiment: unknown scale %q (small|medium|full)", name)
	}
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	ID    string
	Title string
	// Bench marks a wall-clock benchmark: its tables carry host timing
	// (not deterministic per (scale, seed)) and may append to a BENCH
	// trajectory file. `-all` skips bench experiments — the
	// -parallel 1 vs N byte-diff must stay empty — so they run only by
	// explicit `-exp` selection.
	Bench bool
	// Run produces the experiment's tables.
	Run func(sc Scale, seed uint64) ([]*report.Table, error)
}

var registry = map[string]Experiment{}

// canonicalOrder lists the experiments in the paper's presentation
// order, extensions last.
var canonicalOrder = []string{
	"fig1", "fig2", "fig5", "fig8", "euclid", "fig9",
	"fig10", "fig11", "fig12", "fig13", "fig14", "tab1",
	"score", "sens", "ablate", "switch", "faults", "scale", "dfrs", "fleet",
}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiment: duplicate id " + e.ID)
	}
	registry[e.ID] = e
}

// All returns every experiment in the paper's presentation order
// (extensions last).
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, id := range canonicalOrder {
		if e, ok := registry[id]; ok {
			out = append(out, e)
		}
	}
	// Append anything registered but not in the canonical list, sorted,
	// so a forgotten entry is visible rather than hidden.
	var extra []string
	for id := range registry {
		found := false
		for _, c := range canonicalOrder {
			if id == c {
				found = true
			}
		}
		if !found {
			extra = append(extra, id)
		}
	}
	sort.Strings(extra)
	for _, id := range extra {
		out = append(out, registry[id])
	}
	return out
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		ids := make([]string, 0, len(registry))
		for k := range registry {
			ids = append(ids, k)
		}
		sort.Strings(ids)
		return Experiment{}, fmt.Errorf("experiment: unknown id %q (have %v)", id, ids)
	}
	return e, nil
}
