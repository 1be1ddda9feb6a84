package proptest

import "atcsched/internal/fault"

// shrinkAttempts bounds the total candidate re-runs one Shrink performs;
// each candidate costs a full battery run, so the budget is modest.
const shrinkAttempts = 48

// Shrink greedily minimizes a failing Spec: it tries dropping tenants,
// halving every size knob and clearing the scheduler overrides, keeping
// each candidate on which check still fails, until a full pass makes no
// progress or the attempt budget runs out. check must report the
// original failure class as a non-nil error.
func Shrink(spec Spec, check func(Spec) error) Spec {
	attempts := 0
	for attempts < shrinkAttempts {
		improved := false
		for _, cand := range candidates(spec) {
			attempts++
			if check(cand) != nil {
				spec = cand
				improved = true
				break
			}
			if attempts >= shrinkAttempts {
				break
			}
		}
		if !improved {
			break
		}
	}
	return spec
}

// candidates returns one-step reductions of s, cheapest wins first:
// structural drops before size halvings before option clearing.
func candidates(s Spec) []Spec {
	var out []Spec
	if len(s.Clusters) > 1 {
		for i := range s.Clusters {
			c := clone(s)
			c.Clusters = append(c.Clusters[:i:i], c.Clusters[i+1:]...)
			out = append(out, c)
		}
	}
	for i := range s.Jobs {
		c := clone(s)
		c.Jobs = append(c.Jobs[:i:i], c.Jobs[i+1:]...)
		out = append(out, c)
	}
	if s.Faults != nil {
		for i := range s.Faults.Windows {
			c := clone(s)
			c.Faults.Windows = append(c.Faults.Windows[:i:i], c.Faults.Windows[i+1:]...)
			if len(c.Faults.Windows) == 0 {
				c.Faults = nil
			}
			out = append(out, c)
		}
	}
	if s.Nodes > 1 {
		c := clone(s)
		c.Nodes = halve(c.Nodes)
		// Re-home jobs that lived on dropped nodes.
		for i := range c.Jobs {
			if c.Jobs[i].Node >= c.Nodes {
				c.Jobs[i].Node = c.Nodes - 1
			}
		}
		// Node-kind pins for dropped nodes go with them.
		if len(c.NodeKinds) > c.Nodes {
			c.NodeKinds = c.NodeKinds[:c.Nodes]
		}
		// Fault-window node scopes re-home the same way.
		if c.Faults != nil {
			for i := range c.Faults.Windows {
				for j, n := range c.Faults.Windows[i].Nodes {
					if n >= c.Nodes {
						c.Faults.Windows[i].Nodes[j] = c.Nodes - 1
					}
				}
			}
		}
		out = append(out, c)
	}
	if s.PCPUs > 1 {
		c := clone(s)
		c.PCPUs = halve(c.PCPUs)
		out = append(out, c)
	}
	for i := range s.Clusters {
		for _, f := range []func(*ClusterSpec){
			func(c *ClusterSpec) { c.VMs = halve(c.VMs) },
			func(c *ClusterSpec) { c.VCPUs = halve(c.VCPUs) },
			func(c *ClusterSpec) { c.Rounds = halve(c.Rounds) },
			func(c *ClusterSpec) { c.Iterations = halve(c.Iterations) },
		} {
			c := clone(s)
			before := c.Clusters[i]
			f(&c.Clusters[i])
			if c.Clusters[i] != before {
				out = append(out, c)
			}
		}
	}
	if s.FixedSliceMs != 0 {
		c := clone(s)
		c.FixedSliceMs = 0
		out = append(out, c)
	}
	if s.DisableBoost || s.DisableSteal {
		c := clone(s)
		c.DisableBoost = false
		c.DisableSteal = false
		out = append(out, c)
	}
	if len(s.NodeKinds) > 0 {
		c := clone(s)
		c.NodeKinds = nil
		out = append(out, c)
	}
	if s.SwapKind != "" {
		c := clone(s)
		c.SwapKind = ""
		c.SwapAtSec = 0
		out = append(out, c)
	}
	if s.Faults != nil {
		c := clone(s)
		c.Faults = nil
		out = append(out, c)
	}
	// Shard count shrinks toward 1 (no concurrency) — isolating whether
	// a failure needs several shards at all.
	if s.Shards > 1 {
		c := clone(s)
		c.Shards = halve(c.Shards)
		out = append(out, c)
	}
	if s.Telemetry {
		c := clone(s)
		c.Telemetry = false
		out = append(out, c)
	}
	// The fleet side-world shrinks toward one node, then away entirely —
	// isolating whether a failure needs the fleet property at all.
	if s.FleetNodes > 1 {
		c := clone(s)
		c.FleetNodes = halve(c.FleetNodes)
		out = append(out, c)
	}
	if s.FleetNodes != 0 {
		c := clone(s)
		c.FleetNodes = 0
		out = append(out, c)
	}
	return out
}

// halve reduces n toward 1 without reaching 0.
func halve(n int) int {
	if n <= 1 {
		return n
	}
	return (n + 1) / 2
}

// clone deep-copies a Spec so candidate mutations stay independent.
func clone(s Spec) Spec {
	c := s
	c.Clusters = append([]ClusterSpec(nil), s.Clusters...)
	c.Jobs = append([]JobSpec(nil), s.Jobs...)
	c.NodeKinds = append([]string(nil), s.NodeKinds...)
	if s.Faults != nil {
		f := fault.Spec{Seed: s.Faults.Seed}
		f.Windows = append([]fault.Window(nil), s.Faults.Windows...)
		for i := range f.Windows {
			f.Windows[i].Nodes = append([]int(nil), f.Windows[i].Nodes...)
			f.Windows[i].VMs = append([]int(nil), f.Windows[i].VMs...)
		}
		c.Faults = &f
	}
	return c
}
