package core

import (
	"fmt"
	"sort"

	"atcsched/internal/sim"
)

// TrackedVMs lists the VM IDs the controller currently holds history
// for, sorted ascending. Unlike History, it never creates state.
func (c *Controller) TrackedVMs() []int {
	ids := make([]int, 0, len(c.vms))
	for id := range c.vms {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// ExportVM returns copies of vmID's latency and slice windows (oldest
// first) plus the observed-period count, without creating state for an
// unknown VM: ok is false when the controller has never seen vmID.
func (c *Controller) ExportVM(vmID int) (lat, slice []sim.Time, observed int, ok bool) {
	w, observed, ok := c.AppendVM(nil, vmID)
	if !ok {
		return nil, nil, 0, false
	}
	n := len(w) / 2
	return w[:n:n], w[n:], observed, true
}

// AppendVM appends vmID's latency window and then its slice window
// (oldest first, Window values each) to dst and returns the extended
// slice with the observed-period count. Like ExportVM it creates no
// state: ok is false, and dst is returned as is, for an unknown VM.
func (c *Controller) AppendVM(dst []sim.Time, vmID int) (out []sim.Time, observed int, ok bool) {
	st, found := c.vms[vmID]
	if !found {
		return dst, 0, false
	}
	return append(append(dst, st.lat...), st.slice...), st.observed, true
}

// ImportVM installs a previously-exported history for vmID, replacing
// any existing state. Both windows must match the controller's
// configured Window length; slices must be positive and latencies
// non-negative so a corrupt snapshot cannot smuggle in values Observe
// would have rejected.
func (c *Controller) ImportVM(vmID int, lat, slice []sim.Time, observed int) error {
	w := c.cfg.Window
	if len(lat) != w || len(slice) != w {
		return fmt.Errorf("core: import vm %d: window length lat=%d slice=%d, want %d",
			vmID, len(lat), len(slice), w)
	}
	if observed < 0 {
		return fmt.Errorf("core: import vm %d: negative observed %d", vmID, observed)
	}
	for i := 0; i < w; i++ {
		if lat[i] < 0 {
			return fmt.Errorf("core: import vm %d: negative latency %v at index %d", vmID, lat[i], i)
		}
		if slice[i] <= 0 {
			return fmt.Errorf("core: import vm %d: non-positive slice %v at index %d", vmID, slice[i], i)
		}
	}
	c.vms[vmID] = &vmState{
		lat:      append([]sim.Time(nil), lat...),
		slice:    append([]sim.Time(nil), slice...),
		observed: observed,
	}
	return nil
}
