package calendar

import (
	"time"

	"coalloc/internal/dtree"
	"coalloc/internal/obs"
)

// Timings collects wall-clock durations of the calendar's three phases —
// the same attribution as OpsBreakdown, but in real time instead of
// elementary operations. All fields are optional.
type Timings struct {
	Search *obs.Histogram // FindFeasible and RangeSearch
	Update *obs.Histogram // Allocate and Release maintenance
	Rotate *obs.Histogram // Advance: slot expiry and horizon extension
}

// SetTimings installs wall-clock timing collection on the calendar and, via
// tree, on every slot tree (current and future). Either argument may be nil
// to leave that layer uninstrumented; with neither installed the hot paths
// pay only a nil check.
func (c *Calendar) SetTimings(cal *Timings, tree *dtree.Timings) {
	c.tm = cal
	c.dtm = tree
	for i := 0; i < c.cfg.Slots; i++ {
		c.slots.at(int64(i)).SetTimings(tree)
	}
}

// observe records time since t0 into h if both are set.
func (tm *Timings) observe(h *obs.Histogram, t0 time.Time) {
	if tm != nil && h != nil {
		h.Observe(time.Since(t0))
	}
}
