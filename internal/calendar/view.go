package calendar

import (
	"coalloc/internal/dtree"
	"coalloc/internal/period"
)

// view is the View both backends publish: the clock, epoch and window of one
// instant, the slot table the ring published at it (see ring.go for the
// copy-on-write contract that keeps it frozen) and a read-only tail index.
// search is the backend's side-effect-free slot search: it touches no
// operation counter, timing histogram or node pool, so a view contributes
// nothing to the Fig. 7(b) operation metric, exactly like any other read
// replica, and any number of goroutines may search one concurrently.
type view[T any] struct {
	cfg        Config
	now        period.Time
	epoch      uint64 // the backend's MutationEpoch at publication
	base       int64
	horizonEnd period.Time
	slots      ringView[T]
	tails      *tailIndex // read-only, with no operation counter
	search     func(slot T, start, end period.Time) []period.Period
}

// treeSearchRO is the dtree backend's view search.
func treeSearchRO(t *dtree.Tree, start, end period.Time) []period.Period {
	feasible, _ := t.SearchRO(start, end, 0)
	return feasible
}

// PublishView captures the calendar's current searchable state as an
// immutable View. Cost: the slot chunks written and the tail index if it
// moved since the previous view (see ring.publish, tailIndex.cloneRO); no
// tree is cloned until one is actually mutated.
func (c *Calendar) PublishView() View {
	return &view[*dtree.Tree]{
		cfg:        c.cfg,
		now:        c.now,
		epoch:      c.mut,
		base:       c.base,
		horizonEnd: c.HorizonEnd(),
		slots:      c.slots.publish(),
		tails:      c.tails.cloneRO(),
		search:     treeSearchRO,
	}
}

// Now returns the instant the view was published at.
func (v *view[T]) Now() period.Time { return v.now }

// Epoch returns the backend's mutation epoch at publication. Two views with
// equal epochs answer every availability question identically.
func (v *view[T]) Epoch() uint64 { return v.epoch }

// HorizonEnd returns the right edge of the view's active window.
func (v *view[T]) HorizonEnd() period.Time { return v.horizonEnd }

// RangeSearch returns every idle period feasible for [start, end) as of the
// view's publication instant — the concurrent read-path twin of the
// backend's RangeSearch, byte-for-byte the same result set.
func (v *view[T]) RangeSearch(start, end period.Time) []period.Period {
	if end <= start {
		return nil
	}
	q := int64(start) / int64(v.cfg.SlotSize)
	if q < v.base || q >= v.base+int64(v.cfg.Slots) || end > v.horizonEnd {
		return nil
	}
	return v.tails.collect(start, 0, v.search(v.slots.at(q%int64(v.cfg.Slots)), start, end))
}

// Available reports how many servers could be co-allocated over [start, end)
// as of the view's publication instant.
func (v *view[T]) Available(start, end period.Time) int {
	return len(v.RangeSearch(start, end))
}
