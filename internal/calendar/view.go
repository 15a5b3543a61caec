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
	count      func(slot T, start, end period.Time) int // len(search(...)), listing nothing
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
		count:      (*dtree.Tree).CountRO,
	}
}

// Now returns the instant the view was published at.
func (v *view[T]) Now() period.Time { return v.now }

// Epoch returns the backend's mutation epoch at publication. Two views with
// equal epochs answer every availability question identically.
func (v *view[T]) Epoch() uint64 { return v.epoch }

// HorizonEnd returns the right edge of the view's active window.
func (v *view[T]) HorizonEnd() period.Time { return v.horizonEnd }

// slot returns the slot a search of [start, end) reads, or false if the
// window is empty, starts outside the view's active window or ends past its
// horizon.
func (v *view[T]) slot(start, end period.Time) (T, bool) {
	q := int64(start) / int64(v.cfg.SlotSize)
	if end <= start || q < v.base || q >= v.base+int64(v.cfg.Slots) || end > v.horizonEnd {
		var none T
		return none, false
	}
	return v.slots.at(q % int64(v.cfg.Slots)), true
}

// RangeSearch returns every idle period feasible for [start, end) as of the
// view's publication instant — the concurrent read-path twin of the
// backend's RangeSearch, byte-for-byte the same result set.
func (v *view[T]) RangeSearch(start, end period.Time) []period.Period {
	slot, ok := v.slot(start, end)
	if !ok {
		return nil
	}
	return v.tails.collect(start, 0, v.search(slot, start, end))
}

// Available reports how many servers could be co-allocated over [start, end)
// as of the view's publication instant: len(RangeSearch(start, end)),
// counted without listing — every trailing candidate is feasible, and the
// slot counts its own.
func (v *view[T]) Available(start, end period.Time) int {
	slot, ok := v.slot(start, end)
	if !ok {
		return 0
	}
	return v.tails.candidates(start) + v.count(slot, start, end)
}
