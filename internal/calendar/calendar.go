// Package calendar maintains the temporal availability of a pool of servers
// as described in §4.1 of Castillo et al., HPDC'09: the scheduling horizon H
// is partitioned into Q slots of size τ, and each slot holds a 2-dimensional
// tree (package dtree) over the idle periods overlapping the slot. As time
// advances the tree of the just-expired slot is discarded and a tree for the
// new slot at the end of the horizon is initialized, so the calendar always
// maintains Q trees.
//
// The calendar also keeps, per server, the list of committed reservations
// (the "schedule" of §2). The slot trees are a pure index over that ground
// truth: every finite idle period stored in a slot tree is a maximal gap of
// some server's reservation list, and each server's trailing idleness is
// tracked by an ordered tail index instead of being copied into O(Q) trees
// (see tailIndex for why this refinement is behaviour-preserving).
package calendar

import (
	"errors"
	"fmt"

	"coalloc/internal/dtree"
	"coalloc/internal/period"
)

// Config describes a calendar.
type Config struct {
	// Servers is N, the number of servers in the system.
	Servers int
	// SlotSize is τ, the slot length. The paper sets τ to the minimum
	// temporal size of a reservation.
	SlotSize period.Duration
	// Slots is Q, the number of slots in the horizon (H = Slots × SlotSize).
	Slots int
}

func (c Config) validate() error {
	switch {
	case c.Servers <= 0:
		return errors.New("calendar: Servers must be positive")
	case c.SlotSize <= 0:
		return errors.New("calendar: SlotSize must be positive")
	case c.Slots <= 0:
		return errors.New("calendar: Slots must be positive")
	}
	return nil
}

// Horizon returns H = Slots × SlotSize.
func (c Config) Horizon() period.Duration { return c.SlotSize * period.Duration(c.Slots) }

// Calendar organizes the temporal availability of Servers servers over a
// moving horizon. It is not safe for concurrent use; callers (the scheduler,
// a grid site) serialize access.
type Calendar struct {
	cfg       Config
	ops       uint64 // operation counter: tree node visits and index probes
	mut       uint64 // mutation epoch: bumped whenever an availability answer may change
	breakdown OpsBreakdown
	now       period.Time
	genesis   period.Time        // creation time: left boundary of the very first idle period
	base      int64              // absolute index of the earliest active slot
	slots     *ring[*dtree.Tree] // copy-on-write; see ring.go
	busy      []busyList
	tails     *tailIndex
}

// New creates a calendar starting at time now with every server idle.
func New(cfg Config, now period.Time) (*Calendar, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Calendar{
		cfg:     cfg,
		now:     now,
		genesis: now,
		base:    int64(now) / int64(cfg.SlotSize),
		busy:    make([]busyList, cfg.Servers),
	}
	c.slots = newRing(cfg.Slots, c.cloneTree)
	for i := 0; i < cfg.Slots; i++ {
		c.slots.set(int64(i), dtree.New(&c.ops))
	}
	c.tails = newTailIndex(cfg.Servers, now, &c.ops)
	return c, nil
}

// Ops returns the cumulative number of elementary operations (tree node
// visits, index probes) performed so far — the metric of Fig. 7(b).
func (c *Calendar) Ops() uint64 { return c.ops }

// SetOps overwrites the elementary-operation counter. WAL replay uses it to
// reinstate the exact pre-crash value: the counter is history-dependent
// (replaying an allocation does less search work than scheduling it did), so
// each journal record carries the post-operation count instead.
func (c *Calendar) SetOps(n uint64) { c.ops = n }

// MutationEpoch returns a counter that increases on every committed mutation
// that can change an availability answer: a successful Allocate, a successful
// Release, and any Advance that rotates the slot window (expiring a slot
// changes the set of searchable windows even when no reservation moved).
// Clock movement within the current base slot does not bump it — probe and
// range answers are a function of (window, reservations, base slot), not of
// the exact clock value, so cached answers stay valid across such advances.
// Brokers use the epoch as a cache-invalidation signal; see internal/grid.
func (c *Calendar) MutationEpoch() uint64 { return c.mut }

// OpsBreakdown attributes the operation count to the scheduler phases. The
// paper notes (§4.2) that the update work "may be implemented in the
// background to minimize its impact on the performance of the scheduler";
// the breakdown quantifies exactly how much of the per-request cost that
// would hide.
type OpsBreakdown struct {
	Search uint64 // two-phase searches and range searches
	Update uint64 // allocation/release tree maintenance
	Rotate uint64 // slot expiry and horizon extension
}

// Breakdown returns the phase attribution of the operation counter.
// Operations not yet attributed (none in the current implementation) are
// the difference against Ops().
func (c *Calendar) Breakdown() OpsBreakdown { return c.breakdown }

// Now returns the calendar's current time.
func (c *Calendar) Now() period.Time { return c.now }

// Servers returns N.
func (c *Calendar) Servers() int { return c.cfg.Servers }

// Config returns the calendar's configuration.
func (c *Calendar) Config() Config { return c.cfg }

// WindowStart returns the left edge of the earliest active slot.
func (c *Calendar) WindowStart() period.Time {
	return period.Time(c.base * int64(c.cfg.SlotSize))
}

// HorizonEnd returns the right edge of the last active slot: no reservation
// may extend past it.
func (c *Calendar) HorizonEnd() period.Time {
	return period.Time((c.base + int64(c.cfg.Slots)) * int64(c.cfg.SlotSize))
}

// attribute returns a closure that adds the ops spent since the call to the
// given phase bucket.
func (c *Calendar) attribute(bucket *uint64) func() {
	before := c.ops
	return func() { *bucket += c.ops - before }
}

func (c *Calendar) slotIndex(t period.Time) int64 {
	return int64(t) / int64(c.cfg.SlotSize)
}

// cloneTree is the ring's slot copier: a tree a published view references
// is cloned (dtree.Clone) before its first post-publish mutation.
func (c *Calendar) cloneTree(t *dtree.Tree) *dtree.Tree { return t.Clone(&c.ops) }

// Advance moves the calendar's clock to now, discarding expired slot trees
// and initializing trees for the slots that enter the horizon, exactly as
// §4.1 prescribes. Moving the clock backwards is a programming error.
func (c *Calendar) Advance(now period.Time) {
	if now < c.now {
		panic(fmt.Sprintf("calendar: Advance to %d before current time %d", now, c.now))
	}
	defer c.attribute(&c.breakdown.Rotate)()
	c.now = now
	newBase := c.slotIndex(now)
	if newBase <= c.base {
		return
	}
	c.mut++
	q := int64(c.cfg.Slots)
	if newBase-c.base >= q {
		// The entire window expired (a long idle jump): rebuild wholesale.
		c.base = newBase
		for abs := newBase; abs < newBase+q; abs++ {
			c.slots.set(abs, dtree.New(&c.ops))
			c.fillSlot(abs)
		}
		return
	}
	for abs := c.base + q; abs < newBase+q; abs++ {
		c.slots.set(abs, dtree.New(&c.ops)) // drop the expired tree occupying this ring position
		c.fillSlot(abs)
	}
	c.base = newBase
}

// fillSlot populates a fresh slot tree with every finite idle period that
// overlaps the slot, derived from the per-server reservation lists.
func (c *Calendar) fillSlot(abs int64) {
	w0 := period.Time(abs * int64(c.cfg.SlotSize))
	w1 := period.Time((abs + 1) * int64(c.cfg.SlotSize))
	tree := c.slots.owned(abs)
	var buf []period.Period
	for srv := range c.busy {
		c.ops++ // one reservation-list probe per server per new slot
		buf = c.busy[srv].gapsOverlapping(c.genesis, w0, w1, srv, buf[:0])
		for _, g := range buf {
			tree.Insert(g)
		}
	}
}

// insertFinite adds a finite idle period to the trees of every active slot
// it overlaps.
func (c *Calendar) insertFinite(p period.Period) {
	if p.Empty() {
		return
	}
	lo := c.slotIndex(p.Start)
	hi := c.slotIndex(p.End - 1)
	if lo < c.base {
		lo = c.base
	}
	if last := c.base + int64(c.cfg.Slots) - 1; hi > last {
		hi = last
	}
	for abs := lo; abs <= hi; abs++ {
		c.slots.owned(abs).Insert(p)
	}
}

// removeFinite removes a finite idle period from every active slot tree.
func (c *Calendar) removeFinite(p period.Period) error {
	lo := c.slotIndex(p.Start)
	hi := c.slotIndex(p.End - 1)
	if lo < c.base {
		lo = c.base
	}
	if last := c.base + int64(c.cfg.Slots) - 1; hi > last {
		hi = last
	}
	for abs := lo; abs <= hi; abs++ {
		if !c.slots.owned(abs).Delete(p) {
			return fmt.Errorf("calendar: period %+v missing from slot %d", p, abs)
		}
	}
	return nil
}

// FindFeasible runs the two-phase search of §4.2 for a job occupying
// [start, end) and needing want servers. It returns up to want feasible idle
// periods and the total number of candidate periods seen in Phase 1. If
// fewer than want feasible periods exist the returned slice is shorter than
// want (possibly nil); the caller retries at start+Δt per the paper's
// algorithm.
//
// The search fails immediately (nil, 0) if start lies outside the active
// window or end exceeds the horizon: the system never commits resources it
// cannot yet see.
func (c *Calendar) FindFeasible(start, end period.Time, want int) ([]period.Period, int) {
	if want <= 0 || end <= start {
		return nil, 0
	}
	defer c.attribute(&c.breakdown.Search)()
	q := c.slotIndex(start)
	if q < c.base || q >= c.base+int64(c.cfg.Slots) || end > c.HorizonEnd() {
		return nil, 0
	}
	tree := c.slots.at(q)

	tailCand := c.tails.candidates(start) // trailing periods are always feasible
	needFromTree := want - tailCand

	// One slice holds the answer: the tree's periods, then the trailing ones.
	var feasible []period.Period
	var treeCand int
	if needFromTree > 0 {
		feasible, treeCand = tree.Search(start, end, needFromTree, want)
		if treeCand+tailCand < want {
			// Not enough even with every trailing period: report failure
			// with the candidate count for the attempt statistics.
			return nil, treeCand + tailCand
		}
	} else {
		treeCand, feasible = tree.Candidates(start), make([]period.Period, 0, want)
	}
	// Trailing periods supply whatever the tree did not.
	if missing := want - len(feasible); missing > 0 {
		feasible = c.tails.collect(start, missing, feasible)
	}
	return feasible, treeCand + tailCand
}

// RangeSearch returns every idle period feasible for the window [start, end)
// without committing anything — the user-facing range search of §4.2 that
// enables application-specific post-processing (e.g. lambda selection).
func (c *Calendar) RangeSearch(start, end period.Time) []period.Period {
	if end <= start {
		return nil
	}
	defer c.attribute(&c.breakdown.Search)()
	q := c.slotIndex(start)
	if q < c.base || q >= c.base+int64(c.cfg.Slots) || end > c.HorizonEnd() {
		return nil
	}
	feasible, _ := c.slots.at(q).Search(start, end, 0, 0)
	return c.tails.collect(start, 0, feasible)
}

// Allocate commits the window [start, end) on the server owning the idle
// period p, which must have been returned by a search and still be current.
// The period is removed from every slot tree it overlaps and the remainders
// j = (p.Start, start) and k = (end, p.End) are inserted, per §4.2.
func (c *Calendar) Allocate(p period.Period, start, end period.Time) error {
	defer c.attribute(&c.breakdown.Update)()
	if !p.FeasibleFor(start, end) {
		return fmt.Errorf("calendar: allocation [%d,%d) does not fit idle period %+v", start, end, p)
	}
	if end > c.HorizonEnd() {
		return fmt.Errorf("calendar: allocation end %d past horizon %d", end, c.HorizonEnd())
	}
	if p.Server < 0 || p.Server >= c.cfg.Servers {
		return fmt.Errorf("calendar: unknown server %d", p.Server)
	}
	if p.Unbounded() {
		if cur := c.busy[p.Server].tailStart(c.genesis); cur != p.Start {
			return fmt.Errorf("calendar: stale trailing period %+v (current start %d)", p, cur)
		}
		if err := c.busy[p.Server].insert(start, end); err != nil {
			return err
		}
		c.insertFinite(period.Period{Server: p.Server, Start: p.Start, End: start})
		c.tails.update(p.Server, p.Start, end)
		c.mut++
		return nil
	}
	if err := c.removeFinite(p); err != nil {
		return err
	}
	if err := c.busy[p.Server].insert(start, end); err != nil {
		// Restore the index before reporting: the busy list is ground truth.
		c.insertFinite(p)
		return err
	}
	c.insertFinite(period.Period{Server: p.Server, Start: p.Start, End: start})
	c.insertFinite(period.Period{Server: p.Server, Start: end, End: p.End})
	c.mut++
	return nil
}

// PeriodCovering returns the idle period of the given server that covers
// the window [start, end), if any. It supports the §4.2 range-search
// workflow: a user picks specific resources from a non-committing search
// and then commits exactly those, so the calendar must be able to
// re-derive the current idle period for one server.
func (c *Calendar) PeriodCovering(server int, start, end period.Time) (period.Period, bool) {
	if server < 0 || server >= c.cfg.Servers || end <= start {
		return period.Period{}, false
	}
	return c.busy[server].covering(c.genesis, server, start, end)
}

// Release implements the early-release extension: the reservation
// [start, end) on server is truncated to end at newEnd (newEnd <= start
// cancels it entirely), and the freed time is merged back into the
// surrounding idle periods so the complement invariant holds.
func (c *Calendar) Release(server int, start, end, newEnd period.Time) error {
	defer c.attribute(&c.breakdown.Update)()
	if server < 0 || server >= c.cfg.Servers {
		return fmt.Errorf("calendar: unknown server %d", server)
	}
	if newEnd >= end {
		return fmt.Errorf("calendar: release end %d not before reservation end %d", newEnd, end)
	}
	bl := &c.busy[server]

	// Determine the idle neighborhood around the freed gap before mutating.
	freedStart := newEnd
	if newEnd <= start {
		freedStart = bl.prevIdleBoundary(c.genesis, start)
	}
	if !bl.truncate(start, end, newEnd) {
		return fmt.Errorf("calendar: no reservation [%d,%d) on server %d", start, end, server)
	}
	c.mut++

	// If the cancelled reservation had an idle gap before it, that gap must
	// be merged: remove its tree copies first.
	if newEnd <= start && freedStart < start {
		if err := c.removeFinite(period.Period{Server: server, Start: freedStart, End: start}); err != nil {
			return err
		}
	}

	next, hasNext := bl.nextBusyStart(end)
	if !hasNext {
		// The freed time merges into the trailing idle period.
		cur, _ := c.tails.startOf(server)
		if cur != end {
			return fmt.Errorf("calendar: tail out of sync for server %d: have %d want %d", server, cur, end)
		}
		c.tails.update(server, end, freedStart)
		return nil
	}
	if next > end {
		// There was a finite gap (end, next); merge with it.
		if err := c.removeFinite(period.Period{Server: server, Start: end, End: next}); err != nil {
			return err
		}
		c.insertFinite(period.Period{Server: server, Start: freedStart, End: next})
		return nil
	}
	// The following reservation starts exactly at end: freed gap stands alone.
	c.insertFinite(period.Period{Server: server, Start: freedStart, End: end})
	return nil
}

// IdleAt reports whether the server has no commitment at instant t.
func (c *Calendar) IdleAt(server int, t period.Time) bool {
	return c.busy[server].idleAt(t)
}

// BusyBetween returns the committed time of one server inside [a, b).
func (c *Calendar) BusyBetween(server int, a, b period.Time) period.Duration {
	return c.busy[server].busyBetween(a, b)
}

// Utilization returns the fraction of total capacity committed in [a, b).
func (c *Calendar) Utilization(a, b period.Time) float64 {
	return utilization(c.busy, a, b)
}

// CheckConsistency rebuilds the expected contents of every active slot from
// the reservation lists and compares them with the actual trees; the
// randomized and differential suites call it continuously.
func (c *Calendar) CheckConsistency() error {
	if err := checkGround(c.busy, c.tails, c.genesis); err != nil {
		return err
	}
	q := int64(c.cfg.Slots)
	for abs := c.base; abs < c.base+q; abs++ {
		w0 := period.Time(abs * int64(c.cfg.SlotSize))
		want := wantSlot(c.busy, c.genesis, w0, w0+period.Time(c.cfg.SlotSize))
		got := c.slots.at(abs).All()
		if len(got) != len(want) {
			return fmt.Errorf("calendar: slot %d has %d periods, want %d", abs, len(got), len(want))
		}
		for _, g := range got {
			if !want[g] {
				return fmt.Errorf("calendar: slot %d holds unexpected period %+v", abs, g)
			}
		}
	}
	return nil
}
