package calendar

import (
	"cmp"
	"encoding/gob"
	"fmt"
	"io"
	"slices"
	"sort"

	"coalloc/internal/period"
)

// Flat is an array-based availability backend in the spirit of Brodnik &
// Nilsson's static structure for discrete advance reservations: each slot of
// the horizon holds the finite idle periods overlapping it as one contiguous
// slice sorted by ascending start time, instead of the paper's 2-D tree.
// Candidate counting is a single binary search (periods with Start <= s form
// a prefix) and the feasibility phase is a backward scan over that prefix,
// so searches touch cache-contiguous memory with no pointer chasing and
// mutations are memmoves — trading the tree's O(log² n) update bound for
// constant-factor wins at the slot populations real horizons produce.
//
// Flat implements AvailabilityBackend with semantics identical to Calendar:
// the same ground truth (per-server busyList + tailIndex), the same
// two-phase search contract including the skip-phase-2 rule, the same
// mutation-epoch bump points, and the same backend-neutral snapshot form.
// FuzzBackendEquivalence holds the two implementations to that word.
type Flat struct {
	cfg       Config
	ops       uint64 // elementary operations: binary-search probes and element scans
	mut       uint64 // mutation epoch; same bump points as Calendar
	breakdown OpsBreakdown
	now       period.Time
	genesis   period.Time
	base      int64                  // absolute index of the earliest active slot
	slots     *ring[[]period.Period] // copy-on-write ring of slot profiles, each sorted by flatCmp; see ring.go
	busy      []busyList
	tails     *tailIndex
}

// flatCmp is the total order of a slot profile: ascending start, then
// server, then end. Any total order works — searches only need the
// Start <= s prefix property — but it must be total so insert and remove
// can locate exact elements by binary search.
func flatCmp(a, b period.Period) int {
	return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Server, b.Server), cmp.Compare(a.End, b.End))
}

// NewFlat creates a flat backend starting at time now with every server idle.
func NewFlat(cfg Config, now period.Time) (*Flat, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	f := &Flat{
		cfg:     cfg,
		now:     now,
		genesis: now,
		base:    int64(now) / int64(cfg.SlotSize),
		slots:   newRing(cfg.Slots, cloneProfile),
		busy:    make([]busyList, cfg.Servers),
	}
	f.tails = newTailIndex(cfg.Servers, now, &f.ops)
	return f, nil
}

// Ops returns the cumulative number of elementary operations — the metric of
// Fig. 7(b), counted in this backend's own currency (probes and scans).
func (f *Flat) Ops() uint64 { return f.ops }

// SetOps overwrites the operation counter; WAL replay uses it to reinstate
// the exact pre-crash value (see Calendar.SetOps).
func (f *Flat) SetOps(n uint64) { f.ops = n }

// MutationEpoch returns the mutation epoch; the bump points are identical to
// Calendar.MutationEpoch, which is part of the backend contract.
func (f *Flat) MutationEpoch() uint64 { return f.mut }

// Breakdown returns the phase attribution of the operation counter.
func (f *Flat) Breakdown() OpsBreakdown { return f.breakdown }

// Now returns the backend's current time.
func (f *Flat) Now() period.Time { return f.now }

// Servers returns N.
func (f *Flat) Servers() int { return f.cfg.Servers }

// Config returns the backend's configuration.
func (f *Flat) Config() Config { return f.cfg }

// WindowStart returns the left edge of the earliest active slot.
func (f *Flat) WindowStart() period.Time {
	return period.Time(f.base * int64(f.cfg.SlotSize))
}

// HorizonEnd returns the right edge of the last active slot.
func (f *Flat) HorizonEnd() period.Time {
	return period.Time((f.base + int64(f.cfg.Slots)) * int64(f.cfg.SlotSize))
}

// attribute returns a closure that adds the ops spent since the call to the
// given phase bucket.
func (f *Flat) attribute(bucket *uint64) func() {
	before := f.ops
	return func() { *bucket += f.ops - before }
}

func (f *Flat) slotIndex(t period.Time) int64 {
	return int64(t) / int64(f.cfg.SlotSize)
}

// cloneProfile is the ring's slot copier: a profile a published view
// references is copied before its first post-publish mutation.
func cloneProfile(s []period.Period) []period.Period { return append([]period.Period(nil), s...) }

// slotInsert adds a period to the profile of slot abs.
func (f *Flat) slotInsert(abs int64, p period.Period) {
	s := f.slots.owned(abs)
	j := sort.Search(len(s), func(k int) bool { return flatCmp(s[k], p) >= 0 })
	f.ops += 8 // binary-search probes plus the shift, mirroring tailIndex.update
	s = append(s, period.Period{})
	copy(s[j+1:], s[j:])
	s[j] = p
	f.slots.set(abs, s)
}

// slotRemove removes an exact period from the profile of slot abs, reporting
// whether it was present.
func (f *Flat) slotRemove(abs int64, p period.Period) bool {
	s := f.slots.owned(abs)
	j := sort.Search(len(s), func(k int) bool { return flatCmp(s[k], p) >= 0 })
	f.ops += 8
	if j >= len(s) || s[j] != p {
		return false
	}
	f.slots.set(abs, append(s[:j], s[j+1:]...))
	return true
}

// flatCandidates counts the periods with Start <= s: they are a prefix of
// the sorted profile, so one binary search suffices.
func flatCandidates(slot []period.Period, s period.Time, ops *uint64) int {
	n := sort.Search(len(slot), func(k int) bool { return slot[k].Start > s })
	if ops != nil {
		*ops += 4
	}
	return n
}

// flatFeasible is Phase 2 over a slot's candidate prefix (see
// flatCandidates): a backward scan appending to acc the periods with
// End >= end — latest starts first, the paper's retrieval order — until max
// are found (max <= 0: all of them). ops may be nil for side-effect-free
// view reads.
func flatFeasible(cands []period.Period, end period.Time, max int, ops *uint64, acc []period.Period) []period.Period {
	found := 0
	for i := len(cands) - 1; i >= 0; i-- {
		if ops != nil {
			*ops++
		}
		if cands[i].End >= end {
			acc = append(acc, cands[i])
			if found++; max > 0 && found >= max {
				break
			}
		}
	}
	return acc
}

// Advance moves the clock to now, discarding expired slot profiles and
// filling profiles for the slots that enter the horizon — the same rotation
// as Calendar.Advance, including the wholesale rebuild on long idle jumps
// and the epoch bump only when the base slot actually moves.
func (f *Flat) Advance(now period.Time) {
	if now < f.now {
		panic(fmt.Sprintf("calendar: Advance to %d before current time %d", now, f.now))
	}
	defer f.attribute(&f.breakdown.Rotate)()
	f.now = now
	newBase := f.slotIndex(now)
	if newBase <= f.base {
		return
	}
	f.mut++
	q := int64(f.cfg.Slots)
	if newBase-f.base >= q {
		// The entire window expired (a long idle jump): rebuild wholesale.
		f.base = newBase
		for abs := newBase; abs < newBase+q; abs++ {
			f.fillSlot(abs)
		}
		return
	}
	for abs := f.base + q; abs < newBase+q; abs++ {
		f.fillSlot(abs) // replaces the expired profile occupying this ring position
	}
	f.base = newBase
}

// fillSlot installs a fresh profile for slot abs holding every finite idle
// period that overlaps the slot, derived from the per-server reservation
// lists; whatever occupied the ring position may live on inside a view.
func (f *Flat) fillSlot(abs int64) {
	w0 := period.Time(abs * int64(f.cfg.SlotSize))
	w1 := period.Time((abs + 1) * int64(f.cfg.SlotSize))
	// A finite gap ends where a reservation starts, so only a server whose
	// trailing idle period starts after w0 can have one reaching the slot.
	var s []period.Period
	for _, e := range f.tails.entries[f.tails.candidates(w0):] {
		f.ops++ // one reservation-list probe per server reaching the new slot
		s = f.busy[e.server].gapsOverlapping(f.genesis, w0, w1, e.server, s)
	}
	slices.SortFunc(s, flatCmp)
	f.ops += uint64(len(s))
	f.slots.set(abs, s)
}

// insertFinite adds a finite idle period to the profile of every active slot
// it overlaps.
func (f *Flat) insertFinite(p period.Period) {
	if p.Empty() {
		return
	}
	lo := f.slotIndex(p.Start)
	hi := f.slotIndex(p.End - 1)
	if lo < f.base {
		lo = f.base
	}
	if last := f.base + int64(f.cfg.Slots) - 1; hi > last {
		hi = last
	}
	for abs := lo; abs <= hi; abs++ {
		f.slotInsert(abs, p)
	}
}

// removeFinite removes a finite idle period from every active slot profile.
func (f *Flat) removeFinite(p period.Period) error {
	lo := f.slotIndex(p.Start)
	hi := f.slotIndex(p.End - 1)
	if lo < f.base {
		lo = f.base
	}
	if last := f.base + int64(f.cfg.Slots) - 1; hi > last {
		hi = last
	}
	for abs := lo; abs <= hi; abs++ {
		if !f.slotRemove(abs, p) {
			return fmt.Errorf("calendar: period %+v missing from slot %d", p, abs)
		}
	}
	return nil
}

// FindFeasible runs the two-phase search of §4.2 — the same contract and
// branch structure as Calendar.FindFeasible, over the flat profiles.
func (f *Flat) FindFeasible(start, end period.Time, want int) ([]period.Period, int) {
	if want <= 0 || end <= start {
		return nil, 0
	}
	defer f.attribute(&f.breakdown.Search)()
	q := f.slotIndex(start)
	if q < f.base || q >= f.base+int64(f.cfg.Slots) || end > f.HorizonEnd() {
		return nil, 0
	}
	slot := f.slots.at(q)

	tailCand := f.tails.candidates(start) // trailing periods are always feasible
	slotCand := flatCandidates(slot, start, &f.ops)
	if slotCand+tailCand < want {
		// Not enough even with every trailing period: Phase 2 is skipped,
		// and the candidate count is reported for the attempt statistics.
		return nil, slotCand + tailCand
	}
	// One slice holds the answer: the slot's periods, then the trailing ones.
	feasible := make([]period.Period, 0, want)
	if needFromSlot := want - tailCand; needFromSlot > 0 {
		feasible = flatFeasible(slot[:slotCand], end, needFromSlot, &f.ops, feasible)
	}
	// Trailing periods supply whatever the slot did not.
	if missing := want - len(feasible); missing > 0 {
		feasible = f.tails.collect(start, missing, feasible)
	}
	return feasible, slotCand + tailCand
}

// RangeSearch returns every idle period feasible for the window [start, end)
// without committing anything.
func (f *Flat) RangeSearch(start, end period.Time) []period.Period {
	if end <= start {
		return nil
	}
	defer f.attribute(&f.breakdown.Search)()
	q := f.slotIndex(start)
	if q < f.base || q >= f.base+int64(f.cfg.Slots) || end > f.HorizonEnd() {
		return nil
	}
	slot := f.slots.at(q)
	feasible := flatFeasible(slot[:flatCandidates(slot, start, &f.ops)], end, 0, &f.ops, nil)
	return f.tails.collect(start, 0, feasible)
}

// Allocate commits the window [start, end) on the server owning the idle
// period p — identical semantics to Calendar.Allocate, including the epoch
// bump on success only.
func (f *Flat) Allocate(p period.Period, start, end period.Time) error {
	defer f.attribute(&f.breakdown.Update)()
	if !p.FeasibleFor(start, end) {
		return fmt.Errorf("calendar: allocation [%d,%d) does not fit idle period %+v", start, end, p)
	}
	if end > f.HorizonEnd() {
		return fmt.Errorf("calendar: allocation end %d past horizon %d", end, f.HorizonEnd())
	}
	if p.Server < 0 || p.Server >= f.cfg.Servers {
		return fmt.Errorf("calendar: unknown server %d", p.Server)
	}
	if p.Unbounded() {
		if cur := f.busy[p.Server].tailStart(f.genesis); cur != p.Start {
			return fmt.Errorf("calendar: stale trailing period %+v (current start %d)", p, cur)
		}
		if err := f.busy[p.Server].insert(start, end); err != nil {
			return err
		}
		f.insertFinite(period.Period{Server: p.Server, Start: p.Start, End: start})
		f.tails.update(p.Server, p.Start, end)
		f.mut++
		return nil
	}
	if err := f.removeFinite(p); err != nil {
		return err
	}
	if err := f.busy[p.Server].insert(start, end); err != nil {
		// Restore the index before reporting: the busy list is ground truth.
		f.insertFinite(p)
		return err
	}
	f.insertFinite(period.Period{Server: p.Server, Start: p.Start, End: start})
	f.insertFinite(period.Period{Server: p.Server, Start: end, End: p.End})
	f.mut++
	return nil
}

// PeriodCovering returns the idle period of the given server that covers
// the window [start, end), if any (see Calendar.PeriodCovering).
func (f *Flat) PeriodCovering(server int, start, end period.Time) (period.Period, bool) {
	if server < 0 || server >= f.cfg.Servers || end <= start {
		return period.Period{}, false
	}
	return f.busy[server].covering(f.genesis, server, start, end)
}

// Release truncates the reservation [start, end) on server to end at newEnd
// — identical semantics and epoch behaviour to Calendar.Release.
func (f *Flat) Release(server int, start, end, newEnd period.Time) error {
	defer f.attribute(&f.breakdown.Update)()
	if server < 0 || server >= f.cfg.Servers {
		return fmt.Errorf("calendar: unknown server %d", server)
	}
	if newEnd >= end {
		return fmt.Errorf("calendar: release end %d not before reservation end %d", newEnd, end)
	}
	bl := &f.busy[server]

	// Determine the idle neighborhood around the freed gap before mutating.
	freedStart := newEnd
	if newEnd <= start {
		freedStart = bl.prevIdleBoundary(f.genesis, start)
	}
	if !bl.truncate(start, end, newEnd) {
		return fmt.Errorf("calendar: no reservation [%d,%d) on server %d", start, end, server)
	}
	f.mut++

	// If the cancelled reservation had an idle gap before it, that gap must
	// be merged: remove its profile copies first.
	if newEnd <= start && freedStart < start {
		if err := f.removeFinite(period.Period{Server: server, Start: freedStart, End: start}); err != nil {
			return err
		}
	}

	next, hasNext := bl.nextBusyStart(end)
	if !hasNext {
		// The freed time merges into the trailing idle period.
		cur, _ := f.tails.startOf(server)
		if cur != end {
			return fmt.Errorf("calendar: tail out of sync for server %d: have %d want %d", server, cur, end)
		}
		f.tails.update(server, end, freedStart)
		return nil
	}
	if next > end {
		// There was a finite gap (end, next); merge with it.
		if err := f.removeFinite(period.Period{Server: server, Start: end, End: next}); err != nil {
			return err
		}
		f.insertFinite(period.Period{Server: server, Start: freedStart, End: next})
		return nil
	}
	// The following reservation starts exactly at end: freed gap stands alone.
	f.insertFinite(period.Period{Server: server, Start: freedStart, End: end})
	return nil
}

// IdleAt reports whether the server has no commitment at instant t.
func (f *Flat) IdleAt(server int, t period.Time) bool {
	return f.busy[server].idleAt(t)
}

// BusyBetween returns the committed time of one server inside [a, b).
func (f *Flat) BusyBetween(server int, a, b period.Time) period.Duration {
	return f.busy[server].busyBetween(a, b)
}

// Utilization returns the fraction of total capacity committed in [a, b).
func (f *Flat) Utilization(a, b period.Time) float64 {
	return utilization(f.busy, a, b)
}

// CheckConsistency rebuilds the expected contents of every active slot from
// the reservation lists and compares them with the actual profiles, and
// verifies each profile's sort order.
func (f *Flat) CheckConsistency() error {
	if err := checkGround(f.busy, f.tails, f.genesis); err != nil {
		return err
	}
	q := int64(f.cfg.Slots)
	for abs := f.base; abs < f.base+q; abs++ {
		w0 := period.Time(abs * int64(f.cfg.SlotSize))
		want := wantSlot(f.busy, f.genesis, w0, w0+period.Time(f.cfg.SlotSize))
		got := f.slots.at(abs)
		if len(got) != len(want) {
			return fmt.Errorf("calendar: slot %d has %d periods, want %d", abs, len(got), len(want))
		}
		for k, g := range got {
			if !want[g] {
				return fmt.Errorf("calendar: slot %d holds unexpected period %+v", abs, g)
			}
			if k > 0 && flatCmp(got[k-1], g) >= 0 {
				return fmt.Errorf("calendar: slot %d out of order at %d: %+v before %+v", abs, k, got[k-1], g)
			}
		}
	}
	return nil
}

// flatSearchRO is the flat backend's view search: a nil ops counter makes
// the read entirely side-effect free.
func flatSearchRO(slot []period.Period, start, end period.Time) []period.Period {
	return flatFeasible(slot[:flatCandidates(slot, start, nil)], end, 0, nil, nil)
}

// flatCountRO is len(flatSearchRO(...)), counted over the candidate prefix.
func flatCountRO(slot []period.Period, start, end period.Time) int {
	n := 0
	for _, p := range slot[:flatCandidates(slot, start, nil)] {
		if p.End >= end {
			n++
		}
	}
	return n
}

// PublishView captures the backend's current searchable state as an
// immutable View — the same publication as Calendar.PublishView; no profile
// is copied until one is mutated.
func (f *Flat) PublishView() View {
	return &view[[]period.Period]{
		cfg:        f.cfg,
		now:        f.now,
		epoch:      f.mut,
		base:       f.base,
		horizonEnd: f.HorizonEnd(),
		slots:      f.slots.publish(),
		tails:      f.tails.cloneRO(),
		search:     flatSearchRO,
		count:      flatCountRO,
	}
}

// SnapshotData captures the backend's persistent state in the
// backend-neutral form shared with Calendar: ground truth only, indexes
// rebuilt on restore.
func (f *Flat) SnapshotData() SnapshotData {
	return makeSnapshotData(f.cfg, f.now, f.genesis, f.busy, f.ops)
}

// Snapshot serializes the backend so it can be restored after a restart.
func (f *Flat) Snapshot(w io.Writer) error {
	return gob.NewEncoder(w).Encode(f.SnapshotData())
}

// FlatFromSnapshotData rebuilds a flat backend (including every slot profile
// and the tail index) from captured state.
func FlatFromSnapshotData(s SnapshotData) (*Flat, error) {
	busy, err := restoreGround(s)
	if err != nil {
		return nil, err
	}
	f := &Flat{
		cfg:     s.Config,
		ops:     s.Ops,
		now:     s.Now,
		genesis: s.Genesis,
		base:    int64(s.Now) / int64(s.Config.SlotSize),
		slots:   newRing(s.Config.Slots, cloneProfile),
		busy:    busy,
	}
	f.tails = newTailIndex(s.Config.Servers, s.Genesis, &f.ops)
	for srv := range f.busy {
		if start := f.busy[srv].tailStart(s.Genesis); start != s.Genesis {
			f.tails.update(srv, s.Genesis, start)
		}
	}
	q := int64(s.Config.Slots)
	for abs := f.base; abs < f.base+q; abs++ {
		f.fillSlot(abs)
	}
	// Index rebuilding above counts into f.ops; restoring a snapshot must
	// not inflate the workload metric, so reinstate the captured value.
	f.ops = s.Ops
	return f, nil
}
