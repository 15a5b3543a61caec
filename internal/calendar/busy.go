package calendar

import (
	"fmt"
	"sort"

	"coalloc/internal/period"
)

// interval is a committed reservation [start, end) on one server.
type interval struct {
	start, end period.Time
}

// busyList holds one server's committed reservations as a sorted list of
// disjoint intervals. It is the calendar's ground truth: the idle periods
// stored in the slot trees are exactly the maximal gaps of this list.
type busyList struct {
	iv []interval
}

// insert adds a reservation. It returns an error if the reservation overlaps
// an existing one — that would mean the caller double-booked the server.
func (b *busyList) insert(start, end period.Time) error {
	if end <= start {
		return fmt.Errorf("calendar: empty reservation [%d,%d)", start, end)
	}
	i := len(b.iv) // most reservations start after every other: skip the search
	if i > 0 && b.iv[i-1].start >= start {
		i = sort.Search(len(b.iv), func(k int) bool { return b.iv[k].start >= start })
	}
	if i > 0 && b.iv[i-1].end > start {
		return fmt.Errorf("calendar: reservation [%d,%d) overlaps [%d,%d)", start, end, b.iv[i-1].start, b.iv[i-1].end)
	}
	if i < len(b.iv) && b.iv[i].start < end {
		return fmt.Errorf("calendar: reservation [%d,%d) overlaps [%d,%d)", start, end, b.iv[i].start, b.iv[i].end)
	}
	b.iv = append(b.iv, interval{})
	copy(b.iv[i+1:], b.iv[i:])
	b.iv[i] = interval{start, end}
	return nil
}

// truncate shrinks the reservation that ends at oldEnd so that it ends at
// newEnd instead (early release). It reports whether such a reservation was
// found.
func (b *busyList) truncate(oldStart, oldEnd, newEnd period.Time) bool {
	i := sort.Search(len(b.iv), func(k int) bool { return b.iv[k].start >= oldStart })
	if i >= len(b.iv) || b.iv[i].start != oldStart || b.iv[i].end != oldEnd {
		return false
	}
	if newEnd <= oldStart {
		// Reservation vanishes entirely.
		b.iv = append(b.iv[:i], b.iv[i+1:]...)
		return true
	}
	b.iv[i].end = newEnd
	return true
}

// prevIdleBoundary returns the left edge of the idle gap immediately before
// time t: the end of the last reservation ending at or before t, or genesis.
// Reservations are disjoint, so ends are sorted like starts.
func (b *busyList) prevIdleBoundary(genesis, t period.Time) period.Time {
	i := sort.Search(len(b.iv), func(k int) bool { return b.iv[k].end > t })
	if i == 0 {
		return genesis
	}
	return b.iv[i-1].end
}

// nextBusyStart returns the start of the first reservation beginning at or
// after t.
func (b *busyList) nextBusyStart(t period.Time) (period.Time, bool) {
	i := sort.Search(len(b.iv), func(k int) bool { return b.iv[k].start >= t })
	if i == len(b.iv) {
		return 0, false
	}
	return b.iv[i].start, true
}

// tailStart returns where the list's trailing idle period starts: the end
// of its last reservation, or genesis.
func (b *busyList) tailStart(genesis period.Time) period.Time {
	if n := len(b.iv); n > 0 {
		return b.iv[n-1].end
	}
	return genesis
}

// covering returns the idle gap of server, whose list this is, that covers
// [start, end), if any — PeriodCovering on both backends.
func (b *busyList) covering(genesis period.Time, server int, start, end period.Time) (period.Period, bool) {
	i := sort.Search(len(b.iv), func(k int) bool { return b.iv[k].end > start })
	if i < len(b.iv) && b.iv[i].start <= start {
		return period.Period{}, false // busy at start
	}
	p := period.Period{Server: server, Start: genesis, End: period.Infinity}
	if i > 0 {
		p.Start = b.iv[i-1].end
	}
	if i < len(b.iv) {
		p.End = b.iv[i].start
	}
	if !p.FeasibleFor(start, end) {
		return period.Period{}, false
	}
	return p, true
}

// gapsOverlapping appends to out the maximal *finite* idle gaps of the list
// (including the genesis gap before the first reservation) that overlap the
// window [w0, w1). The trailing gap after the last reservation is unbounded
// and is managed by the tail index, so it is never reported here.
func (b *busyList) gapsOverlapping(genesis, w0, w1 period.Time, server int, out []period.Period) []period.Period {
	prevEnd := genesis
	// Skip reservations that end at or before the window start while
	// keeping track of the preceding gap boundary. A gap (prevEnd, start)
	// overlaps the window iff start > w0 and prevEnd < w1.
	i := sort.Search(len(b.iv), func(k int) bool { return b.iv[k].end > w0 })
	if i > 0 {
		prevEnd = b.iv[i-1].end
	}
	for ; i < len(b.iv); i++ {
		gap := period.Period{Server: server, Start: prevEnd, End: b.iv[i].start}
		if gap.Start >= w1 {
			break
		}
		if !gap.Empty() && gap.Overlaps(w0, w1) {
			out = append(out, gap)
		}
		prevEnd = b.iv[i].end
	}
	return out
}

// busyBetween returns the total reserved time inside [a, b).
func (b *busyList) busyBetween(a, bEnd period.Time) period.Duration {
	var total period.Duration
	i := sort.Search(len(b.iv), func(k int) bool { return b.iv[k].end > a })
	for ; i < len(b.iv) && b.iv[i].start < bEnd; i++ {
		lo, hi := b.iv[i].start, b.iv[i].end
		if lo < a {
			lo = a
		}
		if hi > bEnd {
			hi = bEnd
		}
		if hi > lo {
			total += period.Duration(hi - lo)
		}
	}
	return total
}

// idleAt reports whether the server is idle at instant t.
func (b *busyList) idleAt(t period.Time) bool {
	i := sort.Search(len(b.iv), func(k int) bool { return b.iv[k].end > t })
	return i >= len(b.iv) || b.iv[i].start > t
}

// utilization returns the fraction of the servers' capacity committed in
// [a, b) — Utilization on both backends.
func utilization(busy []busyList, a, b period.Time) float64 {
	if b <= a || len(busy) == 0 {
		return 0
	}
	var total period.Duration
	for srv := range busy {
		total += busy[srv].busyBetween(a, b)
	}
	return float64(total) / (float64(b-a) * float64(len(busy)))
}

// checkGround validates the ground truth both backends share: every
// reservation list, and the tail index against each list's last
// reservation. wantSlot then gives what each slot must index.
func checkGround(busy []busyList, tails *tailIndex, genesis period.Time) error {
	for srv := range busy {
		if err := busy[srv].check(); err != nil {
			return err
		}
		want := busy[srv].tailStart(genesis)
		if got, ok := tails.startOf(srv); !ok || got != want {
			return fmt.Errorf("calendar: server %d tail = %d, want %d", srv, got, want)
		}
	}
	return nil
}

// wantSlot returns the finite idle periods overlapping [w0, w1), rebuilt
// from every server's reservations.
func wantSlot(busy []busyList, genesis, w0, w1 period.Time) map[period.Period]bool {
	want := map[period.Period]bool{}
	var buf []period.Period
	for srv := range busy {
		buf = busy[srv].gapsOverlapping(genesis, w0, w1, srv, buf[:0])
		for _, g := range buf {
			want[g] = true
		}
	}
	return want
}

// check validates sortedness and disjointness (tests).
func (b *busyList) check() error {
	for i := 1; i < len(b.iv); i++ {
		if b.iv[i].start < b.iv[i-1].end {
			return fmt.Errorf("calendar: busy intervals overlap: [%d,%d) then [%d,%d)",
				b.iv[i-1].start, b.iv[i-1].end, b.iv[i].start, b.iv[i].end)
		}
	}
	for _, iv := range b.iv {
		if iv.end <= iv.start {
			return fmt.Errorf("calendar: empty busy interval [%d,%d)", iv.start, iv.end)
		}
	}
	return nil
}
