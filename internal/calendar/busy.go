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
	i := sort.Search(len(b.iv), func(k int) bool { return b.iv[k].start >= start })
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

// last returns the final reservation and whether any exists.
func (b *busyList) last() (interval, bool) {
	if len(b.iv) == 0 {
		return interval{}, false
	}
	return b.iv[len(b.iv)-1], true
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
