package calendar

import (
	"sort"

	"coalloc/internal/period"
)

// tailEntry identifies one server's trailing idle period, which begins at
// start and extends through the moving horizon.
type tailEntry struct {
	start  period.Time
	server int
}

// tailIndex is an ordered index over every server's trailing idle period.
//
// The paper stores trailing idleness in the slot trees like any other idle
// period, which makes every trailing period appear in O(Q) trees and puts an
// O(Q) factor on each allocation that touches the end of the schedule. The
// index replaces those copies with a single ordered structure: a trailing
// period is a candidate for a request starting at s iff its start <= s, and
// it is then always feasible (its end is unbounded within the horizon), so
// counting and enumerating candidates is a predecessor query. This is a pure
// implementation refinement — searches return exactly the periods the
// paper's layout would return — and is called out in DESIGN.md.
type tailIndex struct {
	entries []tailEntry // sorted by (start, server)
	ops     *uint64
	ro      *tailIndex // the copy cloneRO last handed out; nil once update moved a tail
}

func newTailIndex(servers int, start period.Time, ops *uint64) *tailIndex {
	t := &tailIndex{entries: make([]tailEntry, servers), ops: ops}
	for i := range t.entries {
		t.entries[i] = tailEntry{start: start, server: i}
	}
	sort.Slice(t.entries, func(a, b int) bool { return t.entries[a].less(t.entries[b]) })
	return t
}

func (e tailEntry) less(f tailEntry) bool {
	if e.start != f.start {
		return e.start < f.start
	}
	return e.server < f.server
}

func (t *tailIndex) visit(n uint64) {
	if t.ops != nil {
		*t.ops += n
	}
}

// find returns the position of the exact entry, or -1.
func (t *tailIndex) find(e tailEntry) int {
	i := sort.Search(len(t.entries), func(k int) bool { return !t.entries[k].less(e) })
	t.visit(4)
	if i < len(t.entries) && t.entries[i] == e {
		return i
	}
	return -1
}

// update moves one server's trailing start from old to new.
func (t *tailIndex) update(server int, oldStart, newStart period.Time) {
	i := t.find(tailEntry{start: oldStart, server: server})
	if i < 0 {
		panic("calendar: tail index out of sync")
	}
	t.ro = nil
	t.entries = append(t.entries[:i], t.entries[i+1:]...)
	e := tailEntry{start: newStart, server: server}
	j := sort.Search(len(t.entries), func(k int) bool { return !t.entries[k].less(e) })
	t.visit(8)
	t.entries = append(t.entries, tailEntry{})
	copy(t.entries[j+1:], t.entries[j:])
	t.entries[j] = e
}

// candidates returns the number of trailing periods with start <= s.
func (t *tailIndex) candidates(s period.Time) int {
	n := sort.Search(len(t.entries), func(k int) bool { return t.entries[k].start > s })
	t.visit(4)
	return n
}

// collect appends up to max trailing periods with start <= s to out, latest
// start first (mirroring the paper's retrieval order, which yields the
// candidates closest to the requested start time first). max <= 0 collects
// all of them.
func (t *tailIndex) collect(s period.Time, max int, out []period.Period) []period.Period {
	i := sort.Search(len(t.entries), func(k int) bool { return t.entries[k].start > s })
	t.visit(4)
	appended := 0
	for i--; i >= 0; i-- {
		t.visit(1)
		out = append(out, period.Period{
			Server: t.entries[i].server,
			Start:  t.entries[i].start,
			End:    period.Infinity,
		})
		appended++
		if max > 0 && appended >= max {
			break
		}
	}
	return out
}

// cloneRO returns an immutable copy for a published view: the entries are
// copied and the operation counter is dropped, so concurrent readers calling
// candidates/collect perform no writes at all (visit is nil-safe). Views
// published with no tail moved in between share one copy.
func (t *tailIndex) cloneRO() *tailIndex {
	if t.ro == nil {
		t.ro = &tailIndex{entries: append([]tailEntry(nil), t.entries...)}
	}
	return t.ro
}

// start returns the trailing idle start of the given server.
func (t *tailIndex) startOf(server int) (period.Time, bool) {
	for _, e := range t.entries {
		if e.server == server {
			return e.start, true
		}
	}
	return 0, false
}
