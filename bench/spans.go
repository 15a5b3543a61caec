package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Bench-owned spans: recorded by the decorators around each call into a
// layer, kept in memory, written out at exit. Spans inside the program (its
// own flight recorder) are not the source of any number in this harness.

// Span names, one per decorated seam. The prefix before the dot is the layer
// on the far side of the seam.
const (
	spCoalloc  = "op.coalloc"
	spProbeAll = "op.probe_all"
	spRangeAll = "op.range_all"
	spRelease  = "op.release"
	spProbe    = "conn.probe"
	spRange    = "conn.range"
	spBatch    = "conn.probe_batch"
	spPrepare  = "conn.prepare"
	spCommit   = "conn.commit"
	spAbort    = "conn.abort"
	spWALOne   = "wal.append"
	spWALBatch = "wal.append_batch"
	spReplica  = "replica.append"
)

// spanNames lists the span names; a recorded span stores the index.
var spanNames = []string{spCoalloc, spProbeAll, spRangeAll, spRelease, spProbe, spRange, spBatch,
	spPrepare, spCommit, spAbort, spWALOne, spWALBatch, spReplica}

func spanKind(name string) uint8 {
	for i, n := range spanNames {
		if n == name {
			return uint8(i)
		}
	}
	panic("bench: unknown span name " + name)
}

// span is one timed call. Op spans are roots (parent 0); conn spans parent
// under the op that issued them; wal and replica spans parent under the conn
// span that was waiting on them.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the store's epoch
	End    int64  `json:"end_ns"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`

	site  int    // index of the site behind the seam; -1 for op spans
	trace uint64 // broker trace id carried by the call, 0 when none
	n     int    // payload count: records in a WAL/replica batch, windows in a probe batch
	bytes int    // payload bytes of a WAL batch
	ok    bool   // op spans: granted / answered; conn spans: no error
}

func (s span) dur() int64 { return s.End - s.Start }

// rawSpan is a span as recorded: no pointers, so the garbage collector never
// scans the store however many spans it holds.
type rawSpan struct {
	start, end int64
	trace      uint64
	n, bytes   int32
	site       int8
	kind       uint8
	ok         bool
}

// maxSpans bounds the store: a probe workload records ~100k spans/s, and
// nothing here needs more than a few seconds of them.
const maxSpans = 1 << 20

// spanStore collects spans from every goroutine. Recording is off until
// enable(true); when off a decorator costs one atomic load.
type spanStore struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []rawSpan
}

func newSpanStore() *spanStore {
	return &spanStore{epoch: time.Now(), spans: make([]rawSpan, 0, 1<<16)}
}

func (st *spanStore) enable(on bool) {
	if st != nil {
		st.on.Store(on)
	}
}

func (st *spanStore) enabled() bool { return st != nil && st.on.Load() }

// add records one finished span; once the store is full further spans are
// dropped.
func (st *spanStore) add(s span, t0, t1 time.Time) {
	r := rawSpan{
		start: int64(t0.Sub(st.epoch)), end: int64(t1.Sub(st.epoch)), trace: s.trace,
		n: int32(s.n), bytes: int32(s.bytes), site: int8(s.site), kind: spanKind(s.Name), ok: s.ok,
	}
	st.mu.Lock()
	if len(st.spans) < maxSpans {
		st.spans = append(st.spans, r)
	}
	st.mu.Unlock()
}

// snapshot returns the recorded spans, ids assigned in recording order.
func (st *spanStore) snapshot() []span {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]span, len(st.spans))
	for i, r := range st.spans {
		out[i] = span{Name: spanNames[r.kind], Start: r.start, End: r.end, ID: uint64(i + 1),
			site: int(r.site), trace: r.trace, n: int(r.n), bytes: int(r.bytes), ok: r.ok}
	}
	return out
}

// interval is a half-open [a, b) stretch of time.
type interval struct{ a, b int64 }

// covered returns how much of [lo, hi) the intervals cover, counting
// overlapping stretches once.
func covered(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.a < lo {
			iv.a = lo
		}
		if iv.b > hi {
			iv.b = hi
		}
		if iv.b > iv.a {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].a < clipped[j].a })
	var total, end int64 = 0, lo
	for _, iv := range clipped {
		if iv.a > end {
			end = iv.a
		}
		if iv.b > end {
			total += iv.b - end
			end = iv.b
		}
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(parent span, children []span) int64 {
	ivs := make([]interval, len(children))
	for i, c := range children {
		ivs[i] = interval{c.Start, c.End}
	}
	return parent.dur() - covered(parent.Start, parent.End, ivs)
}

// linkSpans fills in Parent and Op after the run. The seams cannot carry an
// op id through the program, so the links are rebuilt from what they do
// carry:
//
//   - conn spans of one request share the broker's trace id (a call that
//     carries none is a group of one); the group is given to the op span
//     that contains all of it most tightly (with two clients in flight an op
//     can sit wholly inside the other's interval; the tighter fit is the
//     owner).
//   - a wal span parents under a conn write span on the same site that was
//     in flight while it ran. A group commit is one fsync that every writer
//     in the batch waited for; the file names one of them, the analysis
//     (analyse) charges the overlap to each.
//   - a replica span parents under the wal span it overlaps on that site.
//
// Spans that match nothing (watch-driven probes, warm-up stragglers) keep
// parent 0 and are left out of the per-op budget.
func linkSpans(spans []span) {
	var ops []int
	groups := make(map[uint64][]int)
	var wals, reps, writes []int
	for i, s := range spans {
		switch s.Name {
		case spCoalloc, spProbeAll, spRangeAll, spRelease:
			ops = append(ops, i)
		case spWALOne, spWALBatch:
			wals = append(wals, i)
		case spReplica:
			reps = append(reps, i)
		default:
			// Calls that carry no trace id (RangeView, ProbeBatch) are each
			// their own group, keyed above any real trace id's range of use.
			key := s.trace
			if key == 0 {
				key = ^uint64(i)
			}
			groups[key] = append(groups[key], i)
			if s.Name == spPrepare || s.Name == spCommit || s.Name == spAbort {
				writes = append(writes, i)
			}
		}
	}
	sort.Slice(ops, func(a, b int) bool { return spans[ops[a]].Start < spans[ops[b]].Start })
	for _, g := range groups {
		lo, hi := spans[g[0]].Start, spans[g[0]].End
		for _, i := range g[1:] {
			if spans[i].Start < lo {
				lo = spans[i].Start
			}
			if spans[i].End > hi {
				hi = spans[i].End
			}
		}
		// Ops are sorted by start; the owner starts at or before lo.
		first := sort.Search(len(ops), func(k int) bool { return spans[ops[k]].Start > lo })
		best, bestSlack := -1, int64(0)
		// In-flight ops are bounded by the client count, but a long op can
		// start many positions back; 64 is far beyond any client count here.
		for k := first - 1; k >= 0 && k >= first-64; k-- {
			o := spans[ops[k]]
			if o.End < hi {
				continue
			}
			slack := (lo - o.Start) + (o.End - hi)
			if best < 0 || slack < bestSlack {
				best, bestSlack = ops[k], slack
			}
		}
		if best < 0 {
			continue
		}
		for _, i := range g {
			spans[i].Parent = spans[best].ID
			spans[i].Op = spans[best].ID
		}
	}
	for _, i := range ops {
		spans[i].Op = spans[i].ID
	}
	sort.Slice(writes, func(a, b int) bool { return spans[writes[a]].Start < spans[writes[b]].Start })
	// overlapping finds, among cands (sorted by start), a span on s's site
	// that was in flight while s ran. Spans in flight together are bounded
	// by the client count, so a short look-back from the first candidate
	// that starts after s ends is enough.
	overlapping := func(s span, cands []int) int {
		after := sort.Search(len(cands), func(k int) bool { return spans[cands[k]].Start >= s.End })
		for k := after - 1; k >= 0 && k >= after-64; k-- {
			if c := spans[cands[k]]; c.site == s.site && c.End > s.Start {
				return cands[k]
			}
		}
		return -1
	}
	for _, i := range wals {
		if p := overlapping(spans[i], writes); p >= 0 {
			spans[i].Parent, spans[i].Op = spans[p].ID, spans[p].Op
		}
	}
	sort.Slice(wals, func(a, b int) bool { return spans[wals[a]].Start < spans[wals[b]].Start })
	for _, i := range reps {
		if p := overlapping(spans[i], wals); p >= 0 {
			spans[i].Parent, spans[i].Op = spans[p].ID, spans[p].Op
		}
	}
}

// spansFileLimit bounds the JSONL dump; the numbers come from memory, the
// file is for a reader who wants to look at individual requests.
const spansFileLimit = 200000

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		if i >= spansFileLimit {
			break
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
