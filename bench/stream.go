package main

import (
	"container/heap"
	"math/rand"
	"sync"

	"coalloc/internal/grid"
	"coalloc/internal/job"
	"coalloc/internal/period"
	"coalloc/internal/workload"
)

// Stream constants shared by every workload (ISSUE 11: one job stream).
const (
	warmJobs     = 5000 // replayed un-timed into every fixture
	arFraction   = 0.3  // rho: share of jobs that are advance reservations
	arMaxLead    = 3 * period.Hour
	releaseEvery = 4 // every 4th granted job is released at half its duration
)

// genJobs is the seeded job stream: the KTH-calibrated generator with 30%
// advance reservations. The program under test only ever sees the requests.
func genJobs(n int, seed int64) []job.Request {
	return workload.WithAdvanceReservations(workload.KTH().Generate(n, seed), arFraction, arMaxLead, seed+1)
}

// pendingRelease is a granted job waiting for the virtual clock to reach half
// its duration.
type pendingRelease struct {
	at    period.Time
	alloc grid.MultiAllocation
}

type releaseHeap []pendingRelease

func (h releaseHeap) Len() int            { return len(h) }
func (h releaseHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h releaseHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *releaseHeap) Push(x interface{}) { *h = append(*h, x.(pendingRelease)) }
func (h *releaseHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// cursor hands jobs to the clients in stream order, together with the early
// releases that fall due before each job. One cursor is shared by every
// client of a workload, so the stream is consumed exactly once.
type cursor struct {
	mu       sync.Mutex
	jobs     []job.Request
	next     int
	limit    int // jobs[limit:] are never handed out
	granted  int // grants seen, for the every-4th release rule
	releases releaseHeap
	inFlight []period.Time // submit times of jobs taken and not yet done, ascending
}

// take returns the next job, the releases due at its submit time, and the
// virtual clock to run them at; ok is false once the stream (or the fixed
// job budget) is exhausted. The caller must call done(j) afterwards.
//
// The clock is the submit time of the oldest job still in flight. With one
// client that is the job's own submit time. With two, a per-job clock would
// let the client holding the later job push the sites' clocks past the
// earlier job's start — and, the stream being compressed to a job per
// millisecond but ~12 virtual minutes, past its holds' lease — before the
// earlier job is decided. Requests in flight together happen at the same
// moment; the low-water mark is that moment.
func (c *cursor) take() (j job.Request, due []grid.MultiAllocation, now period.Time, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.next >= c.limit {
		return job.Request{}, nil, 0, false
	}
	j = c.jobs[c.next]
	c.next++
	c.inFlight = append(c.inFlight, j.Submit)
	now = c.inFlight[0]
	for len(c.releases) > 0 && c.releases[0].at <= now {
		due = append(due, heap.Pop(&c.releases).(pendingRelease).alloc)
	}
	return j, due, now, true
}

// done retires a job taken earlier, letting the clock move past it.
func (c *cursor) done(j job.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, t := range c.inFlight {
		if t == j.Submit {
			c.inFlight = append(c.inFlight[:i], c.inFlight[i+1:]...)
			return
		}
	}
}

// noteGrant records a grant and schedules every 4th one for early release.
func (c *cursor) noteGrant(a grid.MultiAllocation) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.granted++
	if c.granted%releaseEvery == 0 {
		half := a.Start.Add(period.Duration(a.End-a.Start) / 2)
		heap.Push(&c.releases, pendingRelease{at: half, alloc: a})
	}
}

// window is one probe target.
type window struct{ start, end period.Time }

// probeWindows draws n windows from the next 7 days × {1,2,4,8 h} after
// base, slot-aligned: 672 starts × 4 lengths ≈ 2,700 distinct windows, far
// more than any cache or branch predictor can pin. The horizon is those same
// 7 days, so the latest and longest run past it and are answered "none".
func probeWindows(n int, base period.Time, seed int64) []window {
	rng := rand.New(rand.NewSource(seed))
	first := (base/period.Time(slotSize) + 1) * period.Time(slotSize)
	lengths := []period.Duration{1 * period.Hour, 2 * period.Hour, 4 * period.Hour, 8 * period.Hour}
	out := make([]window, n)
	for i := range out {
		s := first.Add(slotSize * period.Duration(rng.Intn(7*96)))
		out[i] = window{start: s, end: s.Add(lengths[rng.Intn(len(lengths))])}
	}
	return out
}

// toRequest is the co-allocation a job asks the broker for.
func toRequest(j job.Request) grid.Request {
	return grid.Request{ID: j.ID, Start: j.Start, Duration: j.Duration, Servers: j.Servers}
}
