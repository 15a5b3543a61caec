// Package obs is the system's zero-dependency telemetry layer: atomic
// counters and gauges, windowed latency histograms with quantile estimates,
// a named registry that renders itself in expvar-style JSON or Prometheus
// text exposition format, and a flight recorder of per-request span trees.
//
// Everything here is stdlib-only and safe for concurrent use. The package
// deliberately knows nothing about schedulers or brokers: the instrumented
// packages (internal/grid, internal/wire, internal/wal, internal/replica)
// define *what* to measure and obs defines *how* measurements are stored
// and exposed. The paper's algorithm layers (internal/dtree,
// internal/calendar, internal/core) do not import it: their cost is the
// counted operations of calendar.OpsBreakdown and their outcomes core.Stats.
package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value that can move in both directions.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histogram geometry: observations are durations bucketed by the position
// of their most significant bit, so bucket i covers [2^i, 2^(i+1)) ns.
// 64 buckets cover every representable duration.
const histBuckets = 64

// Histogram is a windowed latency histogram. Observations land in
// power-of-two nanosecond buckets inside the current window; every
// Window/NumWindows the oldest window is dropped, so quantile estimates
// reflect roughly the last Window of traffic rather than the process
// lifetime. Lifetime count and sum are kept separately and never expire.
//
// A Histogram is safe for concurrent use.
type Histogram struct {
	mu        sync.Mutex
	window    time.Duration // total lookback
	slot      time.Duration // window / numWindows
	wins      [][histBuckets]uint64
	cur       int   // index of the active window
	curSlot   int64 // absolute slot index the active window covers
	count     uint64
	sum       time.Duration
	maxSeen   time.Duration
	nowFn     func() time.Time
	exemplars [histBuckets]exemplar
}

// exemplar links a histogram bucket to the most recent traced observation
// that landed in it, so a quantile estimate can point at a concrete trace
// in the flight recorder. Exemplars do not expire with the window ring:
// "the last trace this slow" stays useful after the spike has rotated out
// of the quantiles.
type exemplar struct {
	traceID uint64
	d       time.Duration
}

// DefaultWindow is the lookback used by NewHistogram callers that do not
// care: quantiles cover roughly the last minute of observations.
const DefaultWindow = time.Minute

// NewHistogram creates a histogram whose quantiles cover roughly the last
// `window` of observations, tracked in numWindows rotating sub-windows
// (more sub-windows: smoother expiry, more memory). window <= 0 takes
// DefaultWindow; numWindows < 2 takes 4.
func NewHistogram(window time.Duration, numWindows int) *Histogram {
	if window <= 0 {
		window = DefaultWindow
	}
	if numWindows < 2 {
		numWindows = 4
	}
	return &Histogram{
		window: window,
		slot:   window / time.Duration(numWindows),
		wins:   make([][histBuckets]uint64, numWindows),
		nowFn:  time.Now,
	}
}

// setClock injects a deterministic clock; tests only.
func (h *Histogram) setClock(fn func() time.Time) {
	h.mu.Lock()
	h.nowFn = fn
	h.mu.Unlock()
}

// bucketOf maps a duration to its power-of-two bucket.
func bucketOf(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return bits.Len64(uint64(d)) - 1
}

// rotateLocked advances the window ring to cover the current slot.
func (h *Histogram) rotateLocked() {
	abs := h.nowFn().UnixNano() / int64(h.slot)
	if abs == h.curSlot {
		return
	}
	steps := abs - h.curSlot
	if steps < 0 {
		return // clock went backwards; keep accumulating in place
	}
	if steps > int64(len(h.wins)) {
		steps = int64(len(h.wins))
	}
	for i := int64(0); i < steps; i++ {
		h.cur = (h.cur + 1) % len(h.wins)
		h.wins[h.cur] = [histBuckets]uint64{}
	}
	h.curSlot = abs
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) { h.ObserveTrace(d, 0) }

// ObserveTrace records one duration and, when traceID is nonzero, stamps
// it as the bucket's exemplar — the trace a later p99 estimate in that
// bucket will point at.
func (h *Histogram) ObserveTrace(d time.Duration, traceID uint64) {
	if d < 0 {
		d = 0
	}
	b := bucketOf(d)
	h.mu.Lock()
	h.rotateLocked()
	h.wins[h.cur][b]++
	h.count++
	h.sum += d
	if d > h.maxSeen {
		h.maxSeen = d
	}
	if traceID != 0 {
		h.exemplars[b] = exemplar{traceID: traceID, d: d}
	}
	h.mu.Unlock()
}

// Since observes the time elapsed since t0. It is designed for
// `defer h.Since(time.Now())`.
func (h *Histogram) Since(t0 time.Time) { h.Observe(time.Since(t0)) }

// SinceTrace is Since with an exemplar trace ID.
func (h *Histogram) SinceTrace(t0 time.Time, traceID uint64) {
	h.ObserveTrace(time.Since(t0), traceID)
}

// Count returns the lifetime number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the lifetime sum of observed durations.
func (h *Histogram) Sum() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Max returns the largest duration ever observed.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.maxSeen
}

// mergedLocked folds every live window into one bucket array.
func (h *Histogram) mergedLocked() (merged [histBuckets]uint64, total uint64) {
	h.rotateLocked()
	for w := range h.wins {
		for b, n := range h.wins[w] {
			merged[b] += n
			total += n
		}
	}
	return merged, total
}

// quantileOf extracts the q-quantile from a merged bucket array.
func (h *Histogram) quantileOf(merged [histBuckets]uint64, total uint64, q float64) time.Duration {
	d, _ := h.quantileBucket(merged, total, q)
	return d
}

// quantileBucket is quantileOf plus the index of the bucket holding the
// quantile (-1 when the window is empty), for exemplar lookup.
func (h *Histogram) quantileBucket(merged [histBuckets]uint64, total uint64, q float64) (time.Duration, int) {
	if total == 0 || math.IsNaN(q) {
		return 0, -1
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for b, n := range merged {
		seen += n
		if seen >= rank {
			lo := float64(uint64(1) << uint(b))
			return time.Duration(lo * math.Sqrt2), b
		}
	}
	return h.maxSeen, histBuckets - 1
}

// exemplarFor returns the trace stamped on the bucket holding the
// q-quantile, walking down to nearby lower buckets when the exact bucket
// was never traced (an untraced caller can land observations in a bucket
// no traced request ever hit).
func (h *Histogram) exemplarFor(bucket int) uint64 {
	for b := bucket; b >= 0 && b > bucket-3; b-- {
		if h.exemplars[b].traceID != 0 {
			return h.exemplars[b].traceID
		}
	}
	return 0
}

// Quantile estimates the q-quantile (0 < q <= 1) of the observations in the
// current lookback window. The estimate is the geometric midpoint of the
// bucket containing the quantile, so it is accurate to within a factor of
// sqrt(2). With no windowed observations it returns 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	merged, total := h.mergedLocked()
	return h.quantileOf(merged, total, q)
}

// Snapshot returns (count, sum, p50, p95, p99) in one locked pass —
// the rendering surface used by the registry.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	merged, total := h.mergedLocked()
	s := HistogramSnapshot{
		Count:       h.count,
		WindowCount: total,
		Sum:         h.sum,
	}
	var b50, b95, b99 int
	s.P50, b50 = h.quantileBucket(merged, total, 0.50)
	s.P95, b95 = h.quantileBucket(merged, total, 0.95)
	s.P99, b99 = h.quantileBucket(merged, total, 0.99)
	if b50 >= 0 {
		s.P50Trace = h.exemplarFor(b50)
		s.P95Trace = h.exemplarFor(b95)
		s.P99Trace = h.exemplarFor(b99)
	}
	return s
}

// HistogramSnapshot is a point-in-time view of a Histogram. WindowCount is
// the number of observations inside the lookback window the quantiles are
// computed over; when it is zero the quantiles are meaningless (the zeros
// are placeholders, not measurements) and renderers must say so rather than
// report a false 0s latency.
// The PxxTrace fields carry the exemplar trace ID nearest each quantile's
// bucket (0 when no traced observation landed nearby); renderers surface
// them so a quantile spike points at a concrete trace in /debug/traces.
type HistogramSnapshot struct {
	Count                        uint64
	WindowCount                  uint64
	Sum                          time.Duration
	P50, P95, P99                time.Duration
	P50Trace, P95Trace, P99Trace uint64
}

// String renders the snapshot compactly.
func (s HistogramSnapshot) String() string {
	return fmt.Sprintf("count=%d sum=%v p50=%v p95=%v p99=%v", s.Count, s.Sum, s.P50, s.P95, s.P99)
}
