package grid

import (
	"time"

	"coalloc/internal/obs"
	"coalloc/internal/period"
)

// ProbeResult couples a site's availability for a window with its total
// capacity, so one probe round-trip gives a strategy both numbers — the
// split decision never mixes a fresh availability with a stale or failed
// capacity fetch.
type ProbeResult struct {
	Available int
	Capacity  int
	// Epoch is the site's availability epoch the answer was computed at;
	// zero means the site (an old server binary) does not report epochs and
	// the answer must not be cached. See Site.ProbeView.
	Epoch uint64
	// SiteNow is the site clock the answer is valid through: a later probe
	// with now <= SiteNow and an unchanged Epoch would get the same answer.
	SiteNow period.Time
}

// RangeResult is the epoch-tagged result of a per-site range search.
type RangeResult struct {
	Feasible []period.Period
	Epoch    uint64 // zero: not cacheable (see ProbeResult.Epoch)
	SiteNow  period.Time
}

// Conn is the broker's view of one site. Implementations include the
// in-process LocalConn below and the net/rpc client in internal/wire; tests
// also wrap it for failure injection.
type Conn interface {
	// Name returns the site's identifier; brokers prepare sites in Name
	// order to stay deadlock-free across concurrent brokers.
	Name() string
	// Servers returns the site's capacity.
	Servers() (int, error)
	// Probe reports how many servers could be co-allocated over [start, end)
	// together with the site's capacity, in one round trip.
	Probe(now, start, end period.Time) (ProbeResult, error)
	// Prepare leases servers for the window under holdID (2PC phase 1).
	Prepare(now period.Time, holdID string, start, end period.Time, servers int, lease period.Duration) ([]int, error)
	// Commit finalizes a hold (2PC phase 2).
	Commit(now period.Time, holdID string) error
	// Abort releases a hold.
	Abort(now period.Time, holdID string) error
}

// RangeConn is the optional Conn extension for sites that answer the
// user-facing range search of §4.2. Broker.RangeAll uses it where available;
// connections without it report availability only through Probe.
type RangeConn interface {
	Conn
	// RangeView lists the idle periods feasible for the window, tagged with
	// the epoch metadata a caching broker needs.
	RangeView(now, start, end period.Time) (RangeResult, error)
}

// TracedConn is the optional Conn extension for connections that can carry
// trace context to the site, so the site's own spans (view lookup, queue
// wait, WAL flush) parent correctly under the broker's spans. Like
// RangeConn, it is discovered by type assertion: a broker talking to an
// old connection falls back to the untraced methods, and the request
// simply has no site-side spans.
type TracedConn interface {
	Conn
	// ProbeTraced is Probe carrying the caller's span context.
	ProbeTraced(tc obs.SpanContext, now, start, end period.Time) (ProbeResult, error)
	// PrepareTraced is Prepare carrying the caller's span context.
	PrepareTraced(tc obs.SpanContext, now period.Time, holdID string, start, end period.Time, servers int, lease period.Duration) ([]int, error)
	// CommitTraced is Commit carrying the caller's span context.
	CommitTraced(tc obs.SpanContext, now period.Time, holdID string) error
	// AbortTraced is Abort carrying the caller's span context.
	AbortTraced(tc obs.SpanContext, now period.Time, holdID string) error
}

// ConflictPrepareConn is the optional Conn extension for prepare calls that
// carry the epoch the caller's probe was answered at, so the site can tell
// "capacity taken since your probe" (a typed *ConflictError the broker
// retries in the same window) from "never had capacity" (a plain refusal
// that burns a Δt rung). Discovered by type assertion like RangeConn: old
// connections — and new connections talking to old servers, which answer
// with a plain error — degrade to the unclassified behavior.
type ConflictPrepareConn interface {
	Conn
	// PrepareConflict is PrepareTraced carrying the probed epoch; see
	// Site.PrepareConflictTraced for the classification rule.
	PrepareConflict(tc obs.SpanContext, now period.Time, holdID string, start, end period.Time, servers int, lease period.Duration, probedEpoch uint64) ([]int, error)
}

// connProbe routes a probe through the traced path when both sides can:
// the connection implements TracedConn and the caller actually has a span.
func connProbe(c Conn, tc obs.SpanContext, now, start, end period.Time) (ProbeResult, error) {
	if t, ok := c.(TracedConn); ok && tc.Valid() {
		return t.ProbeTraced(tc, now, start, end)
	}
	return c.Probe(now, start, end)
}

// connPrepare is connProbe's twin for phase 1, routed through the
// conflict-aware path when the connection supports it and the caller
// actually probed (probedEpoch != 0); otherwise conflicts surface as plain
// errors.
func connPrepare(c Conn, tc obs.SpanContext, now period.Time, holdID string, start, end period.Time, servers int, lease period.Duration, probedEpoch uint64) ([]int, error) {
	if cc, ok := c.(ConflictPrepareConn); ok && probedEpoch != 0 {
		return cc.PrepareConflict(tc, now, holdID, start, end, servers, lease, probedEpoch)
	}
	if t, ok := c.(TracedConn); ok && tc.Valid() {
		return t.PrepareTraced(tc, now, holdID, start, end, servers, lease)
	}
	return c.Prepare(now, holdID, start, end, servers, lease)
}

// connCommit is connProbe's twin for the commit decision.
func connCommit(c Conn, tc obs.SpanContext, now period.Time, holdID string) error {
	if t, ok := c.(TracedConn); ok && tc.Valid() {
		return t.CommitTraced(tc, now, holdID)
	}
	return c.Commit(now, holdID)
}

// connAbort is connProbe's twin for the abort decision.
func connAbort(c Conn, tc obs.SpanContext, now period.Time, holdID string) error {
	if t, ok := c.(TracedConn); ok && tc.Valid() {
		return t.AbortTraced(tc, now, holdID)
	}
	return c.Abort(now, holdID)
}

// LocalConn adapts an in-process *Site to the Conn interface.
type LocalConn struct {
	Site *Site
}

// Name implements Conn.
func (l LocalConn) Name() string { return l.Site.Name() }

// Servers implements Conn.
func (l LocalConn) Servers() (int, error) { return l.Site.Servers(), nil }

// Probe implements Conn.
func (l LocalConn) Probe(now, start, end period.Time) (ProbeResult, error) {
	n, epoch, siteNow := l.Site.ProbeView(now, start, end)
	return ProbeResult{
		Available: n,
		Capacity:  l.Site.Servers(),
		Epoch:     epoch,
		SiteNow:   siteNow,
	}, nil
}

// RangeSearch lists the feasible start periods for the window on the local
// site — the per-site leg of the user-facing range search.
func (l LocalConn) RangeSearch(now, start, end period.Time) ([]period.Period, error) {
	return l.Site.RangeSearch(now, start, end), nil
}

// RangeView implements RangeConn.
func (l LocalConn) RangeView(now, start, end period.Time) (RangeResult, error) {
	feasible, epoch, siteNow := l.Site.RangeSearchView(now, start, end)
	return RangeResult{Feasible: feasible, Epoch: epoch, SiteNow: siteNow}, nil
}

// Prepare implements Conn.
func (l LocalConn) Prepare(now period.Time, holdID string, start, end period.Time, servers int, lease period.Duration) ([]int, error) {
	return l.Site.Prepare(now, holdID, start, end, servers, lease)
}

// Commit implements Conn.
func (l LocalConn) Commit(now period.Time, holdID string) error {
	return l.Site.Commit(now, holdID)
}

// Abort implements Conn.
func (l LocalConn) Abort(now period.Time, holdID string) error {
	return l.Site.Abort(now, holdID)
}

// ProbeTraced implements TracedConn.
func (l LocalConn) ProbeTraced(tc obs.SpanContext, now, start, end period.Time) (ProbeResult, error) {
	n, epoch, siteNow := l.Site.ProbeViewTraced(tc, now, start, end)
	return ProbeResult{
		Available: n,
		Capacity:  l.Site.Servers(),
		Epoch:     epoch,
		SiteNow:   siteNow,
	}, nil
}

// PrepareTraced implements TracedConn.
func (l LocalConn) PrepareTraced(tc obs.SpanContext, now period.Time, holdID string, start, end period.Time, servers int, lease period.Duration) ([]int, error) {
	return l.Site.PrepareTraced(tc, now, holdID, start, end, servers, lease)
}

// PrepareConflict implements ConflictPrepareConn.
func (l LocalConn) PrepareConflict(tc obs.SpanContext, now period.Time, holdID string, start, end period.Time, servers int, lease period.Duration, probedEpoch uint64) ([]int, error) {
	return l.Site.PrepareConflictTraced(tc, now, holdID, start, end, servers, lease, probedEpoch)
}

// CommitTraced implements TracedConn.
func (l LocalConn) CommitTraced(tc obs.SpanContext, now period.Time, holdID string) error {
	return l.Site.CommitTraced(tc, now, holdID)
}

// AbortTraced implements TracedConn.
func (l LocalConn) AbortTraced(tc obs.SpanContext, now period.Time, holdID string) error {
	return l.Site.AbortTraced(tc, now, holdID)
}

// WatchEpoch implements WatchConn: the in-process long poll is a direct
// park on the site's publish broadcast.
func (l LocalConn) WatchEpoch(after uint64, maxWait time.Duration) (EpochEvent, bool, error) {
	epoch, salt, siteNow, changed := l.Site.WaitEpoch(after, maxWait)
	return EpochEvent{Epoch: epoch, Salt: salt, SiteNow: siteNow}, changed, nil
}

// ProbeBatch implements BatchProbeConn: in process there is no round trip
// to amortize, so it simply answers every window from the read path.
func (l LocalConn) ProbeBatch(now period.Time, windows []Window) ([]ProbeResult, error) {
	out := make([]ProbeResult, len(windows))
	capacity := l.Site.Servers()
	for i, w := range windows {
		n, epoch, siteNow := l.Site.ProbeView(now, w.Start, w.End)
		out[i] = ProbeResult{Available: n, Capacity: capacity, Epoch: epoch, SiteNow: siteNow}
	}
	return out, nil
}

var (
	_ RangeConn           = LocalConn{}
	_ TracedConn          = LocalConn{}
	_ WatchConn           = LocalConn{}
	_ BatchProbeConn      = LocalConn{}
	_ ConflictPrepareConn = LocalConn{}
)
