package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"coalloc/internal/grid"
	"coalloc/internal/obs"
	"coalloc/internal/period"
	"coalloc/internal/replica"
)

// fullConn is everything a broker can discover on a connection. The broker
// finds the optional surfaces by type assertion, so a decorator that drops
// one silently benchmarks the legacy fallback ladder; timedConn therefore
// implements all five and refuses to wrap a connection that lacks any.
type fullConn interface {
	grid.Conn
	grid.RangeConn
	grid.TracedConn
	grid.ConflictPrepareConn
	grid.WatchConn
	grid.BatchProbeConn
}

// shareOp is one site-level operation as the broker issued it; the recorded
// sequence is what the direct layer drivers replay.
type shareOp struct {
	kind       string // spProbe, spPrepare, spCommit, spAbort
	site       int
	now        period.Time
	hold       string
	start, end period.Time
	servers    int
}

// shareLog records the share stream in issue order.
type shareLog struct {
	mu  sync.Mutex
	ops []shareOp
}

func (l *shareLog) add(op shareOp) {
	l.mu.Lock()
	l.ops = append(l.ops, op)
	l.mu.Unlock()
}

// timedConn times every call that crosses the broker→site seam.
type timedConn struct {
	inner fullConn
	site  int
	st    *spanStore
	log   *shareLog // nil unless the share stream is being recorded (spans on or off)
}

func newTimedConn(c grid.Conn, site int, st *spanStore, log *shareLog) (*timedConn, error) {
	fc, ok := c.(fullConn)
	if !ok {
		return nil, fmt.Errorf("bench: %T lacks an optional Conn surface; wrapping it would hide the loss", c)
	}
	return &timedConn{inner: fc, site: site, st: st, log: log}, nil
}

func (t *timedConn) record(name string, tc obs.SpanContext, t0 time.Time, n int, err error) {
	t.st.add(span{Name: name, site: t.site, trace: tc.TraceID, n: n, ok: err == nil}, t0, time.Now())
}

func (t *timedConn) Name() string          { return t.inner.Name() }
func (t *timedConn) Servers() (int, error) { return t.inner.Servers() }

func (t *timedConn) Probe(now, start, end period.Time) (grid.ProbeResult, error) {
	return t.ProbeTraced(obs.SpanContext{}, now, start, end)
}

func (t *timedConn) ProbeTraced(tc obs.SpanContext, now, start, end period.Time) (grid.ProbeResult, error) {
	if t.log != nil {
		t.log.add(shareOp{kind: spProbe, site: t.site, now: now, start: start, end: end})
	}
	if !t.st.enabled() {
		return t.inner.ProbeTraced(tc, now, start, end)
	}
	t0 := time.Now()
	r, err := t.inner.ProbeTraced(tc, now, start, end)
	t.record(spProbe, tc, t0, 1, err)
	return r, err
}

func (t *timedConn) RangeView(now, start, end period.Time) (grid.RangeResult, error) {
	if !t.st.enabled() {
		return t.inner.RangeView(now, start, end)
	}
	t0 := time.Now()
	r, err := t.inner.RangeView(now, start, end)
	t.record(spRange, obs.SpanContext{}, t0, 1, err)
	return r, err
}

func (t *timedConn) ProbeBatch(now period.Time, windows []grid.Window) ([]grid.ProbeResult, error) {
	if !t.st.enabled() {
		return t.inner.ProbeBatch(now, windows)
	}
	t0 := time.Now()
	r, err := t.inner.ProbeBatch(now, windows)
	t.record(spBatch, obs.SpanContext{}, t0, len(windows), err)
	return r, err
}

// WatchEpoch is forwarded untimed: it is a long poll parked on the site, not
// work on any request's path.
func (t *timedConn) WatchEpoch(after uint64, maxWait time.Duration) (grid.EpochEvent, bool, error) {
	return t.inner.WatchEpoch(after, maxWait)
}

func (t *timedConn) Prepare(now period.Time, holdID string, start, end period.Time, servers int, lease period.Duration) ([]int, error) {
	return t.PrepareConflict(obs.SpanContext{}, now, holdID, start, end, servers, lease, 0)
}

func (t *timedConn) PrepareTraced(tc obs.SpanContext, now period.Time, holdID string, start, end period.Time, servers int, lease period.Duration) ([]int, error) {
	return t.PrepareConflict(tc, now, holdID, start, end, servers, lease, 0)
}

func (t *timedConn) PrepareConflict(tc obs.SpanContext, now period.Time, holdID string, start, end period.Time, servers int, lease period.Duration, probedEpoch uint64) ([]int, error) {
	if t.log != nil {
		t.log.add(shareOp{kind: spPrepare, site: t.site, now: now, hold: holdID, start: start, end: end, servers: servers})
	}
	if !t.st.enabled() {
		return t.inner.PrepareConflict(tc, now, holdID, start, end, servers, lease, probedEpoch)
	}
	t0 := time.Now()
	got, err := t.inner.PrepareConflict(tc, now, holdID, start, end, servers, lease, probedEpoch)
	t.record(spPrepare, tc, t0, servers, err)
	return got, err
}

func (t *timedConn) Commit(now period.Time, holdID string) error {
	return t.CommitTraced(obs.SpanContext{}, now, holdID)
}

func (t *timedConn) CommitTraced(tc obs.SpanContext, now period.Time, holdID string) error {
	if t.log != nil {
		t.log.add(shareOp{kind: spCommit, site: t.site, now: now, hold: holdID})
	}
	if !t.st.enabled() {
		return t.inner.CommitTraced(tc, now, holdID)
	}
	t0 := time.Now()
	err := t.inner.CommitTraced(tc, now, holdID)
	t.record(spCommit, tc, t0, 1, err)
	return err
}

func (t *timedConn) Abort(now period.Time, holdID string) error {
	return t.AbortTraced(obs.SpanContext{}, now, holdID)
}

func (t *timedConn) AbortTraced(tc obs.SpanContext, now period.Time, holdID string) error {
	if t.log != nil {
		t.log.add(shareOp{kind: spAbort, site: t.site, now: now, hold: holdID})
	}
	if !t.st.enabled() {
		return t.inner.AbortTraced(tc, now, holdID)
	}
	t0 := time.Now()
	err := t.inner.AbortTraced(tc, now, holdID)
	t.record(spAbort, tc, t0, 1, err)
	return err
}

var _ fullConn = (*timedConn)(nil)

// timedWAL times every journal flush that crosses the site→log seam. It
// always presents grid.BatchWAL: the site picks AppendBatch by type
// assertion, and a decorator without it would turn every group commit into
// a run of single appends.
type timedWAL struct {
	inner grid.BatchWAL
	site  int
	st    *spanStore

	flushes atomic.Uint64
	records atomic.Uint64
	bytes   atomic.Uint64
}

func newTimedWAL(w grid.WAL, site int, st *spanStore) (*timedWAL, error) {
	bw, ok := w.(grid.BatchWAL)
	if !ok {
		return nil, fmt.Errorf("bench: %T is not a grid.BatchWAL; wrapping it would hide the loss", w)
	}
	return &timedWAL{inner: bw, site: site, st: st}, nil
}

func (t *timedWAL) count(records [][]byte) int {
	n := 0
	for _, r := range records {
		n += len(r)
	}
	t.flushes.Add(1)
	t.records.Add(uint64(len(records)))
	t.bytes.Add(uint64(n))
	return n
}

func (t *timedWAL) Append(record []byte) (uint64, error) {
	n := t.count([][]byte{record})
	if !t.st.enabled() {
		return t.inner.Append(record)
	}
	t0 := time.Now()
	lsn, err := t.inner.Append(record)
	t.st.add(span{Name: spWALOne, site: t.site, n: 1, bytes: n, ok: err == nil}, t0, time.Now())
	return lsn, err
}

func (t *timedWAL) AppendBatch(records [][]byte) (uint64, error) {
	n := t.count(records)
	if !t.st.enabled() {
		return t.inner.AppendBatch(records)
	}
	t0 := time.Now()
	lsn, err := t.inner.AppendBatch(records)
	t.st.add(span{Name: spWALBatch, site: t.site, n: len(records), bytes: n, ok: err == nil}, t0, time.Now())
	return lsn, err
}

func (t *timedWAL) Checkpoint(snapshot []byte) error { return t.inner.Checkpoint(snapshot) }

var _ grid.BatchWAL = (*timedWAL)(nil)

// timedReplica times every batch that crosses the primary→standby seam.
type timedReplica struct {
	inner replica.Conn
	site  int
	st    *spanStore

	batches atomic.Uint64
	records atomic.Uint64
}

func (t *timedReplica) Handshake(h replica.Hello) (replica.HelloReply, error) {
	return t.inner.Handshake(h)
}

func (t *timedReplica) ApplySnapshot(s replica.Snapshot) (uint64, error) {
	return t.inner.ApplySnapshot(s)
}

func (t *timedReplica) Append(b replica.Batch) (uint64, error) {
	t.batches.Add(1)
	t.records.Add(uint64(len(b.Records)))
	if !t.st.enabled() {
		return t.inner.Append(b)
	}
	t0 := time.Now()
	ack, err := t.inner.Append(b)
	t.st.add(span{Name: spReplica, site: t.site, n: len(b.Records), ok: err == nil}, t0, time.Now())
	return ack, err
}

func (t *timedReplica) Close() error { return t.inner.Close() }

var _ replica.Conn = (*timedReplica)(nil)
