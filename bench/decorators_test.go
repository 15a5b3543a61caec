package main

import (
	"net"
	"testing"
	"time"

	"coalloc/internal/grid"
	"coalloc/internal/obs"
	"coalloc/internal/period"
	"coalloc/internal/wal"
	"coalloc/internal/wire"
)

// assertAllSurfaces fails if c lost any of the five optional Conn surfaces
// the broker discovers by type assertion.
func assertAllSurfaces(t *testing.T, what string, c grid.Conn) {
	t.Helper()
	if _, ok := c.(grid.RangeConn); !ok {
		t.Errorf("%s lost grid.RangeConn", what)
	}
	if _, ok := c.(grid.TracedConn); !ok {
		t.Errorf("%s lost grid.TracedConn", what)
	}
	if _, ok := c.(grid.ConflictPrepareConn); !ok {
		t.Errorf("%s lost grid.ConflictPrepareConn", what)
	}
	if _, ok := c.(grid.WatchConn); !ok {
		t.Errorf("%s lost grid.WatchConn", what)
	}
	if _, ok := c.(grid.BatchProbeConn); !ok {
		t.Errorf("%s lost grid.BatchProbeConn", what)
	}
}

func testSite(t *testing.T) *grid.Site {
	t.Helper()
	s, err := newSite(0, "")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTimedConnKeepsEverySurface(t *testing.T) {
	site := testSite(t)
	local, err := newTimedConn(grid.LocalConn{Site: site}, 0, newSpanStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	assertAllSurfaces(t, "timedConn(LocalConn)", local)

	srv, err := wire.NewServer(site)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Shutdown(time.Second)
	client, err := wire.DialConfig("tcp", l.Addr().String(), wire.ClientConfig{DialTimeout: dialTimeout, CallTimeout: callTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	remote, err := newTimedConn(client, 0, newSpanStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	assertAllSurfaces(t, "timedConn(*wire.Client)", remote)
}

// thinConn implements grid.Conn and nothing else.
type thinConn struct{ grid.Conn }

func TestTimedConnRefusesAThinConn(t *testing.T) {
	if _, err := newTimedConn(thinConn{grid.LocalConn{Site: testSite(t)}}, 0, nil, nil); err == nil {
		t.Fatal("wrapping a Conn without the optional surfaces must fail, not silently claim them")
	}
}

// TestTimedConnForwardsEveryCall drives each method through the decorator,
// spans on, and checks the call reached the site and left a span.
func TestTimedConnForwardsEveryCall(t *testing.T) {
	site := testSite(t)
	st := newSpanStore()
	st.enable(true)
	log := &shareLog{}
	c, err := newTimedConn(grid.LocalConn{Site: site}, 0, st, log)
	if err != nil {
		t.Fatal(err)
	}
	tc := obs.SpanContext{TraceID: 7, SpanID: 9}
	start, end := period.Time(period.Hour), period.Time(2*period.Hour)
	if r, err := c.ProbeTraced(tc, 0, start, end); err != nil || r.Available != siteServers[0] || r.Epoch == 0 {
		t.Fatalf("ProbeTraced = %+v, %v", r, err)
	}
	if r, err := c.RangeView(0, start, end); err != nil || len(r.Feasible) != siteServers[0] {
		t.Fatalf("RangeView = %d periods, %v", len(r.Feasible), err)
	}
	if r, err := c.ProbeBatch(0, []grid.Window{{Start: start, End: end}, {Start: end, End: end.Add(period.Hour)}}); err != nil || len(r) != 2 {
		t.Fatalf("ProbeBatch = %d results, %v", len(r), err)
	}
	if ev, _, err := c.WatchEpoch(0, time.Second); err != nil || ev.Epoch == 0 {
		t.Fatalf("WatchEpoch = %+v, %v", ev, err)
	}
	got, err := c.PrepareConflict(tc, 0, "h1", start, end, 3, period.Hour, site.Epoch())
	if err != nil || len(got) != 3 {
		t.Fatalf("PrepareConflict = %v, %v", got, err)
	}
	if err := c.CommitTraced(tc, 0, "h1"); err != nil {
		t.Fatal(err)
	}
	if _, committed := site.LookupHold("h1"); !committed {
		t.Fatal("commit did not reach the site")
	}
	if err := c.AbortTraced(tc, 0, "h1"); err != nil {
		t.Fatal(err)
	}
	if _, committed := site.LookupHold("h1"); committed {
		t.Fatal("abort did not reach the site")
	}
	want := map[string]int{spProbe: 1, spRange: 1, spBatch: 1, spPrepare: 1, spCommit: 1, spAbort: 1}
	for _, s := range st.snapshot() {
		want[s.Name]--
	}
	for name, missing := range want {
		if missing != 0 {
			t.Errorf("span %s: off by %d", name, missing)
		}
	}
	if len(log.ops) != 4 { // probe, prepare, commit, abort
		t.Errorf("share log has %d ops, want 4", len(log.ops))
	}
}

// batchCounter is a grid.BatchWAL that records how it was called.
type batchCounter struct{ singles, batches, records int }

func (b *batchCounter) Append([]byte) (uint64, error) { b.singles++; return 0, nil }
func (b *batchCounter) AppendBatch(r [][]byte) (uint64, error) {
	b.batches++
	b.records += len(r)
	return 0, nil
}
func (b *batchCounter) Checkpoint([]byte) error { return nil }

// singleWAL is a grid.WAL without AppendBatch.
type singleWAL struct{}

func (singleWAL) Append([]byte) (uint64, error) { return 0, nil }
func (singleWAL) Checkpoint([]byte) error       { return nil }

func TestTimedWALKeepsGroupCommit(t *testing.T) {
	log, _, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	tw, err := newTimedWAL(log, 0, newSpanStore())
	if err != nil {
		t.Fatal(err)
	}
	var w grid.WAL = tw
	if _, ok := w.(grid.BatchWAL); !ok {
		t.Fatal("timedWAL(*wal.Log) lost grid.BatchWAL: every group commit would become single appends")
	}
	if _, err := newTimedWAL(singleWAL{}, 0, nil); err == nil {
		t.Fatal("wrapping a WAL without AppendBatch must fail, not silently claim it")
	}

	// A site journaling through the decorator must still flush a
	// multi-record batch with one AppendBatch.
	inner := &batchCounter{}
	st := newSpanStore()
	st.enable(true)
	tw, err = newTimedWAL(inner, 0, st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tw.AppendBatch([][]byte{[]byte("ab"), []byte("cde")}); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.Append([]byte("f")); err != nil {
		t.Fatal(err)
	}
	if inner.batches != 1 || inner.records != 2 || inner.singles != 1 {
		t.Fatalf("inner saw %+v", *inner)
	}
	if tw.flushes.Load() != 2 || tw.records.Load() != 3 || tw.bytes.Load() != 6 {
		t.Fatalf("counters: flushes %d records %d bytes %d", tw.flushes.Load(), tw.records.Load(), tw.bytes.Load())
	}
	if n := len(st.snapshot()); n != 2 {
		t.Fatalf("%d wal spans, want 2", n)
	}
}
