package wire

// Conflict compatibility suite: the conflict classification added to
// Prepare must cross the wire between modern peers as the typed error, and
// degrade to the old plain-error behavior against every legacy peer. The
// gate is PrepareArgs.ProbedEpoch: a legacy client never sends it (gob
// decodes the missing field as zero), so the server never answers it with
// the nil-error-plus-Conflict reply shape a legacy decoder would misread as
// a successful prepare.

import (
	"errors"
	"net"
	"net/rpc"
	"testing"

	"coalloc/internal/core"
	"coalloc/internal/grid"
	"coalloc/internal/obs"
	"coalloc/internal/period"
)

// startConflictSite is startSite returning the served site too, so tests
// can mutate it behind the client's back.
func startConflictSite(t *testing.T, name string, servers int) (*grid.Site, *Client) {
	t.Helper()
	site, err := grid.NewSite(name, core.Config{
		Servers:  servers,
		SlotSize: 15 * period.Minute,
		Slots:    96,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(site)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	siteAddrs.Store(name, l.Addr().String())
	c, err := Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return site, c
}

// stealServers commits a foreign hold directly on the site, moving its
// epoch past anything the client probed.
func stealServers(t *testing.T, site *grid.Site, n int, start, end period.Time) {
	t.Helper()
	if _, err := site.Prepare(0, "thief", start, end, n, period.Hour); err != nil {
		t.Fatalf("steal prepare: %v", err)
	}
	if err := site.Commit(0, "thief"); err != nil {
		t.Fatalf("steal commit: %v", err)
	}
}

// TestConflictCrossesWireTyped pins the modern↔modern direction: a capacity
// refusal at a moved epoch arrives at the client as the typed
// *grid.ConflictError carrying the site's current epoch.
func TestConflictCrossesWireTyped(t *testing.T) {
	site, c := startConflictSite(t, "conflict-wire", 4)
	start, end := period.Time(period.Hour), period.Time(2*period.Hour)

	r, err := c.Probe(0, start, end)
	if err != nil {
		t.Fatal(err)
	}
	if r.Epoch == 0 {
		t.Fatal("modern server reports no epoch")
	}
	stealServers(t, site, 3, start, end)

	_, err = c.PrepareConflict(obs.SpanContext{}, 0, "h1", start, end, 4, period.Hour, r.Epoch)
	if err == nil {
		t.Fatal("prepare of 4 servers with 1 free succeeded over the wire")
	}
	var ce *grid.ConflictError
	if !errors.As(err, &ce) || !errors.Is(err, grid.ErrConflict) {
		t.Fatalf("wire refusal not typed as conflict: %v", err)
	}
	if ce.Site != "conflict-wire" || ce.Epoch != site.Epoch() {
		t.Fatalf("conflict carries %q epoch %d, want %q %d", ce.Site, ce.Epoch, "conflict-wire", site.Epoch())
	}

	// The same call without a probed epoch is an old-style prepare: plain
	// error, no classification.
	if _, err := c.PrepareTraced(obs.SpanContext{}, 0, "h2", start, end, 4, period.Hour); err == nil || errors.Is(err, grid.ErrConflict) {
		t.Fatalf("epochless prepare classified as conflict: %v", err)
	}
}

// TestLegacyClientNeverSeesConflictReply pins the dangerous direction: a
// legacy client (no ProbedEpoch in its schema) prepares into a conflict and
// must receive a plain RPC error — never the nil-error reply whose Servers
// field it would read as an empty successful grant.
func TestLegacyClientNeverSeesConflictReply(t *testing.T) {
	site, _ := startConflictSite(t, "conflict-old-client", 4)
	addr, _ := siteAddrs.Load("conflict-old-client")
	rc, err := rpc.Dial("tcp", addr.(string))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	start, end := period.Time(period.Hour), period.Time(2*period.Hour)
	stealServers(t, site, 3, start, end)

	var reply LegacyPrepareReply
	err = rc.Call(ServiceName+".Prepare", LegacyPrepareArgs{
		Now: 0, HoldID: "h1", Start: start, End: end, Servers: 4, Lease: period.Hour,
	}, &reply)
	if err == nil {
		t.Fatalf("legacy client got a nil-error prepare refusal (servers %v) — it would treat this as a grant", reply.Servers)
	}
	if site.PendingHolds() != 0 {
		t.Fatalf("refused prepare left %d holds", site.PendingHolds())
	}
}

// TestLegacyServerDegradesConflictToPlainError pins the other direction: a modern
// client sending ProbedEpoch at an old server (whose schema drops the
// field) gets the historical plain error back, never a conflict — and a
// broker federating that site still co-allocates, burning the Δt rung as
// before the conflict path existed.
func TestLegacyServerDegradesConflictToPlainError(t *testing.T) {
	site, c := startLegacySite(t, "conflict-old-server", 4)
	start, end := period.Time(period.Hour), period.Time(2*period.Hour)
	stealServers(t, site, 3, start, end)

	_, err := c.PrepareConflict(obs.SpanContext{}, 0, "h1", start, end, 4, period.Hour, 42)
	if err == nil || errors.Is(err, grid.ErrConflict) {
		t.Fatalf("legacy server refusal classified as conflict: %v", err)
	}

	br, err := grid.NewBroker(grid.BrokerConfig{BreakerThreshold: -1, MaxAttempts: 8}, c)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := br.CoAllocate(0, grid.Request{ID: 1, Start: start, Duration: period.Hour, Servers: 2})
	if err != nil {
		t.Fatalf("co-allocation against legacy site: %v", err)
	}
	if alloc.TotalServers() != 2 {
		t.Fatalf("granted %d servers, want 2", alloc.TotalServers())
	}
	if alloc.Attempts == 1 {
		t.Fatal("request over the stolen window cannot succeed without walking the ladder")
	}
	if st := br.Stats(); st.Conflicts != 0 {
		t.Fatalf("broker counted %d conflicts against a legacy site", st.Conflicts)
	}
}
