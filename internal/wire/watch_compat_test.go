package wire

// Watch and batch-probe compatibility suite, in the mold of the epoch
// compat tests: the two RPCs added in the watch PR must be invisible to old
// peers in both directions. An old server answers them "can't find method",
// which the client maps to the grid sentinels so the broker degrades to
// passive invalidation and per-window probes. The stream itself must
// survive a server restart by re-subscribing.

import (
	"errors"
	"net"
	"testing"
	"time"

	"coalloc/internal/core"
	"coalloc/internal/grid"
	"coalloc/internal/period"
)

// TestLegacyServerWatchUnsupported pins the degradation signal: calling the
// watch or the batch probe on a binary that predates them yields the grid
// sentinels, not a raw rpc error.
func TestLegacyServerWatchUnsupported(t *testing.T) {
	_, c := startLegacySite(t, "old-watch", 4)
	_, _, err := c.WatchEpoch(0, 50*time.Millisecond)
	if !errors.Is(err, grid.ErrWatchUnsupported) {
		t.Fatalf("watch against legacy server = %v, want ErrWatchUnsupported", err)
	}
	_, err = c.ProbeBatch(0, []grid.Window{{Start: 0, End: period.Time(period.Hour)}})
	if !errors.Is(err, grid.ErrProbeBatchUnsupported) {
		t.Fatalf("batch probe against legacy server = %v, want ErrProbeBatchUnsupported", err)
	}
}

// TestWatchOverRPC exercises the long poll against a modern server: an
// after=0 poll answers immediately with the current epoch, a poll at the
// current epoch parks until a mutation publishes, and an idle poll expires
// unchanged.
func TestWatchOverRPC(t *testing.T) {
	c := startSite(t, "watch-rpc", 4)
	ev, changed, err := c.WatchEpoch(0, time.Second)
	if err != nil || !changed {
		t.Fatalf("baseline poll = %+v changed=%v err=%v", ev, changed, err)
	}
	if ev.Epoch == 0 || ev.Salt == 0 {
		t.Fatalf("baseline event missing epoch metadata: %+v", ev)
	}

	// An idle poll at the current epoch expires unchanged.
	if _, changed, err = c.WatchEpoch(ev.Epoch, 50*time.Millisecond); err != nil || changed {
		t.Fatalf("idle poll changed=%v err=%v", changed, err)
	}

	// A parked poll wakes on a mutation.
	type answer struct {
		ev      grid.EpochEvent
		changed bool
		err     error
	}
	got := make(chan answer, 1)
	go func() {
		ev2, ch, err2 := c.WatchEpoch(ev.Epoch, 5*time.Second)
		got <- answer{ev2, ch, err2}
	}()
	time.Sleep(20 * time.Millisecond) // let the poll park server-side
	if _, err := c.Prepare(0, "h1", 0, period.Time(period.Hour), 2, 600); err != nil {
		t.Fatal(err)
	}
	select {
	case a := <-got:
		if a.err != nil || !a.changed {
			t.Fatalf("parked poll = %+v", a)
		}
		if a.ev.Epoch == ev.Epoch || a.ev.Salt != ev.Salt {
			t.Fatalf("parked poll event = %+v, want a new epoch under salt %#x", a.ev, ev.Salt)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked poll never woke on the mutation")
	}
}

// TestProbeBatchOverRPC pins the batched ladder probe end to end: one RPC,
// per-window answers tagged with the same epoch metadata the unary probe
// reports.
func TestProbeBatchOverRPC(t *testing.T) {
	c := startSite(t, "batch-rpc", 4)
	h := period.Time(period.Hour)
	if _, err := c.Prepare(0, "h1", 0, h, 3, 600); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(0, "h1"); err != nil {
		t.Fatal(err)
	}
	wins := []grid.Window{{Start: 0, End: h}, {Start: h, End: 2 * h}, {Start: 2 * h, End: 3 * h}}
	rs, err := c.ProbeBatch(0, wins)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(wins) {
		t.Fatalf("batch answered %d windows, want %d", len(rs), len(wins))
	}
	unary, err := c.Probe(0, 0, h)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Available != 1 || rs[1].Available != 4 || rs[2].Available != 4 {
		t.Fatalf("batch availabilities = %d/%d/%d, want 1/4/4", rs[0].Available, rs[1].Available, rs[2].Available)
	}
	for i, r := range rs {
		if r.Epoch != unary.Epoch || r.Capacity != 4 {
			t.Fatalf("window %d epoch/capacity = %#x/%d, unary probe says %#x/4", i, r.Epoch, r.Capacity, unary.Epoch)
		}
	}
}

// TestBrokerWatchDegradesOverLegacySite is the interop acceptance test for
// the watch: a broker configured to watch a legacy site must behave exactly
// like a passive caching broker — correct through a 2PC cycle, no watch
// traffic, no stream-gap churn.
func TestBrokerWatchDegradesOverLegacySite(t *testing.T) {
	_, c := startLegacySite(t, "old-watch-broker", 4)
	br, err := grid.NewBroker(grid.BrokerConfig{
		ProbeCache:       true,
		CacheWatch:       true,
		BatchProbe:       true,
		WatchPoll:        50 * time.Millisecond,
		BreakerThreshold: -1,
	}, c)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	w := period.Time(period.Hour)
	if av := br.ProbeAll(0, 0, w)[0]; av.Err != nil || av.Available != 4 {
		t.Fatalf("probe = %+v", av)
	}
	if _, err := br.CoAllocate(0, grid.Request{ID: 1, Start: 0, Duration: period.Hour, Servers: 3}); err != nil {
		t.Fatal(err)
	}
	if av := br.ProbeAll(0, 0, w)[0]; av.Err != nil || av.Available != 1 {
		t.Fatalf("probe after commit = %+v, want 1", av)
	}
	// Give the watch loop time to have tried (and permanently stopped).
	time.Sleep(100 * time.Millisecond)
	cs := br.CacheStats()
	if cs.WatchEvents != 0 || cs.WatchGaps != 0 || cs.BatchProbes != 0 {
		t.Fatalf("legacy site produced watch/batch traffic: %+v", cs)
	}
}

// TestWatchReconnectAcrossServerRestart pins the stream's survival story: a
// severed watch transport is a recorded gap (conservative drop) and the
// loop re-subscribes once the server is back, resuming event delivery.
func TestWatchReconnectAcrossServerRestart(t *testing.T) {
	site, err := grid.NewSite("watch-restart", core.Config{
		Servers:  4,
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
	addr := l.Addr().String()
	go srv.Serve(l)

	c, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	br, err := grid.NewBroker(grid.BrokerConfig{
		ProbeCache:       true,
		CacheWatch:       true,
		WatchPoll:        50 * time.Millisecond,
		BreakerThreshold: -1,
	}, c)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()

	wait := func(what string, cond func(grid.CacheStats) bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond(br.CacheStats()) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: not reached (stats %+v)", what, br.CacheStats())
			}
			time.Sleep(time.Millisecond)
		}
	}
	wait("stream established", func(cs grid.CacheStats) bool { return cs.WatchEvents >= 1 })
	w := period.Time(period.Hour)
	if av := br.ProbeAll(0, 0, w)[0]; av.Err != nil || av.Available != 4 {
		t.Fatalf("probe = %+v", av)
	}

	// Kill the server — Shutdown force-closes the watch connection after the
	// grace, so the parked poll errors out, the loop records one gap, and
	// the site's entries drop conservatively.
	srv.Shutdown(200 * time.Millisecond)
	wait("gap recorded and entries dropped", func(cs grid.CacheStats) bool {
		return cs.WatchGaps >= 1 && cs.Entries == 0
	})

	// Mutate the site while the broker cannot hear it: the whole point of
	// the conservative drop is that this mutation cannot be missed.
	if _, err := site.Prepare(0, "h1", 0, w, 2, 600); err != nil {
		t.Fatal(err)
	}
	if err := site.Commit(0, "h1"); err != nil {
		t.Fatal(err)
	}

	// Restart on the same address (retrying the bind against the closing
	// listener) and the loop must re-subscribe and resume delivery.
	before := br.CacheStats().WatchEvents
	srv2, err := NewServer(site)
	if err != nil {
		t.Fatal(err)
	}
	var l2 net.Listener
	for deadline := time.Now().Add(5 * time.Second); ; {
		if l2, err = net.Listen("tcp", addr); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	go srv2.Serve(l2)
	t.Cleanup(func() { srv2.Close() })

	wait("events resumed after restart", func(cs grid.CacheStats) bool { return cs.WatchEvents > before })
	// The main transport notices the restart on its first call and redials;
	// the answer must then reflect the mutation made while the stream was
	// down.
	deadline := time.Now().Add(5 * time.Second)
	for {
		av := br.ProbeAll(0, 0, w)[0]
		if av.Err == nil {
			if av.Available != 2 {
				t.Fatalf("probe after restart = %+v, want the committed state 2", av)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("probe never recovered after restart: %v", av.Err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
