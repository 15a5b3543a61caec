package grid

import (
	"errors"
	"sync"
	"testing"

	"coalloc/internal/obs"
	"coalloc/internal/period"
)

// TestTryWindowZeroCommitRetriesStillCommits: a zero-value CommitRetries must
// still deliver the commit decision once, not skip phase 2 and strand every
// prepared hold until its lease expires. applyDefaults is the one clamp;
// TestBrokerConfigClampsNegativeCommitRetries covers the negatives.
func TestTryWindowZeroCommitRetriesStillCommits(t *testing.T) {
	s := mustSite(t, "a", 4)
	b, err := NewBroker(BrokerConfig{Name: "raw", MaxAttempts: 1, CommitRetries: 0}, LocalConn{Site: s})
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := b.CoAllocate(0, Request{ID: 1, Start: 0, Duration: period.Hour, Servers: 2})
	if err != nil {
		t.Fatalf("CoAllocate with zero CommitRetries: %v", err)
	}
	if alloc.TotalServers() != 2 {
		t.Fatalf("granted %d servers, want 2", alloc.TotalServers())
	}
	if got := s.PendingHolds(); got != 0 {
		t.Fatalf("%d holds left undecided: the commit loop never ran", got)
	}
	if _, committed, _, _ := s.Stats(); committed != 1 {
		t.Fatalf("committed = %d, want 1", committed)
	}
}

// TestBrokerConfigClampsNegativeCommitRetries covers the defaults path for
// explicit negatives, not just the zero value.
func TestBrokerConfigClampsNegativeCommitRetries(t *testing.T) {
	cfg := BrokerConfig{CommitRetries: -5, ProbeWorkers: -2}
	cfg.applyDefaults()
	if cfg.CommitRetries < 1 {
		t.Fatalf("CommitRetries = %d after defaults, want >= 1", cfg.CommitRetries)
	}
	if cfg.ProbeWorkers < 1 {
		t.Fatalf("ProbeWorkers = %d after defaults, want >= 1", cfg.ProbeWorkers)
	}
}

// TestBrokerPartialCommitAbortsCommitted pins the phase-2 compensation: when
// commit fails at one site after succeeding at another, the broker must
// abort the committed share so its capacity returns to the pool, rather
// than leaving it allocated for the full job duration.
func TestBrokerPartialCommitAbortsCommitted(t *testing.T) {
	a, b2 := mustSite(t, "a", 4), mustSite(t, "b", 4)
	bad := &failingConn{Conn: LocalConn{Site: b2}, failCommit: true}
	br, err := NewBroker(BrokerConfig{Strategy: LoadBalance{}}, LocalConn{Site: a}, bad)
	if err != nil {
		t.Fatal(err)
	}
	_, err = br.CoAllocate(0, Request{ID: 1, Start: 0, Duration: period.Hour, Servers: 6})
	var ce *CommitError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want CommitError", err)
	}
	if len(ce.Aborted) != 1 || ce.Aborted[0] != "a" {
		t.Fatalf("aborted = %v, want [a]", ce.Aborted)
	}
	// Site a's committed share was released: full capacity is probeable
	// again. Before the compensation fix this reported 1 (3 of 4 servers
	// stranded by the failed co-allocation).
	if got := a.Probe(0, 0, period.Time(period.Hour)); got != 4 {
		t.Fatalf("site a availability after compensation = %d, want 4", got)
	}
	if st := br.Stats(); st.Aborts == 0 {
		t.Fatalf("compensating abort not counted: %+v", st)
	}
}

// TestProbeFanoutSurfacesUnreachableSites pins the probe error propagation:
// a site whose probe fails must surface Avail{Err: ...} with BOTH numbers
// zero — a zero availability with a live capacity would tempt a strategy
// into planning around a site the broker cannot talk to — and must move the
// unreachable counter.
func TestProbeFanoutSurfacesUnreachableSites(t *testing.T) {
	reg := obs.NewRegistry()
	a, b2 := mustSite(t, "a", 4), mustSite(t, "b", 4)
	dead := &failingConn{Conn: LocalConn{Site: b2}, failProbe: true}
	br, err := NewBroker(BrokerConfig{Registry: reg}, LocalConn{Site: a}, dead)
	if err != nil {
		t.Fatal(err)
	}
	avail := br.ProbeAll(0, 0, period.Time(period.Hour))
	if len(avail) != 2 {
		t.Fatalf("probed %d sites, want 2", len(avail))
	}
	for _, av := range avail {
		switch av.Conn.Name() {
		case "a":
			if av.Err != nil || av.Available != 4 || av.Capacity != 4 {
				t.Fatalf("site a = %+v, want 4/4 with no error", av)
			}
		case "b":
			if av.Err == nil {
				t.Fatal("unreachable site b carries no error")
			}
			if av.Available != 0 || av.Capacity != 0 {
				t.Fatalf("unreachable site b = avail %d cap %d, want 0/0", av.Available, av.Capacity)
			}
		}
	}
	if got := reg.Counter("broker.probe.unreachable").Value(); got != 1 {
		t.Fatalf("unreachable counter = %d, want 1", got)
	}
}

// TestFanOutVisitsEverySiteOnceWithinItsBound: every site index is visited
// exactly once, on no more goroutines than ProbeWorkers allows, whether the
// bound is below, at or above the site count — and the caller's goroutine is
// one of them, so a one-worker round spawns nothing.
func TestFanOutVisitsEverySiteOnceWithinItsBound(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 5, 8} {
		b := &Broker{cfg: BrokerConfig{ProbeWorkers: workers}, sites: make([]Conn, 5)}
		bound := max(min(workers, len(b.sites)), 1)
		var mu sync.Mutex
		visits := make([]int, len(b.sites))
		running, peak := 0, 0
		gate := make(chan struct{})
		go func() {
			// Hold the first arrivals until every worker the bound allows
			// could have started, so the peak is the bound, not a race.
			for i := 0; i < bound; i++ {
				gate <- struct{}{}
			}
			close(gate)
		}()
		b.fanOut(func(i int) {
			mu.Lock()
			visits[i]++
			running++
			peak = max(peak, running)
			mu.Unlock()
			<-gate
			mu.Lock()
			running--
			mu.Unlock()
		})
		for i, n := range visits {
			if n != 1 {
				t.Fatalf("workers=%d: site %d visited %d times", workers, i, n)
			}
		}
		if peak > bound {
			t.Fatalf("workers=%d: %d legs ran at once, bound %d", workers, peak, bound)
		}
	}
}
