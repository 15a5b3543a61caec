package grid

import (
	"errors"
	"testing"
	"time"

	"coalloc/internal/period"
)

// TestRestartedBrokerHoldIDsDoNotCollide pins the hold-ID restart fix: a
// broker restart resets its in-memory counter, and sites remember committed
// holds (in memory until the window closes, and across their own restarts
// via the WAL). Pre-patch, the restarted broker reissued "<name>-1", the
// site rejected it as a duplicate hold, and a perfectly healthy request
// failed. The per-instance epoch token makes incarnations disjoint.
func TestRestartedBrokerHoldIDsDoNotCollide(t *testing.T) {
	site := mustSite(t, "a", 4)

	b1, err := NewBroker(BrokerConfig{Name: "bk", MaxAttempts: 1}, LocalConn{Site: site})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b1.CoAllocate(0, Request{ID: 1, Start: 0, Duration: period.Hour, Servers: 2}); err != nil {
		t.Fatalf("first incarnation: %v", err)
	}

	// "Restart": a fresh broker with the same name, counter back at zero,
	// against the same site, which still remembers the committed hold.
	b2, err := NewBroker(BrokerConfig{Name: "bk", MaxAttempts: 1}, LocalConn{Site: site})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b2.CoAllocate(0, Request{ID: 2, Start: 0, Duration: period.Hour, Servers: 2}); err != nil {
		t.Fatalf("restarted broker collided with recovered hold: %v", err)
	}
	if site.PendingHolds() != 0 {
		t.Fatalf("%d holds left undecided", site.PendingHolds())
	}
}

// TestLegacyHoldIDFormatCollides documents why hold IDs carry a per-instance
// epoch: two same-named incarnations both start counting at one, and with
// the counter-only format they issued identical IDs.
func TestLegacyHoldIDFormatCollides(t *testing.T) {
	b1, err := NewBroker(BrokerConfig{Name: "bk"}, LocalConn{Site: mustSite(t, "a", 2)})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := NewBroker(BrokerConfig{Name: "bk"}, LocalConn{Site: mustSite(t, "b", 2)})
	if err != nil {
		t.Fatal(err)
	}
	if id1, id2 := b1.ids.next(), b2.ids.next(); id1 == id2 {
		t.Fatalf("epoch IDs collide across incarnations: %q", id1)
	}
}

// TestAllSitesUnreachableFailsFast pins the outage-vs-capacity distinction:
// when no probe in a round succeeds, CoAllocate must return
// ErrAllSitesUnreachable after ONE round instead of walking the Δt retry
// ladder and reporting ErrNoCapacity.
func TestAllSitesUnreachableFailsFast(t *testing.T) {
	a, b2 := mustSite(t, "a", 4), mustSite(t, "b", 4)
	ca := &chaosConn{Conn: LocalConn{Site: a}}
	cb := &chaosConn{Conn: LocalConn{Site: b2}}
	ca.failProbes.Store(1 << 30)
	cb.failProbes.Store(1 << 30)

	br, err := NewBroker(BrokerConfig{MaxAttempts: 16, BreakerThreshold: -1}, ca, cb)
	if err != nil {
		t.Fatal(err)
	}
	_, err = br.CoAllocate(0, Request{ID: 1, Start: 0, Duration: period.Hour, Servers: 2})
	if !errors.Is(err, ErrAllSitesUnreachable) {
		t.Fatalf("err = %v, want ErrAllSitesUnreachable", err)
	}
	if errors.Is(err, ErrNoCapacity) {
		t.Fatalf("outage still masquerades as capacity exhaustion: %v", err)
	}
	if got := ca.probeCalls.Load() + cb.probeCalls.Load(); got != 2 {
		t.Fatalf("probe calls = %d, want 2 (one round, no retry ladder)", got)
	}
	st := br.Stats()
	if st.Unreachable != 1 || st.Rejected != 0 {
		t.Fatalf("stats = %+v, want Unreachable=1 Rejected=0", st)
	}
}

// TestPartialOutageStillNoCapacity guards the converse: when at least one
// site answers but capacity is short, the error stays ErrNoCapacity and the
// retry ladder still runs.
func TestPartialOutageStillNoCapacity(t *testing.T) {
	a, b2 := mustSite(t, "a", 2), mustSite(t, "b", 4)
	cb := &chaosConn{Conn: LocalConn{Site: b2}}
	cb.failProbes.Store(1 << 30)
	br, err := NewBroker(BrokerConfig{MaxAttempts: 3, BreakerThreshold: -1}, LocalConn{Site: a}, cb)
	if err != nil {
		t.Fatal(err)
	}
	_, err = br.CoAllocate(0, Request{ID: 1, Start: 0, Duration: period.Hour, Servers: 4})
	if !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v, want ErrNoCapacity", err)
	}
	if errors.Is(err, ErrAllSitesUnreachable) {
		t.Fatalf("partial outage misreported as total: %v", err)
	}
}

// TestBreakerOpensSkipsAndRecovers drives the circuit breaker through its
// full state machine with a fake clock: consecutive failures open it, open
// circuits fail fast without touching the site, the cooldown admits one
// half-open trial, and a successful trial closes it again.
func TestBreakerOpensSkipsAndRecovers(t *testing.T) {
	site := mustSite(t, "a", 4)
	cc := &chaosConn{Conn: LocalConn{Site: site}}
	clk := &testClock{now: time.Unix(1000, 0)}
	br, err := NewBroker(BrokerConfig{
		BreakerThreshold: 2,
		BreakerCooldown:  time.Second,
		MaxAttempts:      1,
	}, cc)
	if err != nil {
		t.Fatal(err)
	}
	br.clock = clk.Now
	noJitter(br)

	window := period.Time(period.Hour)

	// Two consecutive failures open the circuit.
	cc.failProbes.Store(2)
	for i := 0; i < 2; i++ {
		if av := br.ProbeAll(0, 0, window); av[0].Err == nil {
			t.Fatal("injected probe failure did not surface")
		}
	}
	if h := br.Health(); h[0].State != "open" {
		t.Fatalf("breaker state = %q after %d failures, want open", h[0].State, 2)
	}

	// While open, probes fail fast with ErrCircuitOpen and never reach the
	// site.
	calls := cc.probeCalls.Load()
	av := br.ProbeAll(0, 0, window)
	if !errors.Is(av[0].Err, ErrCircuitOpen) {
		t.Fatalf("open-circuit probe error = %v, want ErrCircuitOpen", av[0].Err)
	}
	if got := cc.probeCalls.Load(); got != calls {
		t.Fatalf("open circuit still reached the site (%d calls)", got-calls)
	}
	// CoAllocate against the only (open) site fails fast as unreachable.
	if _, err := br.CoAllocate(0, Request{ID: 9, Start: 0, Duration: period.Hour, Servers: 1}); !errors.Is(err, ErrAllSitesUnreachable) {
		t.Fatalf("CoAllocate with open circuit = %v, want ErrAllSitesUnreachable", err)
	}

	// After the cooldown, one half-open trial is admitted; it succeeds (the
	// fault budget is spent) and the circuit closes.
	clk.Advance(1100 * time.Millisecond)
	if av := br.ProbeAll(0, 0, window); av[0].Err != nil {
		t.Fatalf("half-open trial failed: %v", av[0].Err)
	}
	if h := br.Health(); h[0].State != "closed" {
		t.Fatalf("breaker state = %q after successful trial, want closed", h[0].State)
	}
	if _, err := br.CoAllocate(0, Request{ID: 10, Start: 0, Duration: period.Hour, Servers: 2}); err != nil {
		t.Fatalf("CoAllocate after recovery: %v", err)
	}
}

// TestBreakerFailedTrialDoublesCooldown pins the exponential reopen: a
// failed half-open trial reopens the circuit for twice the cooldown.
func TestBreakerFailedTrialDoublesCooldown(t *testing.T) {
	site := mustSite(t, "a", 4)
	cc := &chaosConn{Conn: LocalConn{Site: site}}
	clk := &testClock{now: time.Unix(1000, 0)}
	br, err := NewBroker(BrokerConfig{
		BreakerThreshold: 1,
		BreakerCooldown:  time.Second,
	}, cc)
	if err != nil {
		t.Fatal(err)
	}
	br.clock = clk.Now
	noJitter(br)

	window := period.Time(period.Hour)
	cc.failProbes.Store(2) // initial failure + failed trial
	br.ProbeAll(0, 0, window)
	if h := br.Health(); h[0].State != "open" {
		t.Fatalf("state = %q, want open", h[0].State)
	}
	clk.Advance(1100 * time.Millisecond)
	br.ProbeAll(0, 0, window) // half-open trial, fails
	if h := br.Health(); h[0].State != "open" {
		t.Fatalf("state after failed trial = %q, want open", h[0].State)
	}
	// One base cooldown later the circuit is still open (doubled)…
	clk.Advance(1100 * time.Millisecond)
	if av := br.ProbeAll(0, 0, window); !errors.Is(av[0].Err, ErrCircuitOpen) {
		t.Fatalf("reopened circuit admitted a call after one base cooldown: %v", av[0].Err)
	}
	// …and opens for a trial only after the doubled cooldown.
	clk.Advance(1100 * time.Millisecond)
	if av := br.ProbeAll(0, 0, window); av[0].Err != nil {
		t.Fatalf("trial after doubled cooldown failed: %v", av[0].Err)
	}
	if h := br.Health(); h[0].State != "closed" {
		t.Fatalf("state = %q, want closed", h[0].State)
	}
}

// TestTimedOutPrepareIsAborted pins the timeout compensation: when a
// prepare times out but actually landed on the site, the broker must send a
// best-effort abort so the hold is released immediately instead of leaking
// until lease expiry.
func TestTimedOutPrepareIsAborted(t *testing.T) {
	a, b2 := mustSite(t, "a", 4), mustSite(t, "b", 4)
	cb := &chaosConn{Conn: LocalConn{Site: b2}}
	cb.failPrepares.Store(1 << 30)
	cb.timeoutErrors.Store(true)
	cb.prepareLands.Store(true)

	br, err := NewBroker(BrokerConfig{
		Strategy:         LoadBalance{},
		MaxAttempts:      1,
		BreakerThreshold: -1,
	}, LocalConn{Site: a}, cb)
	if err != nil {
		t.Fatal(err)
	}
	_, err = br.CoAllocate(0, Request{ID: 1, Start: 0, Duration: period.Hour, Servers: 6})
	if err == nil {
		t.Fatal("co-allocation with a timing-out site succeeded")
	}
	// The hold landed on site b despite the timeout; the compensation abort
	// must have released it without waiting for lease expiry.
	if got := b2.PendingHolds(); got != 0 {
		t.Fatalf("site b still holds %d leases; timed-out prepare leaked", got)
	}
	if got := b2.Probe(0, 0, period.Time(period.Hour)); got != 4 {
		t.Fatalf("site b availability = %d, want 4 (hold released)", got)
	}
	if a.PendingHolds() != 0 {
		t.Fatal("site a left with a dangling hold")
	}
}

// TestFaultyRetryLoopHoldsDrain runs the broker retry loop against a
// federation with one flaky-prepare site, one flaky-commit site, and one
// probe-timeout site, then asserts every site's hold count drains to zero
// once leases expire — the invariant that failed 2PC rounds never leak
// capacity.
func TestFaultyRetryLoopHoldsDrain(t *testing.T) {
	sa, sb, sc := mustSite(t, "a", 8), mustSite(t, "b", 8), mustSite(t, "c", 8)
	flakyPrep := &chaosConn{Conn: LocalConn{Site: sa}}
	flakyPrep.failPrepares.Store(2)
	flakyPrep.timeoutErrors.Store(true)
	slowCommit := &chaosConn{Conn: LocalConn{Site: sb}}
	slowCommit.failCommits.Store(2) // transient: within the retry budget
	probeTimeout := &chaosConn{Conn: LocalConn{Site: sc}}
	probeTimeout.failProbes.Store(3)
	probeTimeout.timeoutErrors.Store(true)

	lease := 5 * period.Minute
	br, err := NewBroker(BrokerConfig{
		Strategy:         LoadBalance{},
		Lease:            lease,
		MaxAttempts:      4,
		CommitRetries:    3,
		RetryBackoff:     time.Microsecond, // keep the test fast
		BreakerThreshold: -1,               // exercise the raw retry loop
	}, flakyPrep, slowCommit, probeTimeout)
	if err != nil {
		t.Fatal(err)
	}

	granted := 0
	for i := 0; i < 8; i++ {
		if _, err := br.CoAllocate(0, Request{
			ID:       int64(i),
			Start:    0,
			Duration: period.Hour,
			Servers:  12, // forces a multi-site split every time
		}); err == nil {
			granted++
		}
	}
	if granted == 0 {
		t.Fatal("no request survived the injected faults; the retry loop never recovered")
	}

	// Advance every site past the lease deadline; undecided holds expire.
	expireAt := period.Time(lease) + period.Time(period.Minute)
	for _, s := range []*Site{sa, sb, sc} {
		s.Probe(expireAt, expireAt, expireAt.Add(period.Hour))
		if got := s.PendingHolds(); got != 0 {
			t.Fatalf("site %s: %d holds survived lease expiry", s.Name(), got)
		}
	}
}
