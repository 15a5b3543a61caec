package grid

// Shared test scaffolding for the in-package grid suite: site/broker
// construction, fault-injecting conns, fake clocks, and the WAL recording
// and crash-workload helpers that the durability and concurrency tests
// build on. The chaos suite (chaos_test.go) lives in the external
// grid_test package because it wires grid together with internal/wire,
// which imports grid — it keeps its own spin-up helpers for that reason.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coalloc/internal/calendar"
	"coalloc/internal/core"
	"coalloc/internal/period"
	"coalloc/internal/wal"
)

// --- site and broker construction -----------------------------------------

func siteConfig(n int) core.Config {
	return core.Config{
		Servers:  n,
		SlotSize: 15 * period.Minute,
		Slots:    96,
	}
}

// siteConfigBackend is siteConfig with an explicit availability backend, for
// the backend-parametrized suites.
func siteConfigBackend(n int, backend string) core.Config {
	cfg := siteConfig(n)
	cfg.Backend = backend
	return cfg
}

// forEachBackend runs fn once per registered availability backend as a named
// subtest — the grid half of the backend test matrix (internal/calendar has
// its own for the single-process suites). The distributed differential and
// crash sweeps run through it so every backend proves the same end-to-end
// guarantees the dtree does.
func forEachBackend(t *testing.T, fn func(t *testing.T, backend string)) {
	for _, name := range calendar.Backends() {
		t.Run(name, func(t *testing.T) { fn(t, name) })
	}
}

func mustSite(t *testing.T, name string, n int) *Site {
	t.Helper()
	s, err := NewSite(name, siteConfig(n), 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustSiteBackend(t *testing.T, name string, n int, backend string) *Site {
	t.Helper()
	s, err := NewSite(name, siteConfigBackend(n, backend), 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustSiteQuiet(name string, n int) *Site {
	s, err := NewSite(name, siteConfig(n), 0)
	if err != nil {
		panic(err)
	}
	return s
}

func mustBroker(t *testing.T, cfg BrokerConfig, sites ...*Site) *Broker {
	t.Helper()
	conns := make([]Conn, len(sites))
	for i, s := range sites {
		conns[i] = LocalConn{Site: s}
	}
	return mustBrokerConns(t, cfg, conns...)
}

func mustBrokerConns(t *testing.T, cfg BrokerConfig, conns ...Conn) *Broker {
	t.Helper()
	b, err := NewBroker(cfg, conns...)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// mustFederation spins up an in-process federation: n same-sized sites named
// "s0".."s<n-1>", wrapped in LocalConns, behind one broker.
func mustFederation(t *testing.T, cfg BrokerConfig, n, serversPerSite int) ([]*Site, *Broker) {
	t.Helper()
	sites := make([]*Site, n)
	conns := make([]Conn, n)
	for i := range sites {
		sites[i] = mustSite(t, fmt.Sprintf("s%d", i), serversPerSite)
		conns[i] = LocalConn{Site: sites[i]}
	}
	return sites, mustBrokerConns(t, cfg, conns...)
}

// --- fault injection -------------------------------------------------------

// fakeTimeout is an injected error that classifies as a deadline expiry,
// like the ones internal/wire produces for timed-out RPCs.
type fakeTimeout struct{}

func (fakeTimeout) Error() string   { return "injected timeout" }
func (fakeTimeout) Timeout() bool   { return true }
func (fakeTimeout) Temporary() bool { return true }

// failingConn injects phase-specific failures with plain switches; use
// chaosConn when the test needs counters or raceable knobs.
type failingConn struct {
	Conn
	failPrepare bool
	failCommit  bool
	failProbe   bool
}

func (f *failingConn) Probe(now, start, end period.Time) (ProbeResult, error) {
	if f.failProbe {
		return ProbeResult{}, errors.New("injected probe failure")
	}
	return f.Conn.Probe(now, start, end)
}

func (f *failingConn) Prepare(now period.Time, holdID string, start, end period.Time, servers int, lease period.Duration) ([]int, error) {
	if f.failPrepare {
		return nil, errors.New("injected prepare failure")
	}
	return f.Conn.Prepare(now, holdID, start, end, servers, lease)
}

func (f *failingConn) Commit(now period.Time, holdID string) error {
	if f.failCommit {
		return errors.New("injected commit failure")
	}
	return f.Conn.Commit(now, holdID)
}

// chaosConn wraps a Conn with programmable per-phase faults and call
// counters. All knobs are atomics so concurrent probe workers can race it
// safely.
type chaosConn struct {
	Conn
	probeCalls   atomic.Int64
	prepareCalls atomic.Int64
	commitCalls  atomic.Int64
	abortCalls   atomic.Int64

	failProbes    atomic.Int64 // fail this many probes, then pass
	failPrepares  atomic.Int64 // fail this many prepares, then pass
	failCommits   atomic.Int64 // fail this many commits, then pass
	failAborts    atomic.Int64 // fail this many aborts, then pass
	timeoutErrors atomic.Bool  // injected failures classify as timeouts
	prepareLands  atomic.Bool  // a failed prepare still reaches the site
}

func (c *chaosConn) inject() error {
	if c.timeoutErrors.Load() {
		return fakeTimeout{}
	}
	return errors.New("injected fault")
}

func (c *chaosConn) Probe(now, start, end period.Time) (ProbeResult, error) {
	c.probeCalls.Add(1)
	if c.failProbes.Load() > 0 {
		c.failProbes.Add(-1)
		return ProbeResult{}, c.inject()
	}
	return c.Conn.Probe(now, start, end)
}

func (c *chaosConn) Prepare(now period.Time, holdID string, start, end period.Time, servers int, lease period.Duration) ([]int, error) {
	c.prepareCalls.Add(1)
	if c.failPrepares.Load() > 0 {
		c.failPrepares.Add(-1)
		if c.prepareLands.Load() {
			// The request reached the site; only the reply was lost.
			_, _ = c.Conn.Prepare(now, holdID, start, end, servers, lease)
		}
		return nil, c.inject()
	}
	return c.Conn.Prepare(now, holdID, start, end, servers, lease)
}

func (c *chaosConn) Abort(now period.Time, holdID string) error {
	c.abortCalls.Add(1)
	if c.failAborts.Load() > 0 {
		c.failAborts.Add(-1)
		return c.inject()
	}
	return c.Conn.Abort(now, holdID)
}

func (c *chaosConn) Commit(now period.Time, holdID string) error {
	c.commitCalls.Add(1)
	if c.failCommits.Load() > 0 {
		c.failCommits.Add(-1)
		return c.inject()
	}
	return c.Conn.Commit(now, holdID)
}

// RangeView forwards the optional range-search capability when the wrapped
// conn has it, so a chaos-wrapped site still answers RangeAll. Probe faults
// apply to range probes too — both are the broker's availability path.
func (c *chaosConn) RangeView(now, start, end period.Time) (RangeResult, error) {
	rc, ok := c.Conn.(RangeConn)
	if !ok {
		return RangeResult{}, errors.New("chaosConn: wrapped conn has no range search")
	}
	c.probeCalls.Add(1)
	if c.failProbes.Load() > 0 {
		c.failProbes.Add(-1)
		return RangeResult{}, c.inject()
	}
	return rc.RangeView(now, start, end)
}

// StatCounterName returns the registry name of the counter that reports a
// BrokerStats or CacheStats field, "" when none does — for the external
// chaos suite, which cannot see the table.
func StatCounterName(field string) string {
	for _, row := range brokerCounters {
		if row.field == field {
			return row.name
		}
	}
	return ""
}

// midSource is a rand.Source whose every draw is the middle of the range.
type midSource struct{}

func (midSource) Int63() int64 { return 1 << 62 }
func (midSource) Seed(int64)   {}

// noJitter pins the broker's jitter factor at exactly 1 (Float64 draws 0.5),
// so breaker cooldowns and retry backoffs are deterministic.
func noJitter(b *Broker) { b.rng = rand.New(midSource{}) }

// testClock is an injectable, mutable broker clock.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// --- WAL and crash-recovery scaffolding ------------------------------------

// recordingWAL wraps a *wal.Log and remembers every payload the log
// acknowledged, plus the one in-flight payload whose append failed — a
// failed append may still have reached the disk in full (the crash can land
// between the write and the acknowledgment), so recovery legitimately
// surfaces either prefix.
type recordingWAL struct {
	log     *wal.Log
	acked   [][]byte
	pending []byte
}

func (r *recordingWAL) Append(p []byte) (uint64, error) {
	cp := append([]byte(nil), p...)
	lsn, err := r.log.Append(p)
	if err != nil {
		if r.pending == nil {
			r.pending = cp
		}
		return lsn, err
	}
	r.acked = append(r.acked, cp)
	return lsn, nil
}

func (r *recordingWAL) Checkpoint(snapshot []byte) error { return r.log.Checkpoint(snapshot) }

// failingWAL rejects every append, simulating a dead disk.
type failingWAL struct{ calls int }

func (f *failingWAL) Append([]byte) (uint64, error) {
	f.calls++
	return 0, errors.New("disk on fire")
}
func (f *failingWAL) Checkpoint([]byte) error { return errors.New("disk on fire") }

const crashSiteServers = 8

// freshCrashSiteOn returns a constructor for the crash-sweep site pinned to
// one availability backend; crashRun, recovery, and the shadow replay must
// all build from the same constructor or the snapshot bytes can never match.
func freshCrashSiteOn(backend string) func() (*Site, error) {
	return func() (*Site, error) {
		return NewSite("crash", siteConfigBackend(crashSiteServers, backend), 0)
	}
}

func freshCrashSite() (*Site, error) {
	return freshCrashSiteOn("")()
}

func mustFresh(t *testing.T) *Site {
	t.Helper()
	s, err := freshCrashSite()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func snapshotBytes(t *testing.T, s *Site) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return buf.Bytes()
}

// buildShadow replays the given journal payloads onto a fresh site from the
// given constructor — the oracle a recovered site must match byte for byte.
func buildShadow(t *testing.T, payloads [][]byte, fresh func() (*Site, error)) *Site {
	t.Helper()
	s, err := fresh()
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s.ReplayBatch(payloads); err != nil {
		t.Fatalf("shadow: after %d records: %v", n, err)
	}
	return s
}

// runCrashWorkload drives a deterministic randomized mix of prepares,
// commits, aborts, probes (which expire stale leases), and checkpoints
// against the site until steps run out or the injector trips. The clock is
// monotone and checkpoints are cut only in the same step as a successful
// journaled mutation, so a checkpoint never captures clock movement that no
// record describes.
func runCrashWorkload(site *Site, rw *recordingWAL, inj *wal.Injector, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	now := period.Time(0)
	var issued []string
	for i := 0; i < steps; i++ {
		now = now.Add(period.Duration(rng.Int63n(600)))
		ackedBefore := len(rw.acked)
		switch op := rng.Intn(10); {
		case op < 4: // prepare
			id := fmt.Sprintf("h%04d", len(issued))
			issued = append(issued, id)
			start := now.Add(period.Duration(rng.Int63n(7200)))
			dur := period.Duration(1+rng.Int63n(4)) * 15 * period.Minute
			servers := 1 + rng.Intn(4)
			lease := period.Duration(600 + rng.Int63n(1800))
			site.Prepare(now, id, start, start.Add(dur), servers, lease)
		case op < 6: // commit some previously issued hold (may be gone)
			if len(issued) > 0 {
				site.Commit(now, issued[rng.Intn(len(issued))])
			}
		case op < 8: // abort some previously issued hold (no-op if gone)
			if len(issued) > 0 {
				site.Abort(now, issued[rng.Intn(len(issued))])
			}
		default: // probe: advances the clock, expiring stale leases
			site.Probe(now, now, now.Add(30*period.Minute))
		}
		if inj != nil && inj.Tripped() {
			return
		}
		if len(rw.acked) > ackedBefore && rng.Intn(8) == 0 {
			site.Checkpoint()
			if inj != nil && inj.Tripped() {
				return
			}
		}
	}
	// End on a journaled mutation. Probes and refused ops move the clock and
	// scheduler counters without writing records; replay heals that transient
	// drift only when a later record restamps them, so the final states the
	// tests compare must sit on a record boundary. The window is past every
	// hold the loop could have placed, so this prepare always succeeds.
	if inj != nil && inj.Tripped() {
		return
	}
	now = now.Add(1)
	start := now.Add(4 * period.Hour)
	site.Prepare(now, "hfinal", start, start.Add(15*period.Minute), 1, 600)
}
