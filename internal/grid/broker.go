package grid

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	mrand "math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"coalloc/internal/obs"
	"coalloc/internal/period"
)

// Request is a cross-site co-allocation request: n_r servers anywhere in
// the grid, simultaneously, for [Start, Start+Duration).
type Request struct {
	ID       int64
	Start    period.Time
	Duration period.Duration
	Servers  int
}

// GrantedShare records the servers one site contributed to a co-allocation.
type GrantedShare struct {
	Site    string
	Servers []int
}

// MultiAllocation is a committed cross-site co-allocation.
type MultiAllocation struct {
	HoldID   string
	Start    period.Time
	End      period.Time
	Shares   []GrantedShare
	Attempts int
}

// TotalServers returns the number of servers granted across all sites.
func (m MultiAllocation) TotalServers() int {
	n := 0
	for _, s := range m.Shares {
		n += len(s.Servers)
	}
	return n
}

// ErrNoCapacity is returned when every window within the retry budget
// failed.
var ErrNoCapacity = errors.New("grid: no window with sufficient cross-site capacity")

// CommitError reports a partial phase-2 failure: the broker decided commit
// but could not reach every prepared site before giving up. The broker
// compensates by aborting the sites that did commit (Aborted lists the ones
// it reached), releasing their shares immediately; sites that missed both
// the decision and the compensation release their holds at lease expiry
// (presumed abort). The grid converges to a consistent state either way;
// the job, however, must be re-submitted.
type CommitError struct {
	HoldID    string
	Committed []string
	Aborted   []string // committed sites whose shares the broker released again
	Failed    []string
	// Shares lists what each site had granted in phase 1, so a caller (or a
	// test oracle) can account for the capacity a Failed site still leases
	// until the hold expires.
	Shares []GrantedShare
	Err    error
}

// Error implements the error interface.
func (e *CommitError) Error() string {
	return fmt.Sprintf("grid: partial commit of %s (committed %v, aborted %v, failed %v): %v",
		e.HoldID, e.Committed, e.Aborted, e.Failed, e.Err)
}

// BrokerConfig parameterizes a Broker. Zero fields take documented
// defaults.
type BrokerConfig struct {
	// Name prefixes hold IDs so concurrent brokers never collide.
	Name string
	// Strategy splits jobs across sites; defaults to Greedy.
	Strategy Strategy
	// Lease bounds how long a prepared hold survives without a decision.
	// Defaults to 5 minutes of simulation time.
	Lease period.Duration
	// DeltaT is the window retry increment (the paper's Δt); default 15 min.
	DeltaT period.Duration
	// MaxAttempts bounds window retries (the paper's R_max); default 16.
	MaxAttempts int
	// CommitRetries bounds phase-2 re-delivery attempts per site; default 3,
	// clamped to at least 1 so the decision is always delivered once.
	CommitRetries int
	// ProbeWorkers bounds the concurrency of one probe fan-out; default 8.
	// With hundreds of sites an unbounded fan-out spawns one goroutine per
	// site per window; a bounded pool keeps the round's footprint fixed.
	ProbeWorkers int
	// BreakerThreshold is the number of consecutive failures that opens a
	// site's circuit breaker; default 5. While open the broker skips the
	// site entirely (probes fail fast with ErrCircuitOpen) until the
	// cooldown elapses and a half-open trial succeeds. Negative disables
	// the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an opened circuit stays open before the
	// broker admits one half-open trial; default 2s. Each failed trial
	// doubles the cooldown (with jitter) up to BreakerCooldownMax.
	BreakerCooldown time.Duration
	// BreakerCooldownMax caps the exponential cooldown growth; default 30s.
	BreakerCooldownMax time.Duration
	// RetryBackoff is the base delay between phase-2 commit re-delivery
	// attempts to the same site; default 10ms, doubling per attempt with
	// jitter. Negative restores the historical immediate-retry behavior.
	RetryBackoff time.Duration
	// ProbeCache enables the broker-side availability cache: probe and
	// range answers are remembered per site under the site's epoch and
	// served without a round trip until the epoch moves, with concurrent
	// identical probes coalesced into one RPC. Off by default. See
	// probeCache in cache.go for the validity and invalidation rules.
	ProbeCache bool
	// CacheBucket quantizes window starts and durations into cache-key
	// buckets; default 15 minutes (the paper's τ).
	CacheBucket period.Duration
	// CacheEntries bounds the cached windows per site; default 4096.
	CacheEntries int
	// CacheWatch subscribes the broker to each site's epoch watch stream
	// (one long-poll loop per site connection): the site pushes epoch bumps
	// the moment a mutation publishes a new view, so the cache invalidates
	// proactively instead of discovering staleness at the next miss. Sites
	// that do not speak the watch protocol degrade silently to the passive
	// per-reply regime. Requires ProbeCache; off by default. A broker with
	// watchers running should be Closed when done.
	CacheWatch bool
	// WatchPoll bounds one watch long-poll: the server parks the call until
	// the epoch moves or this duration elapses, whichever is first. Default
	// 10s. Smaller values cost idle round trips; larger ones only delay
	// Close and interact with server-side idle timeouts (see wire).
	WatchPoll time.Duration
	// ConflictRetries bounds how many times one window is re-tried after a
	// prepare conflict (a *ConflictError: the contended site's capacity
	// moved between probe and prepare) before the broker falls back to the
	// Δt ladder. Each retry re-probes only the contended site and re-splits
	// the residual demand; already-prepared shares are kept. Default 2;
	// negative disables the path, treating a conflict like any other
	// prepare failure.
	ConflictRetries int
	// SiteAffinity rotates the strategy's view of the site order by a hash
	// of the broker's name (see Affinity), so a fleet of brokers spreads
	// its first-choice sites instead of piling onto the globally
	// most-available one and conflicting there. Off by default.
	SiteAffinity bool
	// BatchProbe prefetches a whole Δt retry ladder's candidate windows in
	// one batched RPC per site at the start of CoAllocate, cutting the
	// dominant round-trip count from O(ladder × sites) toward O(sites).
	// Answers land in the availability cache (BatchProbe therefore requires
	// ProbeCache) and the ladder's per-window probes hit locally. Sites
	// that do not speak the batch RPC degrade silently to per-window
	// probes. Off by default.
	BatchProbe bool
	// Registry, if non-nil, receives 2PC outcome counters and window
	// latencies under the "broker." prefix. The counters are the ones Stats
	// reads, so brokers given the same Registry report their sum.
	Registry *obs.Registry
	// Recorder receives the broker's completed request traces. When nil,
	// NewBroker creates one with default retention unless NoTrace is set:
	// the flight recorder is always on, cheap enough to leave enabled.
	Recorder *obs.Recorder
	// NoTrace disables span recording entirely — the overhead baseline for
	// benchmarks, not a production setting.
	NoTrace bool
}

func (c *BrokerConfig) applyDefaults() {
	if c.Name == "" {
		c.Name = "broker"
	}
	if c.Strategy == nil {
		c.Strategy = Greedy{}
	}
	if c.Lease <= 0 {
		c.Lease = 5 * period.Minute
	}
	if c.DeltaT <= 0 {
		c.DeltaT = 15 * period.Minute
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 16
	}
	if c.CommitRetries <= 0 {
		c.CommitRetries = 3
	}
	if c.ProbeWorkers <= 0 {
		c.ProbeWorkers = 8
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.BreakerCooldownMax <= 0 {
		c.BreakerCooldownMax = 30 * time.Second
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 10 * time.Millisecond
	}
	if c.CacheBucket <= 0 {
		c.CacheBucket = 15 * period.Minute
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.WatchPoll <= 0 {
		c.WatchPoll = 10 * time.Second
	}
	if c.ConflictRetries == 0 {
		c.ConflictRetries = 2
	}
}

// Broker coordinates atomic co-allocations across sites. It is safe for
// concurrent use.
type Broker struct {
	cfg    BrokerConfig
	sites  []Conn        // sorted by name: index order is the global prepare order
	health []siteHealth  // breaker state, by site
	quick  []atomic.Bool // by site: its last read round trip took under quickRoundTrip; see fanOut
	m      *brokerMetrics
	cache  *probeCache   // nil unless cfg.ProbeCache
	rec    *obs.Recorder // flight recorder; nil only under cfg.NoTrace
	// probeAttrs[i][source] is the prebuilt read-only attr slice for site
	// i's broker.probe span with that answer source; see NewBroker.
	probeAttrs []map[string][]slog.Attr

	ids holdSeq

	// clock and sleep are time.Now and time.Sleep, replaceable for
	// deterministic breaker/backoff tests.
	clock func() time.Time
	sleep func(time.Duration)

	rngMu sync.Mutex
	rng   *mrand.Rand // jitter source

	// watch subscription lifecycle; see watch.go. watchStop is non-nil iff
	// watchers were started (cfg.CacheWatch over a watch-capable conn); it
	// is written only during construction, so watcher goroutines may read
	// it freely. closeOnce makes Close idempotent and concurrency-safe.
	watchStop chan struct{}
	watchWG   sync.WaitGroup
	closeOnce sync.Once

	// batchBad[i] is set once site i answered the batched ladder probe with
	// "unsupported", so the prefetch never asks it again this connection.
	batchBad []atomic.Bool
}

// NewBroker creates a broker over the given site connections.
func NewBroker(cfg BrokerConfig, sites ...Conn) (*Broker, error) {
	if len(sites) == 0 {
		return nil, errors.New("grid: broker needs at least one site")
	}
	cfg.applyDefaults()
	ordered := append([]Conn(nil), sites...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Name() < ordered[j].Name() })
	for i := 1; i < len(ordered); i++ {
		if ordered[i].Name() == ordered[i-1].Name() {
			return nil, fmt.Errorf("grid: duplicate site name %q", ordered[i].Name())
		}
	}
	if cfg.SiteAffinity {
		cfg.Strategy = Affinity{S: cfg.Strategy, Offset: AffinityOffset(cfg.Name, len(ordered))}
	}
	b := &Broker{
		cfg:    cfg,
		sites:  ordered,
		health: make([]siteHealth, len(ordered)),
		quick:  make([]atomic.Bool, len(ordered)),
		m:      newBrokerMetrics(cfg.Registry),
		rec:    cfg.Recorder,
		ids:    holdSeq{prefix: cfg.Name + "-" + newEpoch() + "-"},
		clock:  time.Now,
		sleep:  time.Sleep,
		rng:    mrand.New(mrand.NewSource(time.Now().UnixNano())),
	}
	if b.rec == nil && !cfg.NoTrace {
		b.rec = obs.NewRecorder(obs.RecorderConfig{})
	}
	// Precompute the {site, source} attr slice for every probe outcome:
	// probes are the hot path, and Annotate adopts a full cap==len slice
	// without copying, so annotating a probe span allocates nothing.
	b.probeAttrs = make([]map[string][]slog.Attr, len(ordered))
	for i, c := range ordered {
		site := slog.String("site", c.Name())
		m := make(map[string][]slog.Attr, 5)
		for _, src := range []string{probeSrcRPC, probeSrcHit, probeSrcMiss, probeSrcCoalesced, "breaker_skip"} {
			m[src] = []slog.Attr{site, slog.String("source", src)}
		}
		b.probeAttrs[i] = m
	}
	if cfg.ProbeCache {
		b.cache = newProbeCache(cfg.CacheBucket, cfg.CacheEntries, b.m)
		b.batchBad = make([]atomic.Bool, len(ordered))
		// A failover re-target swaps the node behind a site name, so every
		// cached answer keyed by that name describes the deposed primary.
		// Hook the drop into the connection itself: manual promotions
		// (gridctl promote, tests calling Failover directly) must flush the
		// cache exactly like breaker-driven ones.
		for _, c := range ordered {
			if rn, ok := c.(retargetNotifier); ok {
				site := c.Name()
				rn.OnRetarget(func(string) {
					b.dropCached(site)
				})
			}
		}
		if cfg.CacheWatch {
			b.startWatchers()
		}
	}
	return b, nil
}

// Close stops the broker's background work (the watch subscription loops).
// Safe to call on a broker without watchers, more than once, and from
// concurrent goroutines; does not close the site connections.
func (b *Broker) Close() error {
	b.closeOnce.Do(func() {
		if b.watchStop != nil {
			close(b.watchStop)
			b.watchWG.Wait()
		}
	})
	return nil
}

// newEpoch draws a random per-broker-instance token. crypto/rand never
// repeats across restarts in practice (48 bits of entropy per broker
// lifetime); if the system's randomness is unavailable the broker falls
// back to the boot time, which still differs across restarts.
func newEpoch() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("t%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// jitter perturbs d by ±50%, decorrelating breaker cooldowns and retry
// backoffs across sites and brokers.
func (b *Broker) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	b.rngMu.Lock()
	f := 0.5 + b.rng.Float64() // [0.5, 1.5)
	b.rngMu.Unlock()
	return time.Duration(float64(d) * f)
}

// Recorder returns the broker's flight recorder; nil when the broker was
// built with NoTrace.
func (b *Broker) Recorder() *obs.Recorder { return b.rec }

// Stats returns a snapshot of the broker's counters.
func (b *Broker) Stats() (s BrokerStats) {
	b.m.snapshot(&s)
	return s
}

// Sites returns the broker's site connections in prepare order.
func (b *Broker) Sites() []Conn { return append([]Conn(nil), b.sites...) }

// holdSeq issues hold IDs that are unique across broker restarts, not just
// within one process. Sites remember committed holds (and recover them from
// their WALs), so a restarted broker whose counter restarted at zero would
// otherwise reissue "<name>-1" and collide with a hold the site still
// tracks; the per-instance epoch token in the prefix makes every
// incarnation's IDs disjoint.
type holdSeq struct {
	prefix string // "<broker name>-<epoch>-"
	n      atomic.Int64
}

func (h *holdSeq) next() string { return h.prefix + strconv.FormatInt(h.n.Add(1), 10) }

// CoAllocate finds a window in which the grid can supply the request's
// servers and commits it atomically across the chosen sites. On failure of
// one window it retries Δt later, up to MaxAttempts windows, mirroring the
// single-system algorithm of §4.2.
func (b *Broker) CoAllocate(now period.Time, req Request) (MultiAllocation, error) {
	if req.Servers <= 0 || req.Duration <= 0 {
		return MultiAllocation{}, fmt.Errorf("grid: invalid request %+v", req)
	}
	b.m.inc(cRequests)
	// The root span of the request's trace: every ladder attempt, per-site
	// RPC, and (across the wire) site-side span parents under it. It is the
	// request's one record: a refusal adds its reason and attempt count.
	root := b.rec.StartSpan("broker.coallocate",
		slog.Int64("job", req.ID),
		slog.Int("servers", req.Servers),
		slog.Int64("start", int64(req.Start)),
		slog.Int64("duration", int64(req.Duration)))
	defer root.End()
	defer latency(b.m.requestLatency, root.TraceID())()

	reject := func(err error, reason string, attempts int) {
		root.Fail(err)
		root.Annotate(slog.String("reason", reason), slog.Int("attempts", attempts))
	}
	start := max(req.Start, now)
	if b.cfg.BatchProbe && b.cache != nil {
		b.prefetchLadder(now, start, req.Duration)
	}
	var lastErr error
	for attempt := 1; attempt <= b.cfg.MaxAttempts; attempt++ {
		att := root.StartChild("broker.attempt",
			slog.Int("attempt", attempt),
			slog.Int64("window_start", int64(start)))
		r := b.runRound(att, now, start, start.Add(req.Duration), req.Servers)
		att.Fail(r.err)
		att.End()
		switch r.outcome {
		case windowGranted:
			root.Annotate(slog.String("hold", r.hold), slog.Int("attempts", attempt))
			return MultiAllocation{HoldID: r.hold, Start: r.start, End: r.end, Shares: r.granted, Attempts: attempt}, nil
		case windowPartial:
			// The grid may be inconsistent until leases expire; do not
			// retry automatically on the caller's behalf.
			reject(r.err, "partial commit", attempt)
			return MultiAllocation{}, r.err
		case allUnreachable:
			// An outage, not capacity exhaustion: walking the Δt ladder
			// would just repeat the same timed-out probe round MaxAttempts
			// times. Fail fast and distinctly so callers (and dashboards)
			// can tell "the grid is full" from "the grid is gone".
			reject(r.err, "all sites unreachable", attempt)
			return MultiAllocation{}, fmt.Errorf("grid: co-allocation impossible: %w", r.err)
		}
		lastErr = r.err
		start = start.Add(b.cfg.DeltaT)
	}
	b.m.inc(cRejected)
	reject(fmt.Errorf("%w after %d attempts", ErrNoCapacity, b.cfg.MaxAttempts),
		"no window with sufficient capacity", b.cfg.MaxAttempts)
	return MultiAllocation{}, fmt.Errorf("%w (last: %v)", ErrNoCapacity, lastErr)
}

// Release aborts every share of a previously committed co-allocation — the
// cross-site face of the paper's early-release extension. Each site
// truncates its share at now (cancelling it outright when the window has
// not started), and the freed capacity becomes probeable immediately: the
// aborts invalidate the sites' cached availability like any other 2PC
// traffic. Releasing an allocation whose window already closed is a no-op
// per site (presumed abort). The first site error is returned, but every
// site is attempted regardless.
//
// Release goes through the same instrumented path as the 2PC rounds: each
// abort is a child span of a broker.release trace, a site with an open
// circuit breaker is skipped fast instead of stalling the whole release on
// its timeout, and outcomes feed the breaker like any other site call.
// Shares skipped behind an open breaker (and failed aborts) stay leased
// until the site's window closes — presumed abort reclaims them.
func (b *Broker) Release(now period.Time, alloc MultiAllocation) error {
	root := b.rec.StartSpan("broker.release", slog.String("hold", alloc.HoldID))
	defer root.End()
	var firstErr error
	for _, sh := range alloc.Shares {
		site, ok := slices.BinarySearchFunc(b.sites, sh.Site, func(c Conn, name string) int {
			return strings.Compare(c.Name(), name)
		})
		var err error
		if !ok {
			err = fmt.Errorf("grid: release of %s: unknown site %q", alloc.HoldID, sh.Site)
		} else if err = b.decide(root, site, now, alloc.HoldID, "release", true); err != nil {
			err = fmt.Errorf("grid: release of %s at %s: %w", alloc.HoldID, sh.Site, err)
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	root.Fail(firstErr)
	return firstErr
}
