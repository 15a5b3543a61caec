package grid

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	mrand "math/rand"
	"sort"
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
	// latencies under the "broker." prefix.
	Registry *obs.Registry
	// Tracer, if non-nil, receives per-request prepare/commit/abort events.
	Tracer obs.Tracer
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

// BrokerStats counts protocol outcomes.
type BrokerStats struct {
	Requests       int
	Granted        int
	Rejected       int
	Unreachable    int // requests that failed because no site answered
	PartialCommits int
	Aborts         uint64 // total holds successfully aborted during failed attempts

	// Conflict accounting; see BrokerConfig.ConflictRetries.
	Conflicts           uint64 // prepares refused as *ConflictError
	ConflictRetries     uint64 // same-window retry passes run after a conflict
	ConflictWindows     uint64 // windows that saw at least one conflict
	ConflictWindowSaved uint64 // conflicted windows that still committed (no Δt rung burned)
}

// brokerMetrics caches the broker's registry entries so the 2PC hot path
// never takes the registry lock; nil when no Registry is configured.
type brokerMetrics struct {
	requests, granted, rejected *obs.Counter
	partials, aborts            *obs.Counter
	unreachable                 *obs.Counter   // probes that failed to reach a site
	allUnreachable              *obs.Counter   // requests rejected with ErrAllSitesUnreachable
	breakerOpen                 *obs.Counter   // circuit-breaker open transitions
	breakerSkips                *obs.Counter   // calls skipped because a circuit was open
	failovers                   *obs.Counter   // standbys promoted after a breaker stuck open
	rpcTimeouts                 *obs.Counter   // site RPCs that expired their deadline
	conflicts                   *obs.Counter   // prepares refused as conflicts
	conflictRetries             *obs.Counter   // same-window retry passes after a conflict
	conflictWindowSaved         *obs.Counter   // conflicted windows that still committed
	windowLatency               *obs.Histogram // one probe/prepare/commit round
	requestLatency              *obs.Histogram // whole CoAllocate including retries

	// availability-cache counters; see probeCache in cache.go
	cacheHits          *obs.Counter
	cacheMisses        *obs.Counter
	cacheStale         *obs.Counter
	cacheCoalesced     *obs.Counter
	cacheInvalidations *obs.Counter
	cacheEvictions     *obs.Counter
	cacheReordered     *obs.Counter
	cacheWatchEvents   *obs.Counter
	cacheWatchGaps     *obs.Counter
	cacheBatchProbes   *obs.Counter
}

func newBrokerMetrics(reg *obs.Registry) *brokerMetrics {
	if reg == nil {
		return nil
	}
	m := &brokerMetrics{
		requests:            reg.Counter("broker.requests"),
		granted:             reg.Counter("broker.granted"),
		rejected:            reg.Counter("broker.rejected"),
		partials:            reg.Counter("broker.partial_commits"),
		aborts:              reg.Counter("broker.aborts"),
		unreachable:         reg.Counter("broker.probe.unreachable"),
		allUnreachable:      reg.Counter("broker.all_unreachable"),
		breakerOpen:         reg.Counter("broker.site.breaker_open"),
		breakerSkips:        reg.Counter("broker.site.breaker_skips"),
		failovers:           reg.Counter("broker.site.failovers"),
		rpcTimeouts:         reg.Counter("broker.rpc.timeout"),
		conflicts:           reg.Counter("broker.conflicts"),
		conflictRetries:     reg.Counter("broker.conflict_retries"),
		conflictWindowSaved: reg.Counter("broker.conflict_window_saved"),
		windowLatency:       reg.Histogram("broker.window.latency"),
		requestLatency:      reg.Histogram("broker.request.latency"),

		cacheHits:          reg.Counter("broker.cache.hits"),
		cacheMisses:        reg.Counter("broker.cache.misses"),
		cacheStale:         reg.Counter("broker.cache.stale"),
		cacheCoalesced:     reg.Counter("broker.cache.coalesced"),
		cacheInvalidations: reg.Counter("broker.cache.invalidations"),
		cacheEvictions:     reg.Counter("broker.cache.evictions"),
		cacheReordered:     reg.Counter("broker.cache.reordered"),
		cacheWatchEvents:   reg.Counter("broker.cache.watch_events"),
		cacheWatchGaps:     reg.Counter("broker.cache.watch_gaps"),
		cacheBatchProbes:   reg.Counter("broker.cache.batch_probes"),
	}
	reg.Help("broker.requests", "cross-site co-allocation requests")
	reg.Help("broker.granted", "requests committed atomically across sites")
	reg.Help("broker.rejected", "requests that exhausted every window")
	reg.Help("broker.partial_commits", "phase-2 rounds that missed a site")
	reg.Help("broker.aborts", "holds aborted during failed windows")
	reg.Help("broker.probe.unreachable", "probe rounds that failed to reach a site")
	reg.Help("broker.all_unreachable", "requests rejected because no site answered")
	reg.Help("broker.site.breaker_open", "circuit breakers opened after consecutive site failures")
	reg.Help("broker.site.breaker_skips", "site calls skipped while a circuit was open")
	reg.Help("broker.site.failovers", "standbys promoted after a site's breaker stuck open")
	reg.Help("broker.rpc.timeout", "site RPCs that exceeded their deadline")
	reg.Help("broker.conflicts", "prepares refused because capacity moved since the probe")
	reg.Help("broker.conflict_retries", "same-window retry passes run after a prepare conflict")
	reg.Help("broker.conflict_window_saved", "conflicted windows that still committed without burning a retry rung")
	reg.Help("broker.window.latency", "one probe/prepare/commit round")
	reg.Help("broker.request.latency", "whole CoAllocate including retries")
	reg.Help("broker.cache.hits", "probes answered from the availability cache")
	reg.Help("broker.cache.misses", "probes that required a site round trip")
	reg.Help("broker.cache.stale", "cache entries retired by a site epoch change")
	reg.Help("broker.cache.coalesced", "probes that joined another caller's in-flight RPC")
	reg.Help("broker.cache.invalidations", "site-wide cache drops around the broker's own 2PC traffic")
	reg.Help("broker.cache.evictions", "cache entries displaced by the per-site bound")
	reg.Help("broker.cache.reordered", "delayed replies from superseded epochs, dropped without adoption")
	reg.Help("broker.cache.watch_events", "epoch bumps delivered over the watch stream")
	reg.Help("broker.cache.watch_gaps", "watch stream gaps that forced a conservative site-wide drop")
	reg.Help("broker.cache.batch_probes", "batched ladder-probe RPCs issued")
	return m
}

// Broker coordinates atomic co-allocations across sites. It is safe for
// concurrent use.
type Broker struct {
	cfg    BrokerConfig
	sites  []Conn // sorted by name: the global prepare order
	health map[string]*siteHealth
	m      *brokerMetrics
	cache  *probeCache // nil unless cfg.ProbeCache
	tracer obs.Tracer
	rec    *obs.Recorder // flight recorder; nil only under cfg.NoTrace
	// probeAttrs[i][source] is the prebuilt read-only attr slice for site
	// i's broker.probe span with that answer source; see NewBroker.
	probeAttrs []map[string][]slog.Attr

	// epoch makes hold IDs unique across broker restarts: a restarted
	// broker starts its counter at zero again, and without a per-process
	// component it would reissue IDs that can collide with holds a site
	// recovered from its WAL. See newHoldID.
	epoch string

	// clock and sleep are injectable for deterministic breaker/backoff
	// tests; nil means real time.
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

	mu       sync.Mutex
	nextHold int64
	stats    BrokerStats
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
	health := make(map[string]*siteHealth, len(ordered))
	for _, c := range ordered {
		health[c.Name()] = &siteHealth{}
	}
	b := &Broker{
		cfg:    cfg,
		sites:  ordered,
		health: health,
		m:      newBrokerMetrics(cfg.Registry),
		tracer: cfg.Tracer,
		rec:    cfg.Recorder,
		epoch:  newEpoch(),
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
				rn.OnRetarget(func(target string) {
					if b.cache.invalidate(site) {
						b.event(obs.EventCacheInvalidate,
							slog.String("site", site),
							slog.String("cause", "failover"),
							slog.String("target", target))
					}
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

// now returns the broker's clock (injectable in tests).
func (b *Broker) now() time.Time {
	if b.clock != nil {
		return b.clock()
	}
	return time.Now()
}

// pause sleeps through the broker's sleeper (injectable in tests).
func (b *Broker) pause(d time.Duration) {
	if d <= 0 {
		return
	}
	if b.sleep != nil {
		b.sleep(d)
		return
	}
	time.Sleep(d)
}

// jitter perturbs d by ±50%, decorrelating breaker cooldowns and retry
// backoffs across sites and brokers.
func (b *Broker) jitter(d time.Duration) time.Duration {
	if d <= 0 || b.rng == nil {
		return d
	}
	b.rngMu.Lock()
	f := 0.5 + b.rng.Float64() // [0.5, 1.5)
	b.rngMu.Unlock()
	return time.Duration(float64(d) * f)
}

// healthFor returns the breaker record for a connection; nil for brokers
// assembled as struct literals in tests.
func (b *Broker) healthFor(c Conn) *siteHealth {
	if b.health == nil {
		return nil
	}
	return b.health[c.Name()]
}

// siteOK records a successful interaction with a site, closing its breaker
// if it was open.
func (b *Broker) siteOK(c Conn) {
	h := b.healthFor(c)
	if h == nil {
		return
	}
	if h.success() {
		b.event(obs.EventBreakerClose, slog.String("site", c.Name()))
	}
}

// siteFailed records a failed interaction with a site: timeout accounting,
// consecutive-failure tracking, and the open transition with its event and
// counter.
func (b *Broker) siteFailed(c Conn, err error) {
	if b.m != nil && isTimeoutErr(err) {
		b.m.rpcTimeouts.Inc()
	}
	h := b.healthFor(c)
	if h == nil {
		return
	}
	opened := h.failure(b.now(), b.cfg.BreakerThreshold, b.cfg.BreakerCooldown, b.cfg.BreakerCooldownMax, b.jitter)
	if opened {
		if b.m != nil {
			b.m.breakerOpen.Inc()
		}
		b.event(obs.EventBreakerOpen, slog.String("site", c.Name()), slog.String("cause", err.Error()))
		b.tryFailover(c, err)
	}
}

// tryFailover promotes a standby when a failover-capable connection's
// breaker sticks open — the broker's dead-primary detector. h.failure
// returns true only on the closed→open transition, so exactly one caller
// per outage runs the promotion, and FailoverConn serializes internally
// besides. Synchronous on purpose: the call that opened the breaker has
// already failed, and the next round should find the promoted standby
// rather than race the promotion.
func (b *Broker) tryFailover(c Conn, cause error) {
	fc, ok := c.(FailoverCapable)
	if !ok {
		return
	}
	target, err := fc.Failover("breaker open: " + cause.Error())
	if err != nil {
		// No standby left (or promotion failed): the breaker stays open and
		// cools down like any plain outage.
		b.event(obs.EventFailover,
			slog.String("site", c.Name()),
			slog.String("err", err.Error()))
		return
	}
	// The promoted standby is a different node under the same name: close
	// the breaker so the next round reaches it immediately, and drop every
	// cached answer learned from the old primary — its epochs are fenced
	// anyway, but there is no reason to wait for the epoch protocol to
	// retire them one probe at a time.
	if h := b.healthFor(c); h != nil {
		h.success()
	}
	b.invalidateSiteCache(c)
	if b.m != nil {
		b.m.failovers.Inc()
	}
	b.event(obs.EventFailover,
		slog.String("site", c.Name()),
		slog.String("target", target),
		slog.String("cause", cause.Error()))
}

// Health reports each site's breaker state in prepare order.
func (b *Broker) Health() []SiteHealth {
	now := b.now()
	out := make([]SiteHealth, 0, len(b.sites))
	for _, c := range b.sites {
		sh := SiteHealth{Site: c.Name(), State: "closed"}
		if h := b.healthFor(c); h != nil {
			state, fails, openUntil := h.snapshot()
			sh.State = breakerStateName(state)
			sh.Failures = fails
			if state == breakerOpen {
				if remaining := openUntil.Sub(now); remaining > 0 {
					sh.Cooldown = remaining
				}
			}
		}
		out = append(out, sh)
	}
	return out
}

// Recorder returns the broker's flight recorder; nil when the broker was
// built with NoTrace.
func (b *Broker) Recorder() *obs.Recorder { return b.rec }

// event emits a tracer event if a tracer is configured.
func (b *Broker) event(name string, attrs ...slog.Attr) {
	if b.tracer != nil {
		b.tracer.Event(name, attrs...)
	}
}

// Stats returns a snapshot of the broker's counters.
func (b *Broker) Stats() BrokerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// Sites returns the broker's site connections in prepare order.
func (b *Broker) Sites() []Conn { return append([]Conn(nil), b.sites...) }

// newHoldID issues a hold ID that is unique across broker restarts, not
// just within one process. Sites remember committed holds (and recover
// them from their WALs), so a restarted broker whose counter restarted at
// zero would otherwise reissue "<name>-1" and collide with a hold the site
// still tracks; the per-instance epoch token makes every incarnation's IDs
// disjoint.
func (b *Broker) newHoldID() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextHold++
	if b.epoch == "" {
		// Struct-literal brokers in tests keep the legacy format.
		return fmt.Sprintf("%s-%d", b.cfg.Name, b.nextHold)
	}
	return fmt.Sprintf("%s-%s-%d", b.cfg.Name, b.epoch, b.nextHold)
}

// CoAllocate finds a window in which the grid can supply the request's
// servers and commits it atomically across the chosen sites. On failure of
// one window it retries Δt later, up to MaxAttempts windows, mirroring the
// single-system algorithm of §4.2.
func (b *Broker) CoAllocate(now period.Time, req Request) (MultiAllocation, error) {
	if req.Servers <= 0 || req.Duration <= 0 {
		return MultiAllocation{}, fmt.Errorf("grid: invalid request %+v", req)
	}
	b.mu.Lock()
	b.stats.Requests++
	b.mu.Unlock()
	// The root span of the request's trace: every ladder attempt, per-site
	// RPC, and (across the wire) site-side span parents under it.
	root := b.rec.StartSpan("broker.coallocate",
		slog.Int64("job", req.ID),
		slog.Int("servers", req.Servers))
	defer root.End()
	if b.m != nil {
		b.m.requests.Inc()
		defer b.m.requestLatency.SinceTrace(time.Now(), root.TraceID())
	}
	b.event(obs.EventSubmit,
		slog.Int64("job", req.ID),
		slog.Int("servers", req.Servers),
		slog.Int64("start", int64(req.Start)),
		slog.Int64("duration", int64(req.Duration)))

	start := req.Start
	if start < now {
		start = now
	}
	if b.cfg.BatchProbe && b.cache != nil {
		b.prefetchLadder(root, now, start, req.Duration)
	}
	var lastErr error
	for attempt := 1; attempt <= b.cfg.MaxAttempts; attempt++ {
		end := start.Add(req.Duration)
		att := root.StartChild("broker.attempt",
			slog.Int("attempt", attempt),
			slog.Int64("window_start", int64(start)))
		alloc, err := b.tryWindow(att, now, start, end, req.Servers, attempt)
		att.Fail(err)
		att.End()
		if err == nil {
			b.mu.Lock()
			b.stats.Granted++
			b.mu.Unlock()
			if b.m != nil {
				b.m.granted.Inc()
			}
			root.Annotate(slog.String("hold", alloc.HoldID), slog.Int("attempts", attempt))
			b.event(obs.EventAccept,
				slog.Int64("job", req.ID),
				slog.String("hold", alloc.HoldID),
				slog.Int("attempts", attempt),
				slog.Int64("start", int64(alloc.Start)))
			return alloc, nil
		}
		var ce *CommitError
		if errors.As(err, &ce) {
			// The grid may be inconsistent until leases expire; do not
			// retry automatically on the caller's behalf.
			b.mu.Lock()
			b.stats.PartialCommits++
			b.mu.Unlock()
			if b.m != nil {
				b.m.partials.Inc()
			}
			root.Fail(err)
			b.event(obs.EventReject,
				slog.Int64("job", req.ID),
				slog.String("reason", "partial commit"),
				slog.String("hold", ce.HoldID))
			return MultiAllocation{}, err
		}
		if errors.Is(err, ErrAllSitesUnreachable) {
			// An outage, not capacity exhaustion: walking the Δt ladder
			// would just repeat the same timed-out probe round MaxAttempts
			// times. Fail fast and distinctly so callers (and dashboards)
			// can tell "the grid is full" from "the grid is gone".
			b.mu.Lock()
			b.stats.Unreachable++
			b.mu.Unlock()
			if b.m != nil {
				b.m.allUnreachable.Inc()
			}
			root.Fail(err)
			b.event(obs.EventReject,
				slog.Int64("job", req.ID),
				slog.String("reason", "all sites unreachable"),
				slog.Int("attempt", attempt))
			return MultiAllocation{}, fmt.Errorf("grid: co-allocation impossible: %w", err)
		}
		lastErr = err
		start = start.Add(b.cfg.DeltaT)
		if attempt < b.cfg.MaxAttempts {
			b.event(obs.EventRetry,
				slog.Int64("job", req.ID),
				slog.Int("attempt", attempt+1),
				slog.Int64("start", int64(start)))
		}
	}
	b.mu.Lock()
	b.stats.Rejected++
	b.mu.Unlock()
	if b.m != nil {
		b.m.rejected.Inc()
	}
	root.Fail(fmt.Errorf("%w after %d attempts", ErrNoCapacity, b.cfg.MaxAttempts))
	b.event(obs.EventReject,
		slog.Int64("job", req.ID),
		slog.String("reason", "no window with sufficient capacity"),
		slog.Int("attempts", b.cfg.MaxAttempts))
	return MultiAllocation{}, fmt.Errorf("%w (last: %v)", ErrNoCapacity, lastErr)
}

// fanOut runs f(i) for every site index on at most ProbeWorkers goroutines,
// the caller's among them, so one round's footprint stays fixed no matter
// how many sites the federation has. Each goroutine claims the next unclaimed
// index until none is left: with workers >= sites (every shipped config)
// that is one index each, handed over without a channel, and a round spawns
// one goroutine fewer than it has sites. f is responsible for recording its
// own result.
func (b *Broker) fanOut(f func(i int)) {
	n := len(b.sites)
	workers := max(min(b.cfg.ProbeWorkers, n), 1)
	var round struct {
		next atomic.Int64
		wg   sync.WaitGroup
	}
	work := func() {
		defer round.wg.Done()
		for {
			i := int(round.next.Add(1)) - 1
			if i >= n {
				return
			}
			f(i)
		}
	}
	round.wg.Add(workers)
	for w := 1; w < workers; w++ {
		go work()
	}
	work()
	round.wg.Wait()
}

// probeAttr returns the prebuilt probe span attrs for site i, or nil on a
// broker assembled without NewBroker (test fixtures).
func (b *Broker) probeAttr(i int, src string) []slog.Attr {
	if i >= len(b.probeAttrs) {
		return nil
	}
	return b.probeAttrs[i][src]
}

// breakerOpenFor reports (and accounts) whether the site's circuit is open,
// failing the call fast instead of waiting out a timeout.
func (b *Broker) breakerOpenFor(c Conn) error {
	if h := b.healthFor(c); h != nil && !h.allow(b.now()) {
		if b.m != nil {
			b.m.breakerSkips.Inc()
		}
		return fmt.Errorf("%s: %w", c.Name(), ErrCircuitOpen)
	}
	return nil
}

// probeSites fans one probe round out over the sites through a bounded
// worker pool: one round trip per site carrying both availability and
// capacity. An unreachable site contributes Avail{Err: err} with both
// numbers zero. Sites with an open circuit breaker are skipped without a
// round trip — they fail fast with ErrCircuitOpen so one hung site cannot
// slow every probe round to its timeout. With the availability cache
// enabled, repeat probes of an unchanged site are answered locally and
// concurrent identical probes share one RPC.
func (b *Broker) probeSites(sp *obs.ActiveSpan, now, start, end period.Time) []Avail {
	avail := make([]Avail, len(b.sites))
	b.fanOut(func(i int) {
		c := b.sites[i]
		// Reserve the probe span's identity up front (so the site's remote
		// fragment can parent under it) but record the span only once the
		// outcome is known: RecordAs into the trace's arena keeps the
		// per-probe tracing cost allocation-free on this hot path.
		pc := sp.ChildContext()
		var t0 time.Time
		if pc.Valid() {
			t0 = time.Now()
		}
		if err := b.breakerOpenFor(c); err != nil {
			sp.RecordAs(pc, "broker.probe", t0, t0, err, b.probeAttr(i, "breaker_skip")...)
			avail[i] = Avail{Conn: c, Err: err}
			return
		}
		r, src, err := b.cachedProbe(c, pc, now, start, end)
		if pc.Valid() {
			sp.RecordAs(pc, "broker.probe", t0, time.Now(), err, b.probeAttr(i, src)...)
		}
		// A cache hit or a coalesced follower did not perform the round trip
		// itself; breaker accounting belongs to the leader alone.
		shared := src == probeSrcHit || src == probeSrcCoalesced
		if err != nil {
			avail[i] = Avail{Conn: c, Err: err}
			if b.m != nil {
				b.m.unreachable.Inc()
			}
			if !shared {
				b.siteFailed(c, err)
			}
			return
		}
		avail[i] = Avail{Conn: c, Available: r.Available, Capacity: r.Capacity, Epoch: r.Epoch}
		if !shared {
			b.siteOK(c)
		}
	})
	return avail
}

// probe answer sources, annotated on every broker.probe span so a trace
// shows why a probe was fast (hit, coalesced) or slow (rpc, miss).
const (
	probeSrcRPC       = "rpc"       // no cache configured: a plain round trip
	probeSrcHit       = "hit"       // answered from the availability cache
	probeSrcMiss      = "miss"      // cache miss: this caller led the RPC
	probeSrcCoalesced = "coalesced" // joined another caller's in-flight RPC
)

// cachedProbe answers one site probe through the availability cache: a
// valid entry short-circuits the RPC, a miss joins the single-flight group
// for the exact request, and only the flight leader actually talks to the
// site — carrying tc so the site's spans parent under the probe span. The
// returned source (one of the probeSrc constants) tells the caller whether
// this goroutine performed the round trip itself: a hit or a coalesced
// follower must not do breaker accounting, otherwise one timeout would be
// counted once per waiter and trip the breaker in a single round.
func (b *Broker) cachedProbe(c Conn, tc obs.SpanContext, now, start, end period.Time) (r ProbeResult, src string, err error) {
	pc := b.cache
	if pc == nil {
		r, err = connProbe(c, tc, now, start, end)
		return r, probeSrcRPC, err
	}
	site := c.Name()
	if e, ok := pc.lookup(site, kindProbe, now, start, end); ok {
		return e.probe, probeSrcHit, nil
	}
	key := flightKey{site: site, kind: kindProbe, now: now, start: start, end: end}
	fl, leader := pc.join(key)
	if !leader {
		<-fl.done
		return fl.probe, probeSrcCoalesced, fl.err
	}
	r, err = connProbe(c, tc, now, start, end)
	if err == nil {
		if dropped := pc.observe(site, r.Epoch); dropped > 0 {
			b.event(obs.EventCacheInvalidate,
				slog.String("site", site),
				slog.String("cause", "epoch"),
				slog.Int("entries", dropped))
		}
		pc.store(site, kindProbe, start, end, r.Epoch, r.SiteNow, r, nil, fl.gen)
	}
	fl.probe, fl.err = r, err
	pc.finish(key, fl)
	return r, probeSrcMiss, err
}

// cachedRange is cachedProbe's twin for the per-site range search.
func (b *Broker) cachedRange(c RangeConn, now, start, end period.Time) (feasible []period.Period, shared bool, err error) {
	pc := b.cache
	if pc == nil {
		rr, err := c.RangeView(now, start, end)
		return rr.Feasible, false, err
	}
	site := c.Name()
	if e, ok := pc.lookup(site, kindRange, now, start, end); ok {
		// Copy out: the cached slice is shared by every future hit.
		return append([]period.Period(nil), e.feasible...), true, nil
	}
	key := flightKey{site: site, kind: kindRange, now: now, start: start, end: end}
	fl, leader := pc.join(key)
	if !leader {
		<-fl.done
		return append([]period.Period(nil), fl.feasible...), true, fl.err
	}
	rr, err := c.RangeView(now, start, end)
	if err == nil {
		if dropped := pc.observe(site, rr.Epoch); dropped > 0 {
			b.event(obs.EventCacheInvalidate,
				slog.String("site", site),
				slog.String("cause", "epoch"),
				slog.Int("entries", dropped))
		}
		pc.store(site, kindRange, start, end, rr.Epoch, rr.SiteNow, ProbeResult{}, rr.Feasible, fl.gen)
	}
	fl.feasible, fl.err = rr.Feasible, err
	pc.finish(key, fl)
	return rr.Feasible, false, err
}

// invalidateSiteCache drops a site's cached availability around the
// broker's own 2PC traffic. Unconditional on purpose: prepare and abort
// always mutate the site on success, and even a failed or timed-out
// prepare may have landed there — the next probe refetches and re-learns
// the site's epoch either way.
func (b *Broker) invalidateSiteCache(c Conn) {
	if b.cache == nil {
		return
	}
	if b.cache.invalidate(c.Name()) {
		b.event(obs.EventCacheInvalidate,
			slog.String("site", c.Name()),
			slog.String("cause", "2pc"))
	}
}

// CacheStats returns the availability cache's counters; all zeros when the
// cache is disabled.
func (b *Broker) CacheStats() CacheStats {
	if b.cache == nil {
		return CacheStats{}
	}
	return b.cache.statsSnapshot()
}

// tryWindow runs one probe/prepare/commit round for a fixed window. sp is
// the ladder-attempt span the round's per-site spans parent under.
func (b *Broker) tryWindow(sp *obs.ActiveSpan, now, start, end period.Time, total, attempt int) (MultiAllocation, error) {
	if b.m != nil {
		defer b.m.windowLatency.SinceTrace(time.Now(), sp.TraceID())
	}
	avail := b.probeSites(sp, now, start, end)

	// When not a single site answered, the grid is not out of capacity —
	// it is unreachable. Surface that as its own error so CoAllocate can
	// skip the Δt retry ladder: a later window cannot help when nothing
	// answers probes.
	reachable := 0
	for _, a := range avail {
		if a.Err == nil {
			reachable++
		}
	}
	if reachable == 0 {
		return MultiAllocation{}, fmt.Errorf("probe round reached 0 of %d sites: %w", len(avail), ErrAllSitesUnreachable)
	}

	shares, err := b.cfg.Strategy.Split(total, avail)
	if err != nil {
		return MultiAllocation{}, err
	}
	// Prepare in canonical (name) order: concurrent brokers acquiring
	// overlapping site sets therefore never deadlock — one of them simply
	// fails its prepare and aborts.
	sort.SliceStable(shares, func(i, j int) bool { return shares[i].Conn.Name() < shares[j].Conn.Name() })

	holdID := b.newHoldID()
	granted := make([]GrantedShare, 0, len(shares))
	prepared := make([]Conn, 0, len(shares))
	grantedServers := 0
	// probedEpochs carries each site's probed epoch into its prepare so the
	// site can classify a refusal as a conflict; availByName feeds the
	// conflict re-split with the tail sites' probed numbers.
	probedEpochs := make(map[string]uint64, len(avail))
	availByName := make(map[string]Avail, len(avail))
	for _, a := range avail {
		if a.Err == nil {
			probedEpochs[a.Conn.Name()] = a.Epoch
			availByName[a.Conn.Name()] = a
		}
	}
	conflictBudget := b.cfg.ConflictRetries
	if conflictBudget < 0 {
		conflictBudget = 0
	}
	sawConflict := false

	queue := shares
	for qi := 0; qi < len(queue); qi++ {
		sh := queue[qi]
		pps := sp.StartChild("broker.prepare",
			slog.String("site", sh.Conn.Name()),
			slog.String("hold", holdID),
			slog.Int("servers", sh.Servers))
		servers, err := connPrepareEpoch(sh.Conn, pps.Context(), now, holdID, start, end, sh.Servers, b.cfg.Lease, probedEpochs[sh.Conn.Name()])
		pps.Fail(err)
		pps.End()
		// Prepare is a mutation whether it succeeded or not (a timed-out one
		// may have landed), so the site's cached availability is void either
		// way — and a prepare answered under a stale idea of the site's
		// state is exactly what the epoch protocol exists to flush.
		b.invalidateSiteCache(sh.Conn)
		if err != nil {
			var conflict *ConflictError
			if errors.As(err, &conflict) {
				// The site answered; losing an optimistic-concurrency race is
				// not an outage, so the breaker sees a success.
				b.siteOK(sh.Conn)
				b.mu.Lock()
				b.stats.Conflicts++
				if !sawConflict {
					sawConflict = true
					b.stats.ConflictWindows++
				}
				b.mu.Unlock()
				if b.m != nil {
					b.m.conflicts.Inc()
				}
				b.event(obs.EventConflict,
					slog.String("hold", holdID),
					slog.String("site", sh.Conn.Name()),
					slog.Uint64("epoch", conflict.Epoch))
				if conflictBudget > 0 {
					if next, ok := b.conflictResplit(sp, now, start, end, sh, total-grantedServers, availByName, probedEpochs); ok {
						conflictBudget--
						b.mu.Lock()
						b.stats.ConflictRetries++
						b.mu.Unlock()
						if b.m != nil {
							b.m.conflictRetries.Inc()
						}
						// Restart the prepare loop over the re-split residual;
						// the prepared prefix is kept and every new share is
						// named at or after the contended site, so acquisition
						// order stays monotone across passes.
						queue, qi = next, -1
						continue
					}
				}
			} else {
				b.siteFailed(sh.Conn, err)
			}
			// A timed-out prepare is ambiguous: the request may have reached
			// the site and leased the servers even though the reply never
			// came. Send a best-effort abort so a landed hold is released
			// now rather than leaking until its lease expires; if the site
			// is truly unreachable the abort fails too and the lease backs
			// us up.
			aborts := prepared
			if isTimeoutErr(err) {
				aborts = append(append([]Conn(nil), prepared...), sh.Conn)
			}
			// Phase 1 failed: abort everything prepared so far, counting only
			// the aborts that actually landed — a failed abort releases
			// nothing until the lease expires, matching the phase-2
			// compensation accounting.
			aborted := 0
			for _, p := range aborts {
				as := sp.StartChild("broker.abort",
					slog.String("site", p.Name()),
					slog.String("hold", holdID),
					slog.String("cause", "prepare_failed"))
				aerr := connAbort(p, as.Context(), now, holdID) // best effort; leases back us up
				as.Fail(aerr)
				as.End()
				b.invalidateSiteCache(p)
				if aerr == nil {
					aborted++
					b.event(obs.EventAbort, slog.String("hold", holdID), slog.String("site", p.Name()))
				}
			}
			b.mu.Lock()
			b.stats.Aborts += uint64(aborted)
			b.mu.Unlock()
			if b.m != nil {
				b.m.aborts.Add(uint64(aborted))
			}
			return MultiAllocation{}, fmt.Errorf("grid: prepare failed at %s: %w", sh.Conn.Name(), err)
		}
		b.siteOK(sh.Conn)
		prepared = append(prepared, sh.Conn)
		granted = append(granted, GrantedShare{Site: sh.Conn.Name(), Servers: servers})
		grantedServers += len(servers)
		b.event(obs.EventPrepare,
			slog.String("hold", holdID),
			slog.String("site", sh.Conn.Name()),
			slog.Int("servers", len(servers)))
	}

	// Phase 2: commit everywhere, retrying transient failures. Clamp the
	// retry budget at the use site too: a zero-value config reaching this
	// loop directly would otherwise skip commit entirely, stranding every
	// prepared hold until its lease expires.
	retries := b.cfg.CommitRetries
	if retries < 1 {
		retries = 1
	}
	var committed, failed []string
	var committedConns []Conn
	var commitErr error
	for _, c := range prepared {
		cs := sp.StartChild("broker.commit",
			slog.String("site", c.Name()),
			slog.String("hold", holdID))
		var err error
		backoff := b.cfg.RetryBackoff
		deliveries := 0
		for r := 0; r < retries; r++ {
			if r > 0 && backoff > 0 {
				// Exponential backoff with jitter between re-deliveries: a
				// site that refused or timed out a moment ago rarely
				// recovers in microseconds, and synchronized hammering from
				// many brokers only prolongs the brownout.
				b.pause(b.jitter(backoff))
				backoff *= 2
			}
			deliveries++
			if err = connCommit(c, cs.Context(), now, holdID); err == nil {
				break
			}
			b.siteFailed(c, err)
		}
		if deliveries > 1 {
			cs.Annotate(slog.Int("retries", deliveries-1))
		}
		cs.Fail(err)
		cs.End()
		b.invalidateSiteCache(c)
		if err != nil {
			failed = append(failed, c.Name())
			commitErr = err
			continue
		}
		b.siteOK(c)
		committed = append(committed, c.Name())
		committedConns = append(committedConns, c)
		b.event(obs.EventCommit, slog.String("hold", holdID), slog.String("site", c.Name()))
	}
	if len(failed) > 0 {
		// Compensate the sites that did commit: without these aborts their
		// shares would stay allocated for the whole job duration even though
		// the co-allocation failed. Best effort — a site we cannot reach now
		// keeps the hold remembered until its window ends, so a later abort
		// (or the window closing) still reclaims it.
		var aborted []string
		for _, c := range committedConns {
			as := sp.StartChild("broker.abort",
				slog.String("site", c.Name()),
				slog.String("hold", holdID),
				slog.String("cause", "compensation"))
			err := connAbort(c, as.Context(), now, holdID)
			as.Fail(err)
			as.End()
			if err == nil {
				aborted = append(aborted, c.Name())
				b.event(obs.EventAbort, slog.String("hold", holdID), slog.String("site", c.Name()))
			}
			b.invalidateSiteCache(c)
		}
		b.mu.Lock()
		b.stats.Aborts += uint64(len(aborted))
		b.mu.Unlock()
		if b.m != nil {
			b.m.aborts.Add(uint64(len(aborted)))
		}
		return MultiAllocation{}, &CommitError{HoldID: holdID, Committed: committed, Aborted: aborted, Failed: failed, Shares: granted, Err: commitErr}
	}
	if sawConflict {
		// The window survived its conflicts: the retry path turned what
		// would have been a burned Δt rung into a commit.
		b.mu.Lock()
		b.stats.ConflictWindowSaved++
		b.mu.Unlock()
		if b.m != nil {
			b.m.conflictWindowSaved.Inc()
		}
	}
	return MultiAllocation{
		HoldID:   holdID,
		Start:    start,
		End:      end,
		Shares:   granted,
		Attempts: attempt,
	}, nil
}

// conflictResplit builds the retry queue after a prepare conflict: it
// re-probes only the contended site (whose cache entry the caller just
// invalidated, so the probe reaches the site) and asks the strategy to
// re-split the residual demand over the fresh answer plus every other
// probed site named after the contended one — including sites the original
// split left empty, so the residual can route around the contention.
// Candidates are therefore all named at or after the contended site, and
// every already-prepared share is named strictly before it: the retried
// prepares extend the canonical name order already acquired, and the
// no-deadlock invariant holds across passes. Returns false — sending the
// caller to the plain failure path and the Δt ladder — when the re-probe
// fails or the residual no longer fits the candidate set.
func (b *Broker) conflictResplit(sp *obs.ActiveSpan, now, start, end period.Time, contended Share, residual int, availByName map[string]Avail, probedEpochs map[string]uint64) ([]Share, bool) {
	c := contended.Conn
	rp := sp.StartChild("broker.reprobe", slog.String("site", c.Name()))
	r, src, err := b.cachedProbe(c, rp.Context(), now, start, end)
	rp.Fail(err)
	rp.End()
	shared := src == probeSrcHit || src == probeSrcCoalesced
	if err != nil {
		if !shared {
			b.siteFailed(c, err)
		}
		return nil, false
	}
	if !shared {
		b.siteOK(c)
	}
	fresh := Avail{Conn: c, Available: r.Available, Capacity: r.Capacity, Epoch: r.Epoch}
	probedEpochs[c.Name()] = r.Epoch
	availByName[c.Name()] = fresh
	cands := make([]Avail, 0, len(availByName))
	cands = append(cands, fresh)
	for name, a := range availByName {
		if name > c.Name() {
			cands = append(cands, a)
		}
	}
	// Deterministic candidate order: map iteration would otherwise feed the
	// strategy's stable tie-breaking a different order every retry.
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].Conn.Name() < cands[j].Conn.Name() })
	next, err := b.cfg.Strategy.Split(residual, cands)
	if err != nil {
		return nil, false
	}
	sort.SliceStable(next, func(i, j int) bool { return next[i].Conn.Name() < next[j].Conn.Name() })
	return next, true
}

// ProbeAll returns each site's availability for a window — the cross-site
// range search (§4.2) exposed to users for their own post-processing.
func (b *Broker) ProbeAll(now, start, end period.Time) []Avail {
	root := b.rec.StartSpan("broker.probe_all")
	defer root.End()
	return b.probeSites(root, now, start, end)
}

// SiteRange is one site's answer in a cross-site range search: the idle
// periods feasible for the window, or the error that kept the site from
// answering (including ErrCircuitOpen and "range search unsupported" for
// connections that only implement Conn).
type SiteRange struct {
	Conn     Conn
	Feasible []period.Period
	Err      error
}

// RangeAll fans the user-facing AR range search (§4.2) out over every site,
// returning each site's feasible idle periods for [start, end). Answers
// flow through the availability cache under the same epoch rules as probes,
// so a user iterating candidate windows against an unchanged federation
// pays one RPC per site per distinct window, not per call.
func (b *Broker) RangeAll(now, start, end period.Time) []SiteRange {
	out := make([]SiteRange, len(b.sites))
	b.fanOut(func(i int) {
		c := b.sites[i]
		rc, ok := c.(RangeConn)
		if !ok {
			out[i] = SiteRange{Conn: c, Err: fmt.Errorf("grid: site %s does not support range search", c.Name())}
			return
		}
		if err := b.breakerOpenFor(c); err != nil {
			out[i] = SiteRange{Conn: c, Err: err}
			return
		}
		feasible, shared, err := b.cachedRange(rc, now, start, end)
		if err != nil {
			out[i] = SiteRange{Conn: c, Err: err}
			if b.m != nil {
				b.m.unreachable.Inc()
			}
			if !shared {
				b.siteFailed(c, err)
			}
			return
		}
		out[i] = SiteRange{Conn: c, Feasible: feasible}
		if !shared {
			b.siteOK(c)
		}
	})
	return out
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
	byName := make(map[string]Conn, len(b.sites))
	for _, c := range b.sites {
		byName[c.Name()] = c
	}
	var firstErr error
	for _, sh := range alloc.Shares {
		c, ok := byName[sh.Site]
		if !ok {
			if firstErr == nil {
				firstErr = fmt.Errorf("grid: release of %s: unknown site %q", alloc.HoldID, sh.Site)
			}
			continue
		}
		if err := b.breakerOpenFor(c); err != nil {
			as := root.StartChild("broker.abort",
				slog.String("site", sh.Site),
				slog.String("hold", alloc.HoldID),
				slog.String("cause", "release"))
			as.Fail(err)
			as.End()
			if firstErr == nil {
				firstErr = fmt.Errorf("grid: release of %s at %s: %w", alloc.HoldID, sh.Site, err)
			}
			continue
		}
		as := root.StartChild("broker.abort",
			slog.String("site", sh.Site),
			slog.String("hold", alloc.HoldID),
			slog.String("cause", "release"))
		err := connAbort(c, as.Context(), now, alloc.HoldID)
		as.Fail(err)
		as.End()
		b.invalidateSiteCache(c)
		if err != nil {
			b.siteFailed(c, err)
			if firstErr == nil {
				firstErr = fmt.Errorf("grid: release of %s at %s: %w", alloc.HoldID, sh.Site, err)
			}
			continue
		}
		b.siteOK(c)
		b.event(obs.EventAbort, slog.String("hold", alloc.HoldID), slog.String("site", sh.Site), slog.Bool("release", true))
	}
	root.Fail(firstErr)
	return firstErr
}
