package grid

import (
	"sync"

	"coalloc/internal/period"
)

// probeCache is the broker-side availability cache. It remembers probe and
// range-search answers per site, keyed by (slot bucket, duration bucket),
// each tagged with the site epoch it was computed under, and serves repeat
// probes without a round trip for as long as that epoch stands:
//
//   - Validity. An entry answers a request iff it was computed for exactly
//     the requested window, the site has not reported a newer epoch, and the
//     request's now does not exceed the site clock the answer was computed
//     at (a probe ahead of it may cross a lease expiry — a mutation — and
//     only the site's own view knows when the next one is due).
//   - Invalidation. Epochs are compared on every fresh reply; a moved epoch
//     drops every entry of that site at once (the epoch is site-global).
//     The broker also drops a site's entries eagerly around its own 2PC
//     traffic — prepare/commit/abort mutate the site, and even a failed or
//     timed-out prepare may have landed.
//   - Coalescing. Concurrent identical misses share one flight: the first
//     caller performs the RPC, the rest block on it and reuse the reply, so
//     N simultaneous probes of an idle federation cost one round trip.
//
// Entries whose reply carries epoch zero — a site predating the epoch field
// — are never stored: with no invalidation signal a cached answer could
// outlive the state it describes.
//
// The cache assumes this broker is the site's dominant writer. A mutation
// issued by another broker becomes visible here only at the next actual
// round trip (any miss, including every clock-advancing probe), exactly the
// staleness window the paper's periodic-probe brokers already live with.
type probeCache struct {
	bucket int64 // window quantization, in seconds (τ by default)
	maxPer int   // per-site entry bound
	m      *brokerMetrics

	mu      sync.Mutex
	sites   map[string]*siteCache
	flights map[flightKey]*flight
	// gens is the per-site invalidation generation. Every blind drop — own
	// 2PC traffic, a watch-stream gap, a failover re-target — bumps it. A
	// flight leader snapshots the generation at join and store discards the
	// reply if it moved: the reply may have been computed before the
	// mutation the drop was protecting against, and caching it would
	// resurrect exactly the answer the invalidation retired. Kept outside
	// siteCache so a drop lands even before the site's first reply.
	gens map[string]uint64
}

// supersededRing bounds how many retired epochs a site remembers for the
// reordered-reply check; collisions with a genuinely new epoch are
// negligible (epochs embed a random 56-bit salt).
const supersededRing = 8

// siteCache holds one site's entries, all computed under the same epoch.
type siteCache struct {
	epoch uint64
	// salt is the incarnation component of epoch, known only while a watch
	// stream is live (events carry it; plain replies do not). While set,
	// reply epochs from the same incarnation are ordered numerically — the
	// calendar epoch is strictly monotone within an incarnation — and
	// replies from any other incarnation are refused outright: the watch is
	// authoritative for which incarnation is current. A stream gap clears
	// it, restoring the reply-driven regime below.
	salt uint64
	// superseded remembers epochs this connection has already moved past,
	// so a delayed reply from a retired epoch is dropped-but-not-adopted
	// instead of regressing sc.epoch and re-admitting stale answers.
	superseded [supersededRing]uint64
	supN       int
	entries    map[entryKey]*cacheEntry
}

// wasSuperseded reports whether epoch was already retired this connection.
func (sc *siteCache) wasSuperseded(epoch uint64) bool {
	for _, e := range sc.superseded {
		if e != 0 && e == epoch {
			return true
		}
	}
	return false
}

// retire pushes the current epoch into the superseded ring before adoption.
func (sc *siteCache) retire(epoch uint64) {
	if epoch == 0 {
		return
	}
	sc.superseded[sc.supN%supersededRing] = epoch
	sc.supN++
}

// Cache-entry kinds: probe answers and range-search answers live side by
// side under the same keying and invalidation rules.
const (
	kindProbe = uint8(iota)
	kindRange
)

// entryKey buckets windows by start slot and duration so the retry ladder's
// neighbors and same-length requests map onto a compact key space. Distinct
// windows may share a key; the entry stores the exact window and a lookup
// requires an exact match, so a collision costs a miss, never a wrong
// answer.
type entryKey struct {
	slotBucket int64
	durBucket  int64
	kind       uint8
}

// reply is a site's answer to a cached read: the probe result, or for a
// range search the feasible periods with probe carrying only the epoch and
// site clock they were computed under.
type reply struct {
	probe    ProbeResult
	feasible []period.Period // kindRange only; treated as immutable
}

// cacheEntry is one cached answer and the exact window it answers; it is
// valid through the site clock its reply carries.
type cacheEntry struct {
	start, end period.Time
	reply
}

// flightKey identifies one coalescable in-flight request.
type flightKey struct {
	site       string
	kind       uint8
	now        period.Time
	start, end period.Time
}

// flight is one in-flight RPC shared by concurrent identical requests. The
// leader fills the result fields before closing done; the channel close is
// the happens-before edge the followers read across. gen is the site's
// invalidation generation at join time; store refuses the leader's reply if
// it moved while the RPC was in flight.
type flight struct {
	done chan struct{}
	gen  uint64
	reply
	err error
}

func newProbeCache(bucket period.Duration, maxPer int, m *brokerMetrics) *probeCache {
	return &probeCache{
		bucket:  int64(bucket),
		maxPer:  maxPer,
		m:       m,
		sites:   make(map[string]*siteCache),
		flights: make(map[flightKey]*flight),
		gens:    make(map[string]uint64),
	}
}

func (pc *probeCache) key(start, end period.Time, kind uint8) entryKey {
	return entryKey{
		slotBucket: int64(start) / pc.bucket,
		durBucket:  int64(end-start) / pc.bucket,
		kind:       kind,
	}
}

// lookup returns the cached answer for the exact window, if one is valid
// for a request issued at now. It accounts the hit or miss.
func (pc *probeCache) lookup(site string, kind uint8, now, start, end period.Time) *cacheEntry {
	e := pc.peek(site, kind, now, start, end)
	if e == nil {
		pc.m.inc(cCacheMisses)
	} else {
		pc.m.inc(cCacheHits)
	}
	return e
}

// sameIncarnation reports whether epoch belongs to the incarnation salt
// identifies: epochs are salt + calendar counter, the salt is 56 random
// bits, and the counter never plausibly reaches 2^40, so membership is a
// range check.
func sameIncarnation(salt, epoch uint64) bool {
	return salt != 0 && epoch >= salt && epoch-salt < 1<<40
}

// observe folds a fresh reply's epoch into the site's cache state. If the
// epoch moved forward, every entry of the site is dropped (the epoch is
// site-global: one mutation retires all of them). A reply whose epoch was
// already superseded this connection — a delayed RPC racing a faster one,
// or a straggler from a deposed incarnation — is recorded as reordered and
// changes nothing: adopting it would regress sc.epoch and let subsequent
// stores cache answers computed under retired state. It returns how many
// entries were dropped.
func (pc *probeCache) observe(site string, epoch uint64) int {
	if epoch == 0 {
		return 0 // epoch-less site: nothing was cached, nothing to retire
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	sc := pc.sites[site]
	if sc == nil {
		sc = &siteCache{epoch: epoch, entries: make(map[entryKey]*cacheEntry)}
		pc.sites[site] = sc
		return 0
	}
	if sc.epoch == epoch {
		return 0
	}
	if pc.stalerLocked(sc, epoch) {
		pc.m.inc(cCacheReordered)
		return 0
	}
	return pc.adoptLocked(sc, epoch)
}

// stalerLocked decides whether a reply epoch is older than the site's
// current one. With a live watch stream the salt is known: same-incarnation
// epochs order numerically and foreign-incarnation epochs are refused (the
// watch is authoritative for the current incarnation). Without a salt the
// superseded ring is the only memory.
func (pc *probeCache) stalerLocked(sc *siteCache, epoch uint64) bool {
	if sameIncarnation(sc.salt, sc.epoch) {
		if sameIncarnation(sc.salt, epoch) {
			return epoch < sc.epoch
		}
		return true
	}
	return sc.wasSuperseded(epoch)
}

// adoptLocked installs a newer epoch, retiring the old one and every entry
// computed under it. Caller holds pc.mu.
func (pc *probeCache) adoptLocked(sc *siteCache, epoch uint64) int {
	sc.retire(sc.epoch)
	sc.epoch = epoch
	dropped := len(sc.entries)
	if dropped > 0 {
		sc.entries = make(map[entryKey]*cacheEntry)
		pc.m.add(cCacheStale, uint64(dropped))
	}
	return dropped
}

// observeEvent folds a pushed watch event into the site's cache state. It
// differs from observe in two ways: events carry the incarnation salt, so a
// salt change (failover, restart, restore) is adopted unconditionally — the
// watch stream is the authority on which incarnation is current — and the
// salt is remembered so subsequent reply epochs can be ordered numerically.
// It returns how many entries the event retired.
func (pc *probeCache) observeEvent(site string, epoch, salt uint64) int {
	if epoch == 0 {
		return 0
	}
	pc.m.inc(cCacheWatchEvents)
	pc.mu.Lock()
	defer pc.mu.Unlock()
	sc := pc.sites[site]
	if sc == nil {
		sc = &siteCache{epoch: epoch, salt: salt, entries: make(map[entryKey]*cacheEntry)}
		pc.sites[site] = sc
		return 0
	}
	if salt != 0 && salt != sc.salt {
		// New incarnation (or first event of the stream): adopt even if the
		// epoch compares lower — numeric order only means anything within
		// one incarnation. Reset the ring: it describes the old regime.
		sc.salt = salt
		sc.superseded = [supersededRing]uint64{}
		sc.supN = 0
		if sc.epoch == epoch {
			return 0
		}
		return pc.adoptLocked(sc, epoch)
	}
	if sc.epoch == epoch || pc.stalerLocked(sc, epoch) {
		return 0 // duplicate or out-of-order event: nothing to retire
	}
	return pc.adoptLocked(sc, epoch)
}

// store caches a fresh answer. The caller must have called observe with the
// reply's epoch first; a reply from an older epoch than the site's current
// one (a race between two flights) is discarded rather than stored. gen is
// the invalidation generation the caller's flight joined under: if a blind
// drop (own 2PC, watch gap, failover re-target) landed while the RPC was in
// flight, the reply may predate the mutation the drop retired and is
// discarded too — same epoch or not.
func (pc *probeCache) store(site string, kind uint8, start, end period.Time, r reply, gen uint64) {
	epoch := r.probe.Epoch
	if epoch == 0 {
		return // pre-epoch site: no invalidation signal, never cache
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	sc := pc.sites[site]
	if sc == nil || sc.epoch != epoch || pc.gens[site] != gen {
		return
	}
	k := pc.key(start, end, kind)
	if _, exists := sc.entries[k]; !exists && pc.maxPer > 0 && len(sc.entries) >= pc.maxPer {
		for victim := range sc.entries { // arbitrary single eviction
			delete(sc.entries, victim)
			break
		}
		pc.m.inc(cCacheEvictions)
	}
	sc.entries[k] = &cacheEntry{start: start, end: end, reply: r}
}

// invalidate drops every entry of one site — the broker just sent it 2PC
// traffic, or re-targeted the connection at a promoted standby. It always
// bumps the site's invalidation generation, entries or not: a flight in
// progress must not store its (possibly pre-mutation) reply either way.
func (pc *probeCache) invalidate(site string) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.gens[site]++
	sc := pc.sites[site]
	if sc == nil || len(sc.entries) == 0 {
		return
	}
	sc.entries = make(map[entryKey]*cacheEntry)
	pc.m.inc(cCacheInvalidations)
}

// gap records a watch-stream gap for site: entries drop conservatively (a
// mutation may have happened unheard), the generation bumps so in-flight
// replies are refused, and the salt is forgotten — the stream is no longer
// authoritative for the current incarnation, so reply-driven epoch adoption
// takes back over until the stream re-establishes.
func (pc *probeCache) gap(site string) {
	pc.m.inc(cCacheWatchGaps)
	pc.mu.Lock()
	if sc := pc.sites[site]; sc != nil {
		sc.salt = 0
	}
	pc.mu.Unlock()
	pc.invalidate(site)
}

// genOf snapshots the site's invalidation generation, for callers (the
// batched ladder prefetch) that store outside the single-flight path.
func (pc *probeCache) genOf(site string) uint64 {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.gens[site]
}

// peek is lookup without the hit/miss accounting (nil when no valid entry
// exists) — the ladder prefetch uses it to decide which rungs still need
// fetching.
func (pc *probeCache) peek(site string, kind uint8, now, start, end period.Time) *cacheEntry {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	sc := pc.sites[site]
	if sc == nil {
		return nil
	}
	if e := sc.entries[pc.key(start, end, kind)]; e != nil && e.start == start && e.end == end && now <= e.probe.SiteNow {
		return e
	}
	return nil
}

// join enters the single-flight group for key. The first caller becomes the
// leader (leader == true) and must call finish exactly once; later callers
// get the existing flight and block on its done channel.
func (pc *probeCache) join(key flightKey) (*flight, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if fl := pc.flights[key]; fl != nil {
		pc.m.inc(cCacheCoalesced)
		return fl, false
	}
	fl := &flight{done: make(chan struct{}), gen: pc.gens[key.site]}
	pc.flights[key] = fl
	return fl, true
}

// finish publishes the leader's result to the flight's followers and
// retires the flight.
func (pc *probeCache) finish(key flightKey, fl *flight) {
	pc.mu.Lock()
	delete(pc.flights, key)
	pc.mu.Unlock()
	close(fl.done)
}

// entries counts the entries currently cached across all sites.
func (pc *probeCache) entries() (n int) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for _, sc := range pc.sites {
		n += len(sc.entries)
	}
	return n
}
