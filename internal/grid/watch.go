package grid

// Push-based cache invalidation. The PR 5 availability cache learned of
// site epoch bumps only passively, per reply: a broker serving hot cached
// answers could go stale for an unbounded interval until its next RPC.
// The watch subscription closes that window: one long-poll loop per site
// connection in which the site parks the call until a mutation publishes a
// new view, then answers immediately with the new (epoch, salt, siteNow) —
// the k8s/arktos watch idiom adapted to net/rpc, which cannot stream. The
// broker folds each event into the cache through observeEvent, so entries
// retire one event-delivery latency after the mutation instead of at the
// next miss.
//
// Gap semantics are deliberately conservative: any stream error — a
// severed transport, a breaker-tripped site, a failover re-target mid-poll
// — drops every cached entry for the site and bumps its invalidation
// generation before the loop re-subscribes, because mutations may have
// gone unheard while the stream was down. The first poll after
// re-subscribing passes after=0 and returns the current epoch immediately,
// re-baselining the stream.

import (
	"errors"
	"time"

	"coalloc/internal/period"
)

// EpochEvent is one pushed epoch bump: the site's current epoch, the
// incarnation salt component of it, and the site clock at publish time.
type EpochEvent struct {
	Epoch   uint64
	Salt    uint64
	SiteNow period.Time
}

// Window is one candidate co-allocation window in a batched ladder probe.
type Window struct {
	Start, End period.Time
}

// ErrWatchUnsupported reports that the far side predates the watch
// protocol: the broker stays on passive per-reply invalidation for that
// site.
var ErrWatchUnsupported = errors.New("grid: epoch watch unsupported by site")

// ErrProbeBatchUnsupported reports that the far side predates the batched
// ladder probe: the broker falls back to per-window probes.
var ErrProbeBatchUnsupported = errors.New("grid: batched probe unsupported by site")

// WatchConn is the optional connection surface for the epoch watch. A
// conforming implementation parks the call until the site's epoch differs
// from after or maxWait elapses; changed reports which happened. A site
// that cannot serve the watch at all returns ErrWatchUnsupported (wrapped
// or verbatim).
type WatchConn interface {
	Conn
	WatchEpoch(after uint64, maxWait time.Duration) (ev EpochEvent, changed bool, err error)
}

// BatchProbeConn is the optional connection surface for the batched ladder
// probe: one round trip answers every candidate window, each result tagged
// with the epoch and site clock it was computed under, exactly as the
// per-window probe would have been.
type BatchProbeConn interface {
	Conn
	ProbeBatch(now period.Time, windows []Window) ([]ProbeResult, error)
}

// retargetNotifier is the optional connection surface a broker uses to
// hear about failover re-targets; FailoverConn implements it.
type retargetNotifier interface {
	OnRetarget(func(target string))
}

// startWatchers spawns one watch loop per watch-capable site connection.
// Called from NewBroker under cfg.CacheWatch; connections that do not
// implement WatchConn are skipped (they stay on passive invalidation).
func (b *Broker) startWatchers() {
	for _, c := range b.sites {
		wc, ok := c.(WatchConn)
		if !ok {
			continue
		}
		if b.watchStop == nil {
			b.watchStop = make(chan struct{})
		}
		b.watchWG.Add(1)
		go b.runWatch(c, wc)
	}
}

// runWatch is one site's subscription loop. It long-polls WatchEpoch,
// folds pushed events into the cache, and on any stream error drops the
// site's entries conservatively before re-subscribing with backoff. A site
// that answers "watch unsupported" ends the loop: the other side is an old
// binary and will stay one.
func (b *Broker) runWatch(c Conn, wc WatchConn) {
	defer b.watchWG.Done()
	site := c.Name()
	var (
		last    EpochEvent
		broken  bool // stream currently known-broken (gap already recorded)
		backoff time.Duration
	)
	for {
		select {
		case <-b.watchStop:
			return
		default:
		}
		ev, changed, err := wc.WatchEpoch(last.Epoch, b.cfg.WatchPoll)
		if err != nil {
			if errors.Is(err, ErrWatchUnsupported) {
				// The far side predates the watch protocol. If a stream had
				// been live (a failover landed on an old-binary standby),
				// close it out with one conservative drop.
				if !broken && last.Epoch != 0 {
					b.cache.gap(site)
				}
				return
			}
			if !broken {
				broken = true
				b.cache.gap(site)
			}
			// Re-subscribe with bounded backoff, abandoning promptly on Close.
			if backoff < 50*time.Millisecond {
				backoff = 50 * time.Millisecond
			} else if backoff *= 2; backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
			t := time.NewTimer(b.jitter(backoff))
			select {
			case <-b.watchStop:
				t.Stop()
				return
			case <-t.C:
			}
			continue
		}
		broken = false
		backoff = 0
		if !changed {
			continue // idle poll expiry: the stream is alive, nothing moved
		}
		last = ev
		b.cache.observeEvent(site, ev.Epoch, ev.Salt)
	}
}

// maxPrefetchWindows bounds one batched ladder probe; the server enforces
// its own (larger) bound, see wire.
const maxPrefetchWindows = 64

// prefetchLadder fetches the whole Δt retry ladder's candidate windows in
// one batched RPC per site, storing every answer in the availability cache
// so the ladder's per-window probe rounds hit locally: the per-request
// round-trip count drops from O(ladder × sites) toward O(sites). Sites
// that do not implement the batch RPC (or answered it "unsupported" once)
// are left to the per-window path, which also owns all breaker accounting
// — a failed prefetch is never worse than no prefetch.
func (b *Broker) prefetchLadder(now, start period.Time, dur period.Duration) {
	pc := b.cache
	attempts := b.cfg.MaxAttempts
	if attempts > maxPrefetchWindows {
		attempts = maxPrefetchWindows
	}
	b.fanOut(func(i int) {
		c := b.sites[i]
		if b.batchBad[i].Load() {
			return
		}
		bc, ok := c.(BatchProbeConn)
		if !ok {
			return
		}
		if b.breakerOpenFor(i, b.clock()) != nil {
			return
		}
		site := c.Name()
		wins := make([]Window, 0, attempts)
		for a, s := 0, start; a < attempts; a, s = a+1, s.Add(b.cfg.DeltaT) {
			if pc.peek(site, kindProbe, now, s, s.Add(dur)) == nil {
				wins = append(wins, Window{Start: s, End: s.Add(dur)})
			}
		}
		if len(wins) < 2 {
			return // nothing to amortize: a lone window costs one RPC either way
		}
		gen := pc.genOf(site)
		results, err := bc.ProbeBatch(now, wins)
		if err != nil {
			if errors.Is(err, ErrProbeBatchUnsupported) {
				b.batchBad[i].Store(true)
			}
			return
		}
		b.m.inc(cCacheBatchProbes)
		if len(results) != len(wins) {
			return
		}
		for j, r := range results {
			b.cacheReply(site, kindProbe, wins[j].Start, wins[j].End, reply{probe: r}, gen)
		}
	})
}
