package grid

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"coalloc/internal/obs"
	"coalloc/internal/period"
)

// quickRoundTrip is the round trip below which overlapping a round's legs
// costs more than it saves: handing a leg to another goroutine is ≈3 µs of
// futex wake alone, an in-process probe takes 0.3–1 µs and a loopback RPC at
// least 50 µs, so nothing sits near the line.
const quickRoundTrip = 10 * time.Microsecond

// fanOut runs f(i) for every site index on at most ProbeWorkers goroutines,
// the caller's among them, so one round's footprint stays fixed no matter
// how many sites the federation has. Each goroutine claims the next unclaimed
// index until none is left: with workers >= sites (every shipped config)
// that is one index each, handed over without a channel, and a round spawns
// one goroutine fewer than it has sites. A round in which no leg can block —
// every site's last round trip was quick, see fetch — has nothing to overlap
// and runs as a plain loop on the caller. f is responsible for recording
// its own result.
func (b *Broker) fanOut(f func(i int)) {
	n := len(b.sites)
	quick := len(b.quick) > 0
	for i := range b.quick {
		quick = quick && b.quick[i].Load()
	}
	if quick {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
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
		// per-probe tracing cost allocation-free on this hot path. The
		// breaker, fetch's timing and the span share the leg's two readings.
		pc := sp.ChildContext()
		t0 := b.clock()
		if err := b.breakerOpenFor(i, t0); err != nil {
			sp.RecordAs(pc, "broker.probe", t0, t0, err, b.probeAttrs[i]["breaker_skip"]...)
			avail[i] = Avail{Conn: c, Err: err}
			return
		}
		r, src, t1, err := b.fetch(i, kindProbe, pc, t0, now, start, end)
		if pc.Valid() {
			sp.RecordAs(pc, "broker.probe", t0, t1, err, b.probeAttrs[i][src]...)
		}
		if err != nil {
			b.m.inc(cProbeUnreachable)
		}
		avail[i] = availOf(c, r.probe, err)
	})
	return avail
}

// availOf is a site's probe answer as the planner sees it.
func availOf(c Conn, r ProbeResult, err error) Avail {
	if err != nil {
		return Avail{Conn: c, Err: err}
	}
	return Avail{Conn: c, Available: r.Available, Capacity: r.Capacity, Epoch: r.Epoch}
}

// probe answer sources, annotated on every broker.probe span so a trace
// shows why a probe was fast (hit, coalesced) or slow (rpc, miss).
const (
	probeSrcRPC       = "rpc"       // no cache configured: a plain round trip
	probeSrcHit       = "hit"       // answered from the availability cache
	probeSrcMiss      = "miss"      // cache miss: this caller led the RPC
	probeSrcCoalesced = "coalesced" // joined another caller's in-flight RPC
)

// fetch answers one read of site i — a probe, or for kindRange the range
// search of a RangeConn — through the availability cache: a valid entry
// short-circuits the RPC, a miss joins the single-flight group for the exact
// request, and only the flight leader actually talks to the site, carrying
// tc so the site's spans parent under the caller's. Without a cache it is
// the plain round trip. Whoever made the round trip feeds the site's breaker
// with its outcome, and nobody else: a timeout counted once per waiter would
// trip the breaker in a single round. The same caller times the round trip
// for fanOut, from the caller's reading t0 to fetch's own t1, which it
// returns: not per leg, so a cache hit does not turn the miss round after it
// into serial RPCs. With a cache the reply's feasible slice is shared with
// it: callers must not modify it.
func (b *Broker) fetch(i int, kind uint8, tc obs.SpanContext, t0 time.Time, now, start, end period.Time) (r reply, src string, t1 time.Time, err error) {
	c, pc := b.sites[i], b.cache
	site, src := c.Name(), probeSrcRPC
	var key flightKey
	var fl *flight
	if pc != nil {
		if e := pc.lookup(site, kind, now, start, end); e != nil {
			return e.reply, probeSrcHit, b.clock(), nil
		}
		key = flightKey{site: site, kind: kind, now: now, start: start, end: end}
		var leader bool
		if fl, leader = pc.join(key); !leader {
			<-fl.done
			return fl.reply, probeSrcCoalesced, b.clock(), fl.err
		}
		src = probeSrcMiss
	}
	if kind == kindRange {
		var rr RangeResult
		rr, err = c.(RangeConn).RangeView(now, start, end)
		r = reply{probe: ProbeResult{Epoch: rr.Epoch, SiteNow: rr.SiteNow}, feasible: rr.Feasible}
	} else {
		r.probe, err = connProbe(c, tc, now, start, end)
	}
	t1 = b.clock()
	b.quick[i].Store(t1.Sub(t0) < quickRoundTrip)
	if pc != nil {
		if err == nil {
			b.cacheReply(site, kind, start, end, r, fl.gen)
		}
		fl.reply, fl.err = r, err
		pc.finish(key, fl)
	}
	b.feed(i, err)
	return r, src, t1, err
}

// cacheReply folds a fresh reply into the cache: its epoch first — a moved
// one retires every entry of the site — then the answer itself, unless the
// site was invalidated since gen was taken.
func (b *Broker) cacheReply(site string, kind uint8, start, end period.Time, r reply, gen uint64) {
	b.cache.observe(site, r.probe.Epoch)
	b.cache.store(site, kind, start, end, r, gen)
}

// dropCached drops a site's cached availability. The broker does so around
// its own 2PC traffic whatever the outcome: prepare and abort always mutate
// the site on success, and even a failed or timed-out prepare may have landed
// there — the next probe refetches and re-learns the site's epoch either way.
func (b *Broker) dropCached(site string) {
	if b.cache != nil {
		b.cache.invalidate(site)
	}
}

// CacheStats returns the availability cache's counters; all zeros when the
// cache is disabled.
func (b *Broker) CacheStats() (s CacheStats) {
	b.m.snapshot(&s)
	if b.cache != nil {
		s.Entries = b.cache.entries()
	}
	return s
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
		if _, ok := c.(RangeConn); !ok {
			out[i] = SiteRange{Conn: c, Err: fmt.Errorf("grid: site %s does not support range search", c.Name())}
			return
		}
		t0 := b.clock()
		if err := b.breakerOpenFor(i, t0); err != nil {
			out[i] = SiteRange{Conn: c, Err: err}
			return
		}
		r, _, _, err := b.fetch(i, kindRange, obs.SpanContext{}, t0, now, start, end)
		if err != nil {
			out[i] = SiteRange{Conn: c, Err: err}
			b.m.inc(cProbeUnreachable)
			return
		}
		if b.cache != nil {
			// Copy out: the cached slice is shared by every future hit.
			r.feasible = append([]period.Period(nil), r.feasible...)
		}
		out[i] = SiteRange{Conn: c, Feasible: r.feasible}
	})
	return out
}
