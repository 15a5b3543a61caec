package grid

import (
	"reflect"
	"time"

	"coalloc/internal/obs"
)

// BrokerStats counts protocol outcomes. Every field is read from the
// broker.* counter brokerCounters names for it, so Stats and the registry
// can never disagree.
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

// CacheStats is a snapshot of the broker's availability-cache counters.
// All zeros when the cache is disabled.
type CacheStats struct {
	Hits          uint64 // probes answered without a round trip
	Misses        uint64 // probes that went to the site
	Stale         uint64 // entries retired because the site reported a new epoch
	Coalesced     uint64 // probes that piggybacked on another caller's flight
	Invalidations uint64 // site-wide drops triggered by this broker's own 2PC traffic
	Evictions     uint64 // entries displaced by the per-site capacity bound
	Reordered     uint64 // delayed replies from superseded epochs, dropped without adoption
	WatchEvents   uint64 // epoch bumps delivered over the watch stream
	WatchGaps     uint64 // stream gaps (reconnects, errors) that forced a conservative drop
	BatchProbes   uint64 // batched ladder-probe RPCs issued (each replaces up to a whole ladder of probes)
	Entries       int    // entries currently cached across all sites
}

// counter indexes one of the broker's counters.
type counter int

const (
	cRequests counter = iota
	cGranted
	cRejected
	cAllUnreachable
	cPartialCommits
	cAborts
	cConflicts
	cConflictRetries
	cConflictWindows
	cConflictWindowSaved
	cProbeUnreachable
	cBreakerOpen
	cBreakerClose
	cBreakerSkips
	cFailovers
	cFailoverFailed
	cRPCTimeouts
	cCacheHits
	cCacheMisses
	cCacheStale
	cCacheCoalesced
	cCacheInvalidations
	cCacheEvictions
	cCacheReordered
	cCacheWatchEvents
	cCacheWatchGaps
	cCacheBatchProbes
	numCounters
)

// brokerCounters declares every broker counter once: the BrokerStats or
// CacheStats field that reports it (none for the seven a snapshot leaves
// out), its registry name and its help line.
var brokerCounters = [numCounters]struct{ field, name, help string }{
	cRequests:            {"Requests", "broker.requests", "cross-site co-allocation requests"},
	cGranted:             {"Granted", "broker.granted", "requests committed atomically across sites"},
	cRejected:            {"Rejected", "broker.rejected", "requests that exhausted every window"},
	cAllUnreachable:      {"Unreachable", "broker.all_unreachable", "requests rejected because no site answered"},
	cPartialCommits:      {"PartialCommits", "broker.partial_commits", "phase-2 rounds that missed a site"},
	cAborts:              {"Aborts", "broker.aborts", "holds aborted during failed windows"},
	cConflicts:           {"Conflicts", "broker.conflicts", "prepares refused because capacity moved since the probe"},
	cConflictRetries:     {"ConflictRetries", "broker.conflict_retries", "same-window retry passes run after a prepare conflict"},
	cConflictWindows:     {"ConflictWindows", "broker.conflict_windows", "windows that saw at least one prepare conflict"},
	cConflictWindowSaved: {"ConflictWindowSaved", "broker.conflict_window_saved", "conflicted windows that still committed without burning a retry rung"},
	cProbeUnreachable:    {"", "broker.probe.unreachable", "probe rounds that failed to reach a site"},
	cBreakerOpen:         {"", "broker.site.breaker_open", "circuit breakers opened after consecutive site failures"},
	cBreakerClose:        {"", "broker.site.breaker_close", "circuit breakers closed by a successful call"},
	cBreakerSkips:        {"", "broker.site.breaker_skips", "site calls skipped while a circuit was open"},
	cFailovers:           {"", "broker.site.failovers", "standbys promoted after a site's breaker stuck open"},
	cFailoverFailed:      {"", "broker.site.failover_failed", "breaker-driven failovers that found no standby to promote"},
	cRPCTimeouts:         {"", "broker.rpc.timeout", "site RPCs that exceeded their deadline"},
	cCacheHits:           {"Hits", "broker.cache.hits", "probes answered from the availability cache"},
	cCacheMisses:         {"Misses", "broker.cache.misses", "probes that required a site round trip"},
	cCacheStale:          {"Stale", "broker.cache.stale", "cache entries retired by a site epoch change"},
	cCacheCoalesced:      {"Coalesced", "broker.cache.coalesced", "probes that joined another caller's in-flight RPC"},
	cCacheInvalidations:  {"Invalidations", "broker.cache.invalidations", "site-wide cache drops around the broker's own 2PC traffic"},
	cCacheEvictions:      {"Evictions", "broker.cache.evictions", "cache entries displaced by the per-site bound"},
	cCacheReordered:      {"Reordered", "broker.cache.reordered", "delayed replies from superseded epochs, dropped without adoption"},
	cCacheWatchEvents:    {"WatchEvents", "broker.cache.watch_events", "epoch bumps delivered over the watch stream"},
	cCacheWatchGaps:      {"WatchGaps", "broker.cache.watch_gaps", "watch stream gaps that forced a conservative site-wide drop"},
	cCacheBatchProbes:    {"BatchProbes", "broker.cache.batch_probes", "batched ladder-probe RPCs issued"},
}

// brokerMetrics is the broker's one set of counters. With a Registry they
// are the registry's own entries (brokers sharing a Registry share them);
// without one they are private — a Counter is a bare atomic and counts the
// same unregistered. The two latency histograms exist only with a Registry.
type brokerMetrics struct {
	c              [numCounters]*obs.Counter
	windowLatency  *obs.Histogram // one probe/prepare/commit round
	requestLatency *obs.Histogram // whole CoAllocate including retries
}

func newBrokerMetrics(reg *obs.Registry) *brokerMetrics {
	m := &brokerMetrics{}
	for i, row := range brokerCounters {
		if reg == nil {
			m.c[i] = new(obs.Counter)
			continue
		}
		m.c[i] = reg.Counter(row.name)
		reg.Help(row.name, row.help)
	}
	if reg != nil {
		m.windowLatency = reg.Histogram("broker.window.latency")
		m.requestLatency = reg.Histogram("broker.request.latency")
		reg.Help("broker.window.latency", "one probe/prepare/commit round")
		reg.Help("broker.request.latency", "whole CoAllocate including retries")
	}
	return m
}

func (m *brokerMetrics) inc(c counter)           { m.c[c].Inc() }
func (m *brokerMetrics) add(c counter, n uint64) { m.c[c].Add(n) }

// snapshot fills the fields of dst (a *BrokerStats or *CacheStats) that
// brokerCounters maps a counter to.
func (m *brokerMetrics) snapshot(dst any) {
	v := reflect.ValueOf(dst).Elem()
	for i, row := range brokerCounters {
		if f := v.FieldByName(row.field); f.IsValid() {
			f.Set(reflect.ValueOf(m.c[i].Value()).Convert(f.Type()))
		}
	}
}

// latency starts a latency observation into h and returns the func that
// ends it. A broker without a Registry has no histograms and reads no clock.
func latency(h *obs.Histogram, traceID uint64) func() {
	if h == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { h.SinceTrace(t0, traceID) }
}
