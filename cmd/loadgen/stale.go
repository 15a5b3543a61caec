package main

// -mode stale measures the stale-cache window the epoch watch closes. Two
// brokers share one site over loopback TCP: a mutator commits one more
// server onto a target window every -mutate-every, and an observer — whose
// cache already holds the window — probes it continuously, timing how long
// its answer stays stale after each mutation. The passive phase (cache on,
// watch off) reproduces the PR 5 regime: a hot cached answer is never
// refreshed by repeat probes, so every toggle censors at the cap. The push
// phase subscribes to the watch stream and converges one event-delivery
// latency after each commit. A second section measures the batched ladder
// probe: the same ladder-walking co-allocation workload with the batch RPC
// off and on, comparing probe round trips per request.

import (
	"fmt"
	"os"
	"sort"
	"time"

	"coalloc/internal/grid"
	"coalloc/internal/period"
	"coalloc/internal/wire"
)

// stalePhase is one half of the stale-window comparison.
type stalePhase struct {
	Phase     string `json:"phase"` // "passive" or "push"
	Toggles   int    `json:"toggles"`
	Converged int    `json:"converged"`
	// Censored counts toggles whose staleness outlived the cap (the next
	// mutation): the observer never saw the change in time. The freshness
	// percentiles below treat censored toggles as the cap, so they are a
	// lower bound on the passive phase's true staleness.
	Censored          int     `json:"censored"`
	FreshP50Millis    float64 `json:"freshP50Millis"`
	FreshP99Millis    float64 `json:"freshP99Millis"`
	StaleSampleRate   float64 `json:"staleSampleRate"` // fraction of probes answered stale
	CacheHits         uint64  `json:"cacheHits"`
	CacheMisses       uint64  `json:"cacheMisses"`
	WatchEvents       uint64  `json:"watchEvents"`
	CacheStaleDropped uint64  `json:"cacheStaleDropped"`
}

// staleBatch compares the Δt ladder's probe round trips without and with
// the batched probe RPC.
type staleBatch struct {
	Requests       int     `json:"requests"`
	LadderWindows  int     `json:"ladderWindows"`
	UnaryOffTrips  uint64  `json:"probeRoundTripsPerWindow"` // batch off: unary misses
	UnaryOnTrips   uint64  `json:"probeRoundTripsResidual"`  // batch on: unary misses left
	BatchRPCs      uint64  `json:"batchRPCs"`
	TripsPerReqOff float64 `json:"probeTripsPerRequestOff"`
	TripsPerReqOn  float64 `json:"probeTripsPerRequestOn"`
}

// staleResult is a whole -mode stale run.
type staleResult struct {
	Mode              string       `json:"mode"`
	Servers           int          `json:"servers"`
	MutateEveryMillis float64      `json:"mutateEveryMillis"`
	Phases            []stalePhase `json:"phases"`
	Batch             staleBatch   `json:"batch"`
}

// staleSite serves one fresh (unseeded) site over loopback TCP and returns
// dialed clients for the observer and the mutator plus a teardown func.
func staleSite(name string, servers int, slotSize int64, slots int, cfg wire.ClientConfig) (obs, mut *wire.Client, site *grid.Site, stop func(), err error) {
	site, err = newSite(name, servers, slotSize, slots)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	addr, stopSrv, err := serveSite(site, nil)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	obs, err = wire.DialConfig("tcp", addr, cfg)
	if err != nil {
		stopSrv()
		return nil, nil, nil, nil, err
	}
	mut, err = wire.DialConfig("tcp", addr, cfg)
	if err != nil {
		obs.Close()
		stopSrv()
		return nil, nil, nil, nil, err
	}
	return obs, mut, site, func() { mut.Close(); obs.Close(); stopSrv() }, nil
}

// runStalePhase drives one phase: the observer broker caches the target
// window, the mutator commits one server per toggle, and the loop times
// each toggle's staleness (capped at mutateEvery — pacing keeps the phases
// comparable).
func runStalePhase(name string, watch bool, servers int, slotSize int64, slots int, dur, mutateEvery, callTimeout time.Duration) (stalePhase, error) {
	cfg := wire.ClientConfig{DialTimeout: callTimeout, CallTimeout: callTimeout}
	obsConn, mutConn, _, stop, err := staleSite("stale-"+name, servers, slotSize, slots, cfg)
	if err != nil {
		return stalePhase{}, err
	}
	defer stop()

	observer, err := grid.NewBroker(grid.BrokerConfig{
		Name:             "observer",
		ProbeCache:       true,
		CacheWatch:       watch,
		WatchPoll:        500 * time.Millisecond,
		BreakerThreshold: -1,
	}, obsConn)
	if err != nil {
		return stalePhase{}, err
	}
	defer observer.Close()
	mutator, err := grid.NewBroker(grid.BrokerConfig{
		Name:             "mutator",
		MaxAttempts:      1,
		BreakerThreshold: -1,
	}, mutConn)
	if err != nil {
		return stalePhase{}, err
	}

	ws := period.Time(int64(period.Hour))
	we := ws.Add(period.Hour)
	expected := servers
	if a := observer.ProbeAll(0, ws, we)[0]; a.Err != nil || a.Available != expected {
		return stalePhase{}, fmt.Errorf("stale %s: baseline probe = %+v", name, a)
	}

	p := stalePhase{Phase: name}
	var fresh []time.Duration
	var samples, stale int64
	deadline := time.Now().Add(dur)
	for i := 0; time.Now().Before(deadline) && expected > 1; i++ {
		if _, err := mutator.CoAllocate(0, grid.Request{
			ID: int64(i), Start: ws, Duration: period.Hour, Servers: 1,
		}); err != nil {
			return stalePhase{}, fmt.Errorf("stale %s: toggle %d: %w", name, i, err)
		}
		expected--
		p.Toggles++

		t0 := time.Now()
		converged := false
		for time.Since(t0) < mutateEvery {
			a := observer.ProbeAll(0, ws, we)[0]
			samples++
			if a.Err == nil && a.Available == expected {
				converged = true
				break
			}
			stale++
			time.Sleep(200 * time.Microsecond)
		}
		took := time.Since(t0)
		if converged {
			p.Converged++
			fresh = append(fresh, took)
		} else {
			p.Censored++
			fresh = append(fresh, mutateEvery)
		}
		// Pace: every toggle occupies mutateEvery, so both phases perform the
		// same mutation schedule regardless of how fast they converge.
		if rest := mutateEvery - took; rest > 0 {
			time.Sleep(rest)
		}
	}

	sort.Slice(fresh, func(i, j int) bool { return fresh[i] < fresh[j] })
	pct := func(q float64) float64 {
		if len(fresh) == 0 {
			return 0
		}
		return float64(fresh[int(q*float64(len(fresh)-1))]) / float64(time.Millisecond)
	}
	p.FreshP50Millis = pct(0.50)
	p.FreshP99Millis = pct(0.99)
	if samples > 0 {
		p.StaleSampleRate = float64(stale) / float64(samples)
	}
	cs := observer.CacheStats()
	p.CacheHits, p.CacheMisses = cs.Hits, cs.Misses
	p.WatchEvents = cs.WatchEvents
	p.CacheStaleDropped = cs.Stale
	return p, nil
}

// runStaleBatch compares the ladder's probe round trips with the batch RPC
// off and on: every request walks a 4-rung Δt ladder whose first three
// windows are full, so the per-window regime costs one unary probe per rung
// and the batched regime one RPC for the lot.
func runStaleBatch(servers int, slotSize int64, slots int, callTimeout time.Duration) (staleBatch, error) {
	const (
		ladder   = 4
		requests = 16
	)
	out := staleBatch{Requests: requests, LadderWindows: ladder}
	cfg := wire.ClientConfig{DialTimeout: callTimeout, CallTimeout: callTimeout}
	for _, batched := range []bool{false, true} {
		obsConn, _, site, stop, err := staleSite(fmt.Sprintf("batch-%v", batched), servers, slotSize, slots, cfg)
		if err != nil {
			return staleBatch{}, err
		}
		// Fill the first three ladder rungs so every request walks to the
		// fourth.
		for r := 0; r < ladder-1; r++ {
			s := period.Time(int64(r) * int64(period.Hour))
			id := fmt.Sprintf("fill-%d", r)
			if _, err := site.Prepare(0, id, s, s.Add(period.Hour), servers, 24*period.Hour); err != nil {
				stop()
				return staleBatch{}, err
			}
			if err := site.Commit(0, id); err != nil {
				stop()
				return staleBatch{}, err
			}
		}
		br, err := grid.NewBroker(grid.BrokerConfig{
			Name:             "ladder",
			ProbeCache:       true,
			BatchProbe:       batched,
			DeltaT:           period.Hour,
			MaxAttempts:      ladder,
			BreakerThreshold: -1,
		}, obsConn)
		if err != nil {
			stop()
			return staleBatch{}, err
		}
		for i := 0; i < requests; i++ {
			if _, err := br.CoAllocate(0, grid.Request{
				ID: int64(i), Start: 0, Duration: period.Hour, Servers: 1,
			}); err != nil {
				stop()
				return staleBatch{}, fmt.Errorf("ladder request %d (batch=%v): %w", i, batched, err)
			}
		}
		cs := br.CacheStats()
		if batched {
			out.UnaryOnTrips = cs.Misses
			out.BatchRPCs = cs.BatchProbes
			out.TripsPerReqOn = float64(cs.Misses+cs.BatchProbes) / requests
		} else {
			out.UnaryOffTrips = cs.Misses
			out.TripsPerReqOff = float64(cs.Misses) / requests
		}
		stop()
	}
	return out, nil
}

// runStale implements -mode stale: the passive and push phases, then the
// batched-ladder comparison.
func runStale(servers int, slotSize int64, slots int, dur, mutateEvery, callTimeout time.Duration) (staleResult, error) {
	res := staleResult{
		Mode:              "stale",
		Servers:           servers,
		MutateEveryMillis: float64(mutateEvery) / float64(time.Millisecond),
	}
	for _, phase := range []struct {
		name  string
		watch bool
	}{{"passive", false}, {"push", true}} {
		p, err := runStalePhase(phase.name, phase.watch, servers, slotSize, slots, dur/2, mutateEvery, callTimeout)
		if err != nil {
			return res, err
		}
		res.Phases = append(res.Phases, p)
		fmt.Fprintf(os.Stderr, "stale %-8s toggles=%d converged=%d censored=%d fresh p50=%.2fms p99=%.2fms stale-rate=%.1f%%\n",
			p.Phase, p.Toggles, p.Converged, p.Censored, p.FreshP50Millis, p.FreshP99Millis, 100*p.StaleSampleRate)
	}
	b, err := runStaleBatch(servers, slotSize, slots, callTimeout)
	if err != nil {
		return res, err
	}
	res.Batch = b
	fmt.Fprintf(os.Stderr, "ladder: %.1f probe trips/request unbatched vs %.1f batched (%d batch RPCs for %d requests)\n",
		b.TripsPerReqOff, b.TripsPerReqOn, b.BatchRPCs, b.Requests)
	return res, nil
}
