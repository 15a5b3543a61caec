package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"coalloc/internal/grid"
	"coalloc/internal/period"
	"coalloc/internal/wire"
)

const federateSites = 3

// federatePoint is the measurement for one broker count in one retry mode.
type federatePoint struct {
	Brokers       int     `json:"brokers"`
	ConflictRetry bool    `json:"conflictRetry"`
	Seconds       float64 `json:"seconds"`
	Requests      int64   `json:"requests"`
	Granted       int64   `json:"granted"`
	GoodputPerSec float64 `json:"goodputPerSec"`
	P50Micros     float64 `json:"p50Micros"`
	P99Micros     float64 `json:"p99Micros"`

	Conflicts           uint64 `json:"conflicts"`
	ConflictRetries     uint64 `json:"conflictRetries"`
	ConflictWindows     uint64 `json:"conflictWindows"`
	ConflictWindowSaved uint64 `json:"conflictWindowsSaved"`
	// ConflictRate is conflicts per request; AbandonmentRate is the share of
	// conflicted windows the broker still gave up on (1.0 whenever the retry
	// path is off — every conflicted window is abandoned to the Δt ladder).
	ConflictRate    float64 `json:"conflictRatePerRequest"`
	AbandonmentRate float64 `json:"conflictAbandonmentRate"`
}

// federateResult is a whole -mode federate run.
type federateResult struct {
	Mode    string          `json:"mode"`
	Servers int             `json:"servers"`
	Sites   int             `json:"sites"`
	Points  []federatePoint `json:"points"`
}

// startFederation serves the shared sites over loopback TCP and returns
// their addresses plus a teardown func.
func startFederation(tag string, servers int, slotSize int64, slots int) (addrs []string, stop func(), err error) {
	var stops []func()
	stop = func() {
		for _, s := range stops {
			s()
		}
	}
	for i := 0; i < federateSites; i++ {
		site, err := newSite(fmt.Sprintf("%s-s%d", tag, i), servers, slotSize, slots)
		if err != nil {
			stop()
			return nil, nil, err
		}
		addr, stopSrv, err := serveSite(site, nil)
		if err != nil {
			stop()
			return nil, nil, err
		}
		stops = append(stops, stopSrv)
		addrs = append(addrs, addr)
	}
	return addrs, stop, nil
}

// runFederatePoint drives one broker count in one retry mode against a
// fresh federation for dur.
func runFederatePoint(nBrokers int, retry bool, servers int, slotSize int64, slots int, dur, callTimeout time.Duration) (federatePoint, error) {
	addrs, stop, err := startFederation(fmt.Sprintf("fed-n%d-r%v", nBrokers, retry), servers, slotSize, slots)
	if err != nil {
		return federatePoint{}, err
	}
	defer stop()

	conflictRetries := 0 // default: the retry budget ships on
	if !retry {
		conflictRetries = -1
	}
	brokers := make([]*grid.Broker, nBrokers)
	cfg := wire.ClientConfig{DialTimeout: callTimeout, CallTimeout: callTimeout}
	for i := range brokers {
		conns := make([]grid.Conn, len(addrs))
		for j, addr := range addrs {
			c, err := wire.DialConfig("tcp", addr, cfg)
			if err != nil {
				return federatePoint{}, err
			}
			defer c.Close()
			conns[j] = c
		}
		var err error
		brokers[i], err = grid.NewBroker(grid.BrokerConfig{
			Name:             fmt.Sprintf("b%02d", i),
			MaxAttempts:      4,
			BreakerThreshold: -1,
			ProbeCache:       true,
			SiteAffinity:     true,
			ConflictRetries:  conflictRetries,
		}, conns...)
		if err != nil {
			return federatePoint{}, err
		}
	}

	// A small pool of overlapping windows keeps every broker fighting over
	// the same slots; each broker holds a few grants live so the windows run
	// near-full and probes go stale between probe and prepare.
	windows := make([]period.Time, 4)
	for k := range windows {
		windows[k] = period.Time(int64(k+1) * int64(period.Hour))
	}
	var requests, granted int64
	lat := &sampler{}
	var stopFlag atomic.Bool
	var wg sync.WaitGroup
	for bi, br := range brokers {
		wg.Add(1)
		go func(bi int, br *grid.Broker) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + bi)))
			var live []grid.MultiAllocation
			for i := 0; !stopFlag.Load(); i++ {
				if len(live) > 0 && (len(live) >= 3 || rng.Intn(3) == 0) {
					j := rng.Intn(len(live))
					a := live[j]
					live = append(live[:j], live[j+1:]...)
					_ = br.Release(0, a) // frees capacity and bumps site epochs
					continue
				}
				req := grid.Request{
					ID:       int64(bi)*1_000_000_000 + int64(i),
					Start:    windows[rng.Intn(len(windows))],
					Duration: period.Hour,
					Servers:  1 + rng.Intn(servers),
				}
				t0 := time.Now()
				alloc, err := br.CoAllocate(0, req)
				lat.observe(time.Since(t0))
				atomic.AddInt64(&requests, 1)
				if err == nil {
					atomic.AddInt64(&granted, 1)
					live = append(live, alloc)
				}
			}
			for _, a := range live {
				_ = br.Release(0, a)
			}
		}(bi, br)
	}
	t0 := time.Now()
	time.Sleep(dur)
	stopFlag.Store(true)
	wg.Wait()
	elapsed := time.Since(t0).Seconds()

	p := federatePoint{
		Brokers:       nBrokers,
		ConflictRetry: retry,
		Seconds:       elapsed,
		Requests:      requests,
		Granted:       granted,
		GoodputPerSec: float64(granted) / elapsed,
		P50Micros:     lat.percentile(0.50),
		P99Micros:     lat.percentile(0.99),
	}
	for _, br := range brokers {
		st := br.Stats()
		p.Conflicts += st.Conflicts
		p.ConflictRetries += st.ConflictRetries
		p.ConflictWindows += st.ConflictWindows
		p.ConflictWindowSaved += st.ConflictWindowSaved
	}
	if requests > 0 {
		p.ConflictRate = float64(p.Conflicts) / float64(requests)
	}
	if p.ConflictWindows > 0 {
		p.AbandonmentRate = float64(p.ConflictWindows-p.ConflictWindowSaved) / float64(p.ConflictWindows)
	}
	return p, nil
}

// runFederate implements -mode federate: every broker count with the
// conflict retry on, then off.
func runFederate(servers int, slotSize int64, slots int, brokers []int, dur, callTimeout time.Duration) (federateResult, error) {
	res := federateResult{Mode: "federate", Servers: servers, Sites: federateSites}
	for _, n := range brokers {
		for _, retry := range []bool{true, false} {
			p, err := runFederatePoint(n, retry, servers, slotSize, slots, dur, callTimeout)
			if err != nil {
				return res, err
			}
			res.Points = append(res.Points, p)
			fmt.Fprintf(os.Stderr, "federate brokers=%d retry=%-5v goodput=%.0f/s p99=%.0fus conflicts=%d windows=%d saved=%d abandonment=%.2f\n",
				n, retry, p.GoodputPerSec, p.P99Micros, p.Conflicts, p.ConflictWindows, p.ConflictWindowSaved, p.AbandonmentRate)
		}
	}
	return res, nil
}
