package main

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"coalloc/internal/faultnet"
	"coalloc/internal/grid"
	"coalloc/internal/obs"
	"coalloc/internal/period"
	"coalloc/internal/replica"
	"coalloc/internal/wal"
	"coalloc/internal/wire"
)

// failoverPhase measures one run of the failover benchmark.
type failoverPhase struct {
	Phase   string  `json:"phase"` // "steady" or "failover"
	Seconds float64 `json:"seconds"`
	Grants  int64   `json:"grants"`
	// Errors counts requests that failed for any reason but capacity: the
	// burst while the breaker counts down. Refused counts capacity
	// refusals, which the workload is sized never to cause.
	Errors    int64   `json:"errors"`
	Refused   int64   `json:"refused"`
	GrantRate float64 `json:"grantsPerSec"`
	GrantP50  float64 `json:"grantP50Micros"`
	GrantP99  float64 `json:"grantP99Micros"`
	Failovers uint64  `json:"failovers"`
	// RecoveryMillis is the gap between cutting the primary's network and
	// the completion of the first grant issued after the cut; 0 in the
	// steady phase.
	RecoveryMillis float64 `json:"recoveryMillis"`
	// LostAcked counts granted holds missing from the serving site after
	// the run — the zero-loss invariant; anything but 0 is a bug.
	LostAcked int64 `json:"lostAcked"`
}

// failoverResult is the whole -mode failover run.
type failoverResult struct {
	Mode        string          `json:"mode"`
	Servers     int             `json:"serversPerSite"`
	Clients     int             `json:"clients"`
	AckMode     string          `json:"ackMode"`
	CallTimeout string          `json:"callTimeout"`
	Phases      []failoverPhase `json:"phases"`
}

// haFixture is one replicated site: a semi-sync primary behind a fault
// proxy and a streaming standby, dialed through a FailoverConn.
type haFixture struct {
	primarySite *grid.Site
	proxy       *faultnet.Proxy
	standby     *replica.Standby
	closers     []func()
	fc          *grid.FailoverConn
	reg         *obs.Registry
}

func (f *haFixture) close() {
	for i := len(f.closers) - 1; i >= 0; i-- {
		f.closers[i]()
	}
}

// startHAFixture boots the replicated pair over loopback TCP.
func startHAFixture(servers int, slotSize int64, slots int, seed int64, callTimeout time.Duration) (*haFixture, error) {
	f := &haFixture{reg: obs.NewRegistry()}
	fail := func(err error) (*haFixture, error) { f.close(); return nil, err }
	fresh := func() (*grid.Site, error) { return newSite("ha", servers, slotSize, slots) }

	sdir, err := os.MkdirTemp("", "loadgen-sb-*")
	if err != nil {
		return fail(err)
	}
	f.closers = append(f.closers, func() { os.RemoveAll(sdir) })
	// Interval sync on both logs: the benchmark measures the failover
	// machinery (breaker, promotion, re-target), not fsync; SyncAlways
	// convoys under group commit can push prepares past the RPC deadline
	// and trip the breaker in the steady baseline.
	walOpts := wal.Options{SegmentSize: 4 << 20, Sync: wal.SyncInterval, SyncEvery: 10 * time.Millisecond}
	f.standby, err = replica.NewStandby(replica.StandbyConfig{
		Dir:   sdir,
		WAL:   walOpts,
		Fresh: fresh,
	})
	if err != nil {
		return fail(err)
	}
	f.closers = append(f.closers, func() { f.standby.Close() })
	saddr, stop, err := serveSite(f.standby.Site(), f.standby)
	if err != nil {
		return fail(err)
	}
	f.closers = append(f.closers, stop)

	pdir, err := os.MkdirTemp("", "loadgen-pri-*")
	if err != nil {
		return fail(err)
	}
	f.closers = append(f.closers, func() { os.RemoveAll(pdir) })
	plog, rec, err := wal.Open(pdir, walOpts)
	if err != nil {
		return fail(err)
	}
	f.closers = append(f.closers, func() { plog.Close() })
	f.primarySite, _, err = grid.RecoverSite(rec.Checkpoint, rec.Records, fresh)
	if err != nil {
		return fail(err)
	}
	primary, err := replica.NewPrimary(replica.PrimaryConfig{
		Site: f.primarySite, Log: plog, Dir: pdir,
		Mode: replica.SemiSync, AckTimeout: -1,
		Registry: f.reg,
	})
	if err != nil {
		return fail(err)
	}
	f.closers = append(f.closers, primary.Close)
	replCfg := wire.ClientConfig{DialTimeout: 2 * time.Second, CallTimeout: 2 * time.Second}
	streamCli, err := wire.DialReplica("tcp", saddr, replCfg)
	if err != nil {
		return fail(err)
	}
	f.closers = append(f.closers, func() { streamCli.Close() })
	if err := primary.AddReplica("sb", streamCli); err != nil {
		return fail(err)
	}

	paddr, stop, err := serveSite(f.primarySite, nil)
	if err != nil {
		return fail(err)
	}
	f.closers = append(f.closers, stop)
	f.proxy, err = faultnet.Listen(paddr, seed)
	if err != nil {
		return fail(err)
	}
	f.closers = append(f.closers, func() { f.proxy.Close() })

	cfg := wire.ClientConfig{DialTimeout: callTimeout, CallTimeout: callTimeout}
	primaryCli, err := wire.DialConfig("tcp", f.proxy.Addr(), cfg)
	if err != nil {
		return fail(err)
	}
	f.closers = append(f.closers, func() { primaryCli.Close() })
	standbyCli, err := wire.DialConfig("tcp", saddr, cfg)
	if err != nil {
		return fail(err)
	}
	f.closers = append(f.closers, func() { standbyCli.Close() })
	promoter, err := wire.DialReplica("tcp", saddr, replCfg)
	if err != nil {
		return fail(err)
	}
	f.closers = append(f.closers, func() { promoter.Close() })
	f.fc = grid.NewFailoverConn(primaryCli,
		grid.FailoverTarget{Conn: standbyCli, Promoter: promoter})
	return f, nil
}

// runFailoverPhase drives closed-loop CoAllocate clients against the
// replicated site. With storm set, the primary's network hangs at half
// time and the phase measures the automatic promotion.
//
// Requests walk the windows of the first half of the horizon round-robin.
// Every 8th round through them keeps its grants committed for the zero-loss
// audit, up to half the capacity a window has left beside one in-flight
// grant per client; every other grant is released at once. So capacity
// never binds, and a refusal is a bug in the workload, not load.
func runFailoverPhase(servers int, slotSize int64, slots, clients int, dur, callTimeout time.Duration, seed int64, storm bool) (failoverPhase, error) {
	f, err := startHAFixture(servers, slotSize, slots, seed, callTimeout)
	if err != nil {
		return failoverPhase{}, err
	}
	defer f.close()
	br, err := grid.NewBroker(grid.BrokerConfig{
		Name:             "loadgen",
		Strategy:         grid.Greedy{},
		MaxAttempts:      1,
		RetryBackoff:     time.Millisecond,
		BreakerThreshold: 4,
		BreakerCooldown:  50 * time.Millisecond,
		Registry:         f.reg,
	}, f.fc)
	if err != nil {
		return failoverPhase{}, err
	}

	var (
		grants, errs, refused atomic.Int64
		next                  atomic.Int64
		stop                  atomic.Bool
		lat                   = &sampler{}
		mu                    sync.Mutex
		granted               []string
		cutAt                 atomic.Int64 // unix nanos when the primary was cut
		recoveredAt           atomic.Int64 // unix nanos of the first grant issued after the cut
	)
	windows := int64(slots / 2) // stay inside the scheduling horizon
	keepRounds := int64(max(servers-clients, 0) / 2)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := next.Add(1)
				round := i / windows
				start := period.Time((i % windows) * slotSize)
				end := start.Add(period.Duration(slotSize))
				t0 := time.Now()
				alloc, err := br.CoAllocate(0, grid.Request{ID: i, Start: start, Duration: period.Duration(slotSize), Servers: 1})
				if err != nil {
					// A prepare that timed out also ends as ErrNoCapacity; only
					// a window a probe then finds full is a refusal.
					if errors.Is(err, grid.ErrNoCapacity) && windowFull(f.fc, start, end) {
						refused.Add(1)
					} else {
						errs.Add(1)
					}
					continue
				}
				lat.observe(time.Since(t0))
				grants.Add(1)
				if cut := cutAt.Load(); cut != 0 && t0.UnixNano() > cut {
					recoveredAt.CompareAndSwap(0, time.Now().UnixNano())
				}
				if round%8 == 0 && round/8 < keepRounds {
					mu.Lock()
					granted = append(granted, alloc.HoldID)
					mu.Unlock()
				} else {
					f.fc.Abort(0, alloc.HoldID)
				}
			}
		}()
	}

	t0 := time.Now()
	if storm {
		time.Sleep(dur / 2)
		cutAt.Store(time.Now().UnixNano())
		f.proxy.SetMode(faultnet.Hang)
		time.Sleep(dur / 2)
	} else {
		time.Sleep(dur)
	}
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(t0).Seconds()

	// Zero-loss audit: every grant the broker acknowledged must be
	// committed on whichever node now serves the site.
	serving := f.primarySite
	if f.standby.Promoted() {
		serving = f.standby.Site()
	}
	var lost int64
	for _, id := range granted {
		if _, committed := serving.LookupHold(id); !committed {
			lost++
		}
	}

	p := failoverPhase{
		Phase:     "steady",
		Seconds:   elapsed,
		Grants:    grants.Load(),
		Errors:    errs.Load(),
		Refused:   refused.Load(),
		GrantRate: float64(grants.Load()) / elapsed,
		GrantP50:  lat.percentile(0.50),
		GrantP99:  lat.percentile(0.99),
		Failovers: f.reg.Counter("broker.site.failovers").Value(),
		LostAcked: lost,
	}
	if storm {
		p.Phase = "failover"
	}
	if cut, rec := cutAt.Load(), recoveredAt.Load(); cut != 0 && rec > cut {
		p.RecoveryMillis = float64(rec-cut) / float64(time.Millisecond)
	}
	if storm && p.Failovers == 0 {
		return p, fmt.Errorf("failover storm never promoted the standby")
	}
	return p, nil
}

// windowFull reports whether a probe finds no free server in the window.
func windowFull(c grid.Conn, start, end period.Time) bool {
	p, err := c.Probe(0, start, end)
	return err == nil && p.Available == 0
}

// runFailover implements -mode failover: the same closed-loop write
// workload against a replicated site, once undisturbed and once with the
// primary killed at half time, so the report shows what a failover costs
// (recovery gap, error burst) and what it preserves (every acked grant).
func runFailover(servers int, slotSize int64, slots, clients int, dur, callTimeout time.Duration, seed int64) (failoverResult, error) {
	res := failoverResult{
		Mode:        "failover",
		Servers:     servers,
		Clients:     clients,
		AckMode:     replica.SemiSync.String(),
		CallTimeout: callTimeout.String(),
	}
	for _, storm := range []bool{false, true} {
		p, err := runFailoverPhase(servers, slotSize, slots, clients, dur, callTimeout, seed, storm)
		if err != nil {
			return res, err
		}
		res.Phases = append(res.Phases, p)
		fmt.Fprintf(os.Stderr, "failover %-8s clients=%d grants=%.0f/s (p99 %.0fus) errors=%d refused=%d failovers=%d recovery=%.0fms lost=%d\n",
			p.Phase, clients, p.GrantRate, p.GrantP99, p.Errors, p.Refused, p.Failovers, p.RecoveryMillis, p.LostAcked)
	}
	return res, nil
}
