// Chaos suite: drives a real broker→wire→TCP→site federation through
// injected network faults (internal/faultnet) and asserts the bounded-time
// contract: with sites hung, partitioned, or flaky, probes and
// co-allocations return within the configured deadlines, no holds leak, and
// a healed federation recovers to exactly the state it had before the
// fault. External test package: it wires grid together with internal/wire,
// which imports grid.
package grid_test

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"coalloc/internal/core"
	"coalloc/internal/faultnet"
	"coalloc/internal/grid"
	"coalloc/internal/obs"
	"coalloc/internal/period"
	"coalloc/internal/wire"
)

// chaosSite is one federation member: the in-process site (for state
// assertions), its RPC server, the fault proxy in front of it, and the
// broker-side client dialed through the proxy.
type chaosSite struct {
	site   *grid.Site
	server *wire.Server
	proxy  *faultnet.Proxy
	client *wire.Client
}

// startChaosSite boots a site behind a fault proxy and dials it with tight
// deadlines.
func startChaosSite(t *testing.T, name string, servers int, seed int64, cfg wire.ClientConfig) *chaosSite {
	t.Helper()
	site, err := grid.NewSite(name, core.Config{
		Servers:  servers,
		SlotSize: 15 * period.Minute,
		Slots:    96,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := wire.NewServer(site)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	proxy, err := faultnet.Listen(l.Addr().String(), seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	client, err := wire.DialConfig("tcp", proxy.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return &chaosSite{site: site, server: srv, proxy: proxy, client: client}
}

// chaosClientConfig is tight enough to keep the suite fast but generous
// enough for loaded CI machines.
func chaosClientConfig() wire.ClientConfig {
	return wire.ClientConfig{
		DialTimeout: 500 * time.Millisecond,
		CallTimeout: 300 * time.Millisecond,
	}
}

// latencyBound is the ceiling asserted on one bounded operation: call
// timeout plus dial timeout plus generous scheduling slack. Pre-patch (no
// deadlines) a hung site stalls these operations forever, so any finite
// bound is the regression being pinned.
const latencyBound = 5 * time.Second

func drainHolds(t *testing.T, members []*chaosSite, at period.Time) {
	t.Helper()
	for _, m := range members {
		m.site.Probe(at, at, at.Add(period.Hour))
		if got := m.site.PendingHolds(); got != 0 {
			t.Fatalf("site %s: %d holds leaked past lease expiry", m.site.Name(), got)
		}
	}
}

// TestChaosHungSiteBoundedLatency is the acceptance scenario: one site
// hangs mid-RPC and both ProbeAll and CoAllocate must return within the
// configured deadlines, degrade gracefully onto the healthy sites, and leak
// nothing.
func TestChaosHungSiteBoundedLatency(t *testing.T) {
	cfg := chaosClientConfig()
	members := []*chaosSite{
		startChaosSite(t, "a", 8, 1, cfg),
		startChaosSite(t, "b", 8, 2, cfg),
		startChaosSite(t, "c", 8, 3, cfg),
	}
	lease := 5 * period.Minute
	br, err := grid.NewBroker(grid.BrokerConfig{
		Strategy:        grid.LoadBalance{},
		Lease:           lease,
		MaxAttempts:     2,
		CommitRetries:   2,
		RetryBackoff:    time.Millisecond,
		BreakerCooldown: 200 * time.Millisecond,
	}, members[0].client, members[1].client, members[2].client)
	if err != nil {
		t.Fatal(err)
	}

	// Warm the federation: a healthy co-allocation spanning all sites.
	if _, err := br.CoAllocate(0, grid.Request{ID: 1, Start: 0, Duration: period.Hour, Servers: 18}); err != nil {
		t.Fatalf("healthy co-allocation: %v", err)
	}

	// Site c hangs mid-call: its proxy accepts bytes but forwards nothing.
	members[2].proxy.SetMode(faultnet.Hang)

	t0 := time.Now()
	avail := br.ProbeAll(0, 0, period.Time(period.Hour))
	probeElapsed := time.Since(t0)
	if probeElapsed > latencyBound {
		t.Fatalf("ProbeAll with a hung site took %v, want < %v", probeElapsed, latencyBound)
	}
	for _, a := range avail {
		if a.Conn.Name() == "c" && a.Err == nil {
			t.Fatal("hung site c reported availability")
		}
	}

	t0 = time.Now()
	alloc, err := br.CoAllocate(0, grid.Request{ID: 2, Start: 0, Duration: period.Hour, Servers: 4})
	coElapsed := time.Since(t0)
	if err != nil {
		t.Fatalf("degraded co-allocation: %v", err)
	}
	if coElapsed > latencyBound {
		t.Fatalf("CoAllocate with a hung site took %v, want < %v", coElapsed, latencyBound)
	}
	for _, sh := range alloc.Shares {
		if sh.Site == "c" {
			t.Fatalf("degraded allocation placed servers on the hung site: %+v", alloc.Shares)
		}
	}

	// Heal, expire leases, and assert nothing leaked anywhere.
	members[2].proxy.Heal()
	drainHolds(t, members, period.Time(lease)+period.Time(period.Minute))
}

// TestChaosPartitionHealByteIdentical partitions one site mid-federation,
// hammers the broker while it is gone, heals the link, and asserts the
// partitioned site's state is byte-identical to its pre-partition snapshot:
// the failed rounds must not have leaked one bit of state onto it. It then
// proves recovery by committing a co-allocation across the healed
// federation.
func TestChaosPartitionHealByteIdentical(t *testing.T) {
	cfg := chaosClientConfig()
	members := []*chaosSite{
		startChaosSite(t, "a", 4, 10, cfg),
		startChaosSite(t, "b", 4, 11, cfg),
	}
	br, err := grid.NewBroker(grid.BrokerConfig{
		Strategy:        grid.LoadBalance{},
		Lease:           5 * period.Minute,
		MaxAttempts:     1,
		RetryBackoff:    time.Millisecond,
		BreakerCooldown: 100 * time.Millisecond,
	}, members[0].client, members[1].client)
	if err != nil {
		t.Fatal(err)
	}

	// Committed pre-partition traffic on both sites.
	if _, err := br.CoAllocate(0, grid.Request{ID: 1, Start: 0, Duration: period.Hour, Servers: 6}); err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if err := members[1].site.Snapshot(&before); err != nil {
		t.Fatal(err)
	}

	members[1].proxy.SetMode(faultnet.Partition)

	// Requests needing both sites now fail: site a's prepares are granted
	// and compensated, site b sees nothing. Requests small enough for site
	// a alone still succeed — graceful degradation.
	for i := 0; i < 4; i++ {
		t0 := time.Now()
		_, err := br.CoAllocate(0, grid.Request{ID: int64(10 + i), Start: 0, Duration: period.Hour, Servers: 6})
		if err == nil {
			t.Fatal("co-allocation spanning a partitioned site succeeded")
		}
		if d := time.Since(t0); d > latencyBound {
			t.Fatalf("partitioned co-allocation %d took %v, want < %v", i, d, latencyBound)
		}
	}

	// The partitioned site's state is exactly what it was: the broker's
	// failed rounds never touched it.
	var during bytes.Buffer
	if err := members[1].site.Snapshot(&during); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), during.Bytes()) {
		t.Fatalf("partitioned site state drifted during the outage: %d vs %d bytes",
			before.Len(), during.Len())
	}

	// Heal. The breaker's half-open trial re-admits the site; within the
	// deadline a full-federation co-allocation must succeed again.
	members[1].proxy.Heal()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := br.CoAllocate(0, grid.Request{ID: 99, Start: 0, Duration: period.Hour, Servers: 2}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("federation never recovered after the partition healed")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Site a's compensated prepares from the outage drain with the leases.
	drainHolds(t, members, period.Time(5*period.Minute)+period.Time(period.Minute))
}

// TestChaosFlakyLinksNoHoldLeak runs a request storm over links that
// refuse a seeded fraction of connections and asserts the one invariant
// that must survive arbitrary connection loss: after leases expire, zero
// holds remain anywhere.
func TestChaosFlakyLinksNoHoldLeak(t *testing.T) {
	cfg := chaosClientConfig()
	members := []*chaosSite{
		startChaosSite(t, "a", 16, 21, cfg),
		startChaosSite(t, "b", 16, 22, cfg),
		startChaosSite(t, "c", 16, 23, cfg),
	}
	lease := 2 * period.Minute
	br, err := grid.NewBroker(grid.BrokerConfig{
		Strategy:        grid.LoadBalance{},
		Lease:           lease,
		MaxAttempts:     2,
		CommitRetries:   2,
		RetryBackoff:    time.Millisecond,
		BreakerCooldown: 50 * time.Millisecond,
	}, members[0].client, members[1].client, members[2].client)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range members {
		m.proxy.SetDropRate(0.3)
	}

	granted, failed := 0, 0
	for i := 0; i < 30; i++ {
		if i%5 == 4 {
			// Sever one site's established connections; the redial that
			// follows runs the 30% connection-loss gauntlet above.
			m := members[(i/5)%len(members)]
			m.proxy.SetMode(faultnet.Partition)
			m.proxy.SetMode(faultnet.Pass)
		}
		start := period.Time(int64(i%6) * int64(period.Hour))
		t0 := time.Now()
		_, err := br.CoAllocate(0, grid.Request{
			ID:       int64(i),
			Start:    start,
			Duration: 30 * period.Minute,
			Servers:  6,
		})
		if d := time.Since(t0); d > 2*latencyBound {
			t.Fatalf("request %d took %v under flaky links, want < %v", i, d, 2*latencyBound)
		}
		if err != nil {
			failed++
			var ce *grid.CommitError
			if errors.As(err, &ce) {
				// Partial commits are allowed under connection loss; the
				// compensation and lease machinery below must clean up.
				continue
			}
		} else {
			granted++
		}
	}
	if granted == 0 {
		t.Fatal("no request survived 30% connection loss; degraded mode is not degrading, it is dead")
	}
	var refused int64
	for _, m := range members {
		_, r := m.proxy.Stats()
		refused += r
	}
	if refused == 0 {
		t.Fatal("no connection was ever refused; the storm exercised nothing")
	}
	t.Logf("flaky storm: %d granted, %d failed, %d connections refused", granted, failed, refused)

	for _, m := range members {
		m.proxy.Heal()
	}
	drainHolds(t, members, period.Time(lease)+period.Time(period.Minute))
}

// TestChaosBreakerShieldsProbeLatency pins the fail-fast property: once the
// breaker opens on a hung site, subsequent probe rounds must not pay the
// call timeout again — they skip the site and return at healthy-site speed.
func TestChaosBreakerShieldsProbeLatency(t *testing.T) {
	cfg := chaosClientConfig()
	members := []*chaosSite{
		startChaosSite(t, "a", 8, 31, cfg),
		startChaosSite(t, "b", 8, 32, cfg),
	}
	threshold := 3
	br, err := grid.NewBroker(grid.BrokerConfig{
		BreakerThreshold: threshold,
		BreakerCooldown:  time.Minute, // long: stays open for the whole test
	}, members[0].client, members[1].client)
	if err != nil {
		t.Fatal(err)
	}
	members[1].proxy.SetMode(faultnet.Hang)

	// Burn through the threshold; each round pays the call timeout once.
	window := period.Time(period.Hour)
	for i := 0; i < threshold; i++ {
		br.ProbeAll(0, 0, window)
	}
	for _, h := range br.Health() {
		if h.Site == "b" && h.State != "open" {
			t.Fatalf("site b breaker = %q after %d timeouts, want open", h.State, threshold)
		}
	}

	// With the circuit open the hung site costs nothing: the round returns
	// far below the 300ms call timeout.
	t0 := time.Now()
	avail := br.ProbeAll(0, 0, window)
	elapsed := time.Since(t0)
	if elapsed > cfg.CallTimeout {
		t.Fatalf("probe round with open breaker took %v, want well under the %v call timeout", elapsed, cfg.CallTimeout)
	}
	for _, a := range avail {
		if a.Conn.Name() == "b" && !errors.Is(a.Err, grid.ErrCircuitOpen) {
			t.Fatalf("site b error = %v, want ErrCircuitOpen", a.Err)
		}
	}
}

// TestChaosRecoveredSiteServesTraffic closes the loop on half-open
// probing over a real network: hang, open the breaker, heal, and verify
// the site rejoins the federation and serves a committed share.
func TestChaosRecoveredSiteServesTraffic(t *testing.T) {
	cfg := chaosClientConfig()
	members := []*chaosSite{
		startChaosSite(t, "a", 4, 41, cfg),
		startChaosSite(t, "b", 4, 42, cfg),
	}
	br, err := grid.NewBroker(grid.BrokerConfig{
		Strategy:         grid.LoadBalance{},
		BreakerThreshold: 2,
		BreakerCooldown:  100 * time.Millisecond,
		MaxAttempts:      1,
		RetryBackoff:     time.Millisecond,
	}, members[0].client, members[1].client)
	if err != nil {
		t.Fatal(err)
	}
	members[1].proxy.SetMode(faultnet.Hang)
	window := period.Time(period.Hour)
	for i := 0; i < 2; i++ {
		br.ProbeAll(0, 0, window)
	}
	members[1].proxy.Heal()

	// A 6-server request cannot fit on site a alone (4 servers): it
	// succeeds only once site b is readmitted through the half-open trial.
	deadline := time.Now().Add(10 * time.Second)
	for {
		alloc, err := br.CoAllocate(0, grid.Request{ID: 7, Start: 0, Duration: period.Hour, Servers: 6})
		if err == nil {
			sites := map[string]bool{}
			for _, sh := range alloc.Shares {
				sites[sh.Site] = true
			}
			if !sites["b"] {
				t.Fatalf("recovered allocation skipped site b: %+v", alloc.Shares)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("site b never rejoined after heal: %v (health %+v)", err, br.Health())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChaosStatsEqualRegistry: the broker has one accounting path, so after
// a run with a granted request, one that loses a site between its (cached)
// probe and its prepare, an outage and a recovery, every BrokerStats and
// CacheStats field — enumerated by reflection — reads exactly what the
// registry counter named for it reads.
func TestChaosStatsEqualRegistry(t *testing.T) {
	cfg := chaosClientConfig()
	members := []*chaosSite{
		startChaosSite(t, "a", 4, 31, cfg),
		startChaosSite(t, "b", 4, 32, cfg),
	}
	reg := obs.NewRegistry()
	br, err := grid.NewBroker(grid.BrokerConfig{
		Strategy:         grid.LoadBalance{},
		MaxAttempts:      1,
		RetryBackoff:     time.Millisecond,
		BreakerThreshold: -1,
		ProbeCache:       true,
		Registry:         reg,
	}, members[0].client, members[1].client)
	if err != nil {
		t.Fatal(err)
	}
	window := grid.Request{Start: 0, Duration: period.Hour, Servers: 6}
	later := grid.Request{Start: period.Time(2 * period.Hour), Duration: period.Hour, Servers: 6}
	if _, err := br.CoAllocate(0, window); err != nil {
		t.Fatalf("healthy co-allocation: %v", err)
	}
	// Cache both sites' answers for the later window, then cut b off: the
	// round plans over the cached answers, leases a, fails at b, aborts a.
	br.ProbeAll(0, later.Start, later.Start.Add(later.Duration))
	members[1].proxy.SetMode(faultnet.Partition)
	if _, err := br.CoAllocate(0, later); err == nil {
		t.Fatal("co-allocation spanning a partitioned site succeeded")
	}
	members[0].proxy.SetMode(faultnet.Partition)
	if _, err := br.CoAllocate(0, later); !errors.Is(err, grid.ErrAllSitesUnreachable) {
		t.Fatalf("co-allocation with every site cut off: %v", err)
	}
	members[0].proxy.Heal()
	members[1].proxy.Heal()
	if _, err := br.CoAllocate(0, later); err != nil {
		t.Fatalf("co-allocation after the heal: %v", err)
	}

	moved := 0
	for _, stats := range []any{br.Stats(), br.CacheStats()} {
		v := reflect.ValueOf(stats)
		for i := 0; i < v.NumField(); i++ {
			field := v.Type().Field(i).Name
			if field == "Entries" {
				continue // a gauge of live entries, not a counter
			}
			name := grid.StatCounterName(field)
			if name == "" {
				t.Errorf("%s.%s has no registry counter", v.Type().Name(), field)
				continue
			}
			var got uint64
			if f := v.Field(i); f.CanUint() {
				got = f.Uint()
			} else {
				got = uint64(f.Int())
			}
			if want := reg.Counter(name).Value(); got != want {
				t.Errorf("%s.%s = %d, %s = %d", v.Type().Name(), field, got, name, want)
			}
			if got > 0 {
				moved++
			}
		}
	}
	if st := br.Stats(); st.Requests != 4 || st.Granted != 2 || st.Rejected != 1 || st.Unreachable != 1 || st.Aborts != 1 {
		t.Errorf("stats %+v; want 4 requests: 2 granted, 1 rejected with one abort, 1 unreachable", st)
	}
	if moved < 8 {
		t.Errorf("only %d fields moved: the run no longer exercises the accounting", moved)
	}
}
