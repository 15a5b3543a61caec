package wire

import (
	"net"
	"net/rpc"
	"testing"

	"coalloc/internal/core"
	"coalloc/internal/grid"
	"coalloc/internal/period"
)

// Epoch compatibility suite: the epoch metadata added to Probe/Range/Prepare
// replies must be invisible to old peers and harmless coming from them. gob
// gives both directions for free — unknown fields are dropped, missing
// fields decode as zero — and these tests pin that the zero value is then
// handled correctly: a caching broker treats Epoch == 0 as "no invalidation
// signal, never cache".

// The Legacy* types reproduce the wire schema as it was before the epoch
// field shipped. They must be exported for net/rpc to accept them.

type LegacyProbeArgs struct {
	Now, Start, End period.Time
}

type LegacyProbeReply struct {
	Available int
	Capacity  int
}

type LegacyRangeArgs struct {
	Now, Start, End period.Time
}

type LegacyRangeReply struct {
	Feasible []period.Period
}

type LegacyPrepareArgs struct {
	Now     period.Time
	HoldID  string
	Start   period.Time
	End     period.Time
	Servers int
	Lease   period.Duration
}

type LegacyPrepareReply struct {
	Servers []int
}

type LegacyDecideArgs struct {
	Now    period.Time
	HoldID string
}

type LegacyDecideReply struct{}

type LegacyInfoArgs struct{}

type LegacyInfoReply struct {
	Name    string
	Servers int
}

// LegacySiteService is a site daemon as an old binary would serve it: same
// service name and methods, epoch-less reply schema.
type LegacySiteService struct {
	Site *grid.Site
}

func (s *LegacySiteService) Probe(args LegacyProbeArgs, reply *LegacyProbeReply) error {
	reply.Available = s.Site.Probe(args.Now, args.Start, args.End)
	reply.Capacity = s.Site.Servers()
	return nil
}

func (s *LegacySiteService) Range(args LegacyRangeArgs, reply *LegacyRangeReply) error {
	reply.Feasible = s.Site.RangeSearch(args.Now, args.Start, args.End)
	return nil
}

func (s *LegacySiteService) Prepare(args LegacyPrepareArgs, reply *LegacyPrepareReply) error {
	servers, err := s.Site.Prepare(args.Now, args.HoldID, args.Start, args.End, args.Servers, args.Lease)
	if err != nil {
		return err
	}
	reply.Servers = servers
	return nil
}

func (s *LegacySiteService) Commit(args LegacyDecideArgs, _ *LegacyDecideReply) error {
	return s.Site.Commit(args.Now, args.HoldID)
}

func (s *LegacySiteService) Abort(args LegacyDecideArgs, _ *LegacyDecideReply) error {
	return s.Site.Abort(args.Now, args.HoldID)
}

func (s *LegacySiteService) Info(_ LegacyInfoArgs, reply *LegacyInfoReply) error {
	reply.Name = s.Site.Name()
	reply.Servers = s.Site.Servers()
	return nil
}

// startLegacySite serves a site through the pre-epoch schema and returns a
// modern client dialed into it.
func startLegacySite(t *testing.T, name string, servers int) (*grid.Site, *Client) {
	t.Helper()
	site, err := grid.NewSite(name, core.Config{
		Servers:  servers,
		SlotSize: 15 * period.Minute,
		Slots:    96,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer()
	if err := srv.RegisterName(ServiceName, &LegacySiteService{Site: site}); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}()
	c, err := Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return site, c
}

// TestLegacyServerReplyDecodesWithZeroEpoch pins the decode direction: a
// reply that never carried the epoch fields must reach the broker with
// Epoch == 0 and SiteNow == 0, not garbage.
func TestLegacyServerReplyDecodesWithZeroEpoch(t *testing.T) {
	_, c := startLegacySite(t, "old-decode", 4)
	r, err := c.Probe(0, 0, period.Time(period.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if r.Available != 4 || r.Capacity != 4 {
		t.Fatalf("probe of legacy site = %+v", r)
	}
	if r.Epoch != 0 || r.SiteNow != 0 {
		t.Fatalf("legacy reply decoded with non-zero epoch metadata: %+v", r)
	}
	rr, err := c.RangeView(0, 0, period.Time(period.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Feasible) != 4 || rr.Epoch != 0 {
		t.Fatalf("legacy range reply = %+v", rr)
	}
}

// TestLegacyServerDoesNotPoisonBrokerCache is the interop acceptance test: a
// caching broker federating an old site must fall back to uncached behavior
// — every probe is a round trip, nothing is stored, answers stay correct
// through a full 2PC cycle.
func TestLegacyServerDoesNotPoisonBrokerCache(t *testing.T) {
	site, c := startLegacySite(t, "old-cache", 4)
	br, err := grid.NewBroker(grid.BrokerConfig{
		ProbeCache:       true,
		BreakerThreshold: -1,
	}, c)
	if err != nil {
		t.Fatal(err)
	}
	w := period.Time(period.Hour)
	for i := 0; i < 3; i++ {
		if av := br.ProbeAll(0, 0, w); av[0].Err != nil || av[0].Available != 4 {
			t.Fatalf("probe %d: %+v", i, av[0])
		}
	}
	if _, err := br.CoAllocate(0, grid.Request{ID: 1, Start: 0, Duration: period.Hour, Servers: 3}); err != nil {
		t.Fatalf("co-allocation against legacy site: %v", err)
	}
	// With no cache in play the next probe reflects the commit immediately.
	if av := br.ProbeAll(0, 0, w); av[0].Available != 1 {
		t.Fatalf("probe after commit = %+v, want 1", av[0])
	}
	cs := br.CacheStats()
	if cs.Hits != 0 || cs.Entries != 0 {
		t.Fatalf("legacy replies leaked into the cache: %+v", cs)
	}
	if site.PendingHolds() != 0 {
		t.Fatalf("legacy site left %d holds", site.PendingHolds())
	}
}

// TestOldClientDropsUnknownEpochFields pins the encode direction: a legacy
// broker decoding a modern server's reply simply never sees the new fields.
func TestOldClientDropsUnknownEpochFields(t *testing.T) {
	c := startSite(t, "new-server-old-client", 4) // modern server
	addr, _ := siteAddrs.Load("new-server-old-client")
	rc, err := rpc.Dial("tcp", addr.(string))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	_ = c

	var legacy LegacyProbeReply
	if err := rc.Call(ServiceName+".Probe", LegacyProbeArgs{Now: 0, Start: 0, End: period.Time(period.Hour)}, &legacy); err != nil {
		t.Fatalf("legacy-schema call against modern server: %v", err)
	}
	if legacy.Available != 4 || legacy.Capacity != 4 {
		t.Fatalf("legacy decode of modern reply = %+v", legacy)
	}
}
