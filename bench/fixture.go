package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"coalloc/internal/core"
	"coalloc/internal/grid"
	"coalloc/internal/job"
	"coalloc/internal/obs"
	"coalloc/internal/period"
	"coalloc/internal/replica"
	"coalloc/internal/wal"
	"coalloc/internal/wire"
)

// Production defaults (cmd/gridd, cmd/gridctl). Every fixture uses them so
// no workload measures a configuration nobody deploys.
const (
	slotSize    = 15 * period.Minute
	slots       = 672 // 168 h horizon
	dialTimeout = 5 * time.Second
	callTimeout = 10 * time.Second
)

// siteServers splits KTH's 128 servers over three sites, so offered
// utilisation is the model's ≈0.7 and wide jobs must split across sites.
var siteServers = []int{43, 43, 42}

// fixtureConfig names what a workload puts between the broker and the
// calendars.
type fixtureConfig struct {
	tcp        bool // sites behind wire.Server/wire.Client on loopback
	wal        bool // every site journals through wal.Log, SyncAlways
	standby    bool // s0 streams semi-sync to one standby (needs wal)
	broker     grid.BrokerConfig
	noRecorder bool          // sites without a flight recorder (obs overhead baseline)
	backend    string        // "" = the default backend
	dir        string        // scratch root for WAL directories
	spans      *spanStore    // non-nil: decorate every seam
	shares     *shareLog     // non-nil: record the share stream
	registry   *obs.Registry // non-nil: receives the replication counters
}

// fixture is one booted federation.
type fixture struct {
	cfg    fixtureConfig
	sites  []*grid.Site
	snaps  [][]byte // each site's snapshot right after warm-up
	conns  []grid.Conn
	broker *grid.Broker
	cur    *cursor
	mirror *mirror
	clock  period.Time // virtual time at the end of warm-up

	// The broker's cache counters, captured by stop() before it goes away.
	cacheStats grid.CacheStats

	twals    []*timedWAL
	treplica *timedReplica

	servers   []*wire.Server
	clients   []*wire.Client
	logs      []*wal.Log
	walDirs   []string
	primary   *replica.Primary
	standby   *replica.Standby
	sbServer  *wire.Server
	serveErrs chan error
}

func newSite(i int, backend string) (*grid.Site, error) {
	return grid.NewSite(fmt.Sprintf("s%d", i), core.Config{
		Servers:  siteServers[i],
		Backend:  backend,
		SlotSize: slotSize,
		Slots:    slots,
	}, 0)
}

// buildFixture boots the federation and warms every site by replaying the
// first warmJobs jobs of the stream through an in-process broker, un-timed,
// so no workload measures the empty-calendar artifact by accident. The WAL,
// the wire and the standby are attached after the warm-up: they start from
// the warmed state, as a long-running deployment would.
func buildFixture(cfg fixtureConfig, jobs []job.Request) (fx *fixture, err error) {
	if len(jobs) < warmJobs {
		return nil, fmt.Errorf("bench: stream of %d jobs is shorter than the %d-job warm-up", len(jobs), warmJobs)
	}
	fx = &fixture{cfg: cfg, mirror: newMirror(), serveErrs: make(chan error, 8)}
	defer func() {
		if err != nil {
			fx.close()
		}
	}()
	local := make([]grid.Conn, len(siteServers))
	for i := range siteServers {
		s, err := newSite(i, cfg.backend)
		if err != nil {
			return nil, err
		}
		if !cfg.noRecorder {
			s.SetRecorder(obs.NewRecorder(obs.RecorderConfig{}))
		}
		fx.sites = append(fx.sites, s)
		local[i] = grid.LocalConn{Site: s}
	}
	fx.cur = &cursor{jobs: jobs, limit: len(jobs)}
	warmConns := local
	if cfg.shares != nil {
		// The share stream starts with the warm-up: the direct drivers
		// rebuild the warmed state from it.
		warmConns = make([]grid.Conn, len(local))
		for i, c := range local {
			if warmConns[i], err = newTimedConn(c, i, nil, cfg.shares); err != nil {
				return nil, err
			}
		}
	}
	warm, err := grid.NewBroker(grid.BrokerConfig{Name: "warm"}, warmConns...)
	if err != nil {
		return nil, err
	}
	w := &worker{fx: fx, broker: warm}
	for fx.cur.next < warmJobs {
		j, due, now, _ := fx.cur.take()
		w.releaseDue(now, due)
		if a, ok := w.coalloc(now, j, time.Time{}); ok {
			fx.cur.noteGrant(a)
		}
		fx.cur.done(j)
	}
	if w.tally.failed > 0 {
		return nil, fmt.Errorf("bench: warm-up: %d operations failed: %v", w.tally.failed, w.firstErr)
	}
	fx.clock = jobs[warmJobs-1].Submit
	for _, s := range fx.sites {
		var buf bytes.Buffer
		if err := s.Snapshot(&buf); err != nil {
			return nil, err
		}
		fx.snaps = append(fx.snaps, buf.Bytes())
	}

	if cfg.wal {
		if err := fx.attachWALs(); err != nil {
			return nil, err
		}
	}
	fx.conns = local
	if cfg.tcp {
		if err := fx.serve(); err != nil {
			return nil, err
		}
	}
	if cfg.spans != nil {
		for i, c := range fx.conns {
			tc, err := newTimedConn(c, i, cfg.spans, cfg.shares)
			if err != nil {
				return nil, err
			}
			fx.conns[i] = tc
		}
	}
	bc := cfg.broker
	bc.Name = "bench"
	fx.broker, err = grid.NewBroker(bc, fx.conns...)
	return fx, err
}

// restoreFrom rebuilds a site from a warm-up snapshot; the standby and the
// post-run recovery check both start from it.
func restoreFrom(snap []byte) func() (*grid.Site, error) {
	return func() (*grid.Site, error) { return grid.RestoreSite(bytes.NewReader(snap)) }
}

var walOptions = wal.Options{Sync: wal.SyncAlways}

func (fx *fixture) attachWALs() error {
	for i, s := range fx.sites {
		dir := filepath.Join(fx.cfg.dir, s.Name())
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		log, _, err := wal.Open(dir, walOptions)
		if err != nil {
			return err
		}
		fx.logs = append(fx.logs, log)
		fx.walDirs = append(fx.walDirs, dir)
		var journal grid.WAL = log
		if i == 0 && fx.cfg.standby {
			if journal, err = fx.replicate(s, log, dir); err != nil {
				return err
			}
		}
		if fx.cfg.spans != nil {
			tw, err := newTimedWAL(journal, i, fx.cfg.spans)
			if err != nil {
				return err
			}
			fx.twals = append(fx.twals, tw)
			journal = tw
		}
		s.AttachWAL(journal)
	}
	return nil
}

// replicate puts a semi-sync primary over s0's log, streaming to one standby
// behind its own wire.Server: replica.Primary → wire.ReplicaClient →
// replica.Standby, as gridd -replicas/-standby wires them.
func (fx *fixture) replicate(s *grid.Site, log *wal.Log, dir string) (grid.WAL, error) {
	sbDir := filepath.Join(fx.cfg.dir, s.Name()+"-standby")
	if err := os.MkdirAll(sbDir, 0o755); err != nil {
		return nil, err
	}
	sb, err := replica.NewStandby(replica.StandbyConfig{Dir: sbDir, WAL: walOptions, Fresh: restoreFrom(fx.snaps[0])})
	if err != nil {
		return nil, err
	}
	fx.standby = sb
	srv, err := wire.NewServer(sb.Site())
	if err != nil {
		return nil, err
	}
	if err := srv.EnableReplication(sb); err != nil {
		return nil, err
	}
	addr, err := fx.listen(srv)
	if err != nil {
		return nil, err
	}
	fx.sbServer = srv
	prim, err := replica.NewPrimary(replica.PrimaryConfig{
		Site: s, Log: log, Dir: dir, Mode: replica.SemiSync, Recorder: s.Recorder(), Registry: fx.cfg.registry,
	})
	if err != nil {
		return nil, err
	}
	fx.primary = prim
	rc, err := wire.DialReplica("tcp", addr, wire.ClientConfig{DialTimeout: dialTimeout, CallTimeout: 30 * time.Second})
	if err != nil {
		return nil, err
	}
	var conn replica.Conn = rc
	if fx.cfg.spans != nil {
		fx.treplica = &timedReplica{inner: rc, site: 0, st: fx.cfg.spans}
		conn = fx.treplica
	}
	if err := prim.AddReplica("standby", conn); err != nil {
		rc.Close()
		return nil, err
	}
	return prim, nil
}

func (fx *fixture) listen(srv *wire.Server) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go func() {
		if err := srv.Serve(l); err != nil && !errors.Is(err, net.ErrClosed) {
			fx.serveErrs <- err
		}
	}()
	return l.Addr().String(), nil
}

func (fx *fixture) serve() error {
	fx.conns = make([]grid.Conn, len(fx.sites))
	for i, s := range fx.sites {
		srv, err := wire.NewServer(s)
		if err != nil {
			return err
		}
		addr, err := fx.listen(srv)
		if err != nil {
			return err
		}
		fx.servers = append(fx.servers, srv)
		c, err := wire.DialConfig("tcp", addr, wire.ClientConfig{DialTimeout: dialTimeout, CallTimeout: callTimeout})
		if err != nil {
			return err
		}
		fx.clients = append(fx.clients, c)
		fx.conns[i] = c
	}
	return nil
}

// stop ends everything that runs: the broker's watchers, the clients, the
// servers, the replication stream. The logs stay open for the checks.
func (fx *fixture) stop() error {
	var first error
	note := func(err error) {
		if err != nil && first == nil && !errors.Is(err, net.ErrClosed) {
			first = err
		}
	}
	if fx.broker != nil {
		fx.cacheStats = fx.broker.CacheStats()
		// Broker.Close waits for its watchers, and a watcher parked in a
		// long poll only returns when the poll does (WatchPoll, 10 s):
		// closing the clients underneath ends the polls at once.
		closed := make(chan error, 1)
		go func(b *grid.Broker) { closed <- b.Close() }(fx.broker)
		for _, c := range fx.clients {
			c.Close()
		}
		note(<-closed)
		fx.broker = nil
	}
	for _, c := range fx.clients {
		c.Close()
	}
	fx.clients = nil
	for _, srv := range fx.servers {
		note(srv.Shutdown(time.Second))
	}
	fx.servers = nil
	if fx.primary != nil {
		fx.primary.Close()
		fx.primary = nil
	}
	if fx.sbServer != nil {
		note(fx.sbServer.Shutdown(time.Second))
		fx.sbServer = nil
	}
	select {
	case err := <-fx.serveErrs:
		note(err)
	default:
	}
	return first
}

// close stops the federation and releases its files.
func (fx *fixture) close() error {
	first := fx.stop()
	for _, l := range fx.logs {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	fx.logs = nil
	if fx.standby != nil {
		if err := fx.standby.Close(); err != nil && first == nil {
			first = err
		}
		fx.standby = nil
	}
	if fx.cfg.dir != "" {
		if err := os.RemoveAll(fx.cfg.dir); err != nil && first == nil {
			first = err
		}
	}
	return first
}
