// Package wire exposes a grid site over the network and gives brokers a
// client that satisfies grid.Conn. It uses net/rpc with gob encoding over
// TCP — each site daemon (cmd/gridd) serves its scheduler, and brokers
// (cmd/gridctl, examples/multisite) dial the sites they federate. The
// protocol is exactly the prepare/commit/abort surface of internal/grid, so
// in-process and remote federations behave identically.
package wire

import (
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"os"
	"sync"
	"time"

	"coalloc/internal/grid"
	"coalloc/internal/obs"
	"coalloc/internal/period"
)

// ServiceName is the RPC service name sites register under.
const ServiceName = "CoallocSite"

// ProbeArgs asks how many servers are free over a window.
//
// TraceID and SpanID carry the broker's span context so the site's own spans
// (view lookup, queue wait, WAL flush) land in a trace fragment that links
// back to the broker's request. Like the epoch fields, they ride gob's
// unknown-field tolerance: an old server drops them (the request is simply
// untraced site-side), and a request from an old broker decodes with both
// zero — the sentinel telling the site not to record anything.
type ProbeArgs struct {
	Now, Start, End period.Time
	TraceID, SpanID uint64
}

// ProbeReply carries the probed availability together with the site's
// capacity, so a broker's split decision needs one round trip per site, not
// two.
//
// Epoch and SiteNow are the cacheability metadata of grid.ProbeResult. Both
// ride gob, which silently drops fields the peer does not know and zeroes
// fields the peer did not send: an old broker ignores them, and a reply
// from an old server decodes with Epoch == 0 — the sentinel telling a new
// broker the answer carries no invalidation signal and must not be cached.
type ProbeReply struct {
	Available int
	Capacity  int
	Epoch     uint64
	SiteNow   period.Time
}

// RangeArgs asks for every feasible start period for a window — the
// per-site leg of the user-facing range search (§4.2).
type RangeArgs struct {
	Now, Start, End period.Time
	// Trace context; see ProbeArgs.
	TraceID, SpanID uint64
}

// RangeReply lists the feasible periods, with the same backward-compatible
// cacheability metadata as ProbeReply.
type RangeReply struct {
	Feasible []period.Period
	Epoch    uint64
	SiteNow  period.Time
}

// PrepareArgs leases servers for a window (2PC phase 1).
//
// ProbedEpoch is the site epoch the broker's availability answer was
// computed at; zero (also what a request from a pre-conflict broker decodes
// as) means "did not probe / no epoch support" and disables conflict
// classification for the call. It doubles as the compat gate for the reply:
// only a caller that sent a non-zero ProbedEpoch understands the Conflict
// reply fields, so the server never answers an old broker with a
// nil-error-plus-Conflict reply it would misread as a successful prepare.
type PrepareArgs struct {
	Now     period.Time
	HoldID  string
	Start   period.Time
	End     period.Time
	Servers int
	Lease   period.Duration
	// Trace context; see ProbeArgs.
	TraceID, SpanID uint64
	ProbedEpoch     uint64
}

// PrepareReply lists the granted server IDs and the site epoch after the
// prepare applied, so a caching broker learns immediately that the epoch it
// cached probe answers under is gone (it invalidates around its own 2PC
// traffic regardless — the field closes the loop for third-party observers
// and keeps all three reply types uniformly tagged).
//
// Conflict reports a prepare lost to optimistic concurrency: the requested
// servers were free at the caller's ProbedEpoch but the site's epoch has
// moved (to ConflictEpoch) and the window no longer fits. It rides the
// reply with a nil RPC error because net/rpc does not transmit the reply
// body when the handler errors — and it is only ever set for callers that
// proved they understand it (ProbedEpoch != 0 on the request; see
// PrepareArgs). A reply from an old server decodes with Conflict == false,
// so a new broker talking to an old site sees plain errors and degrades to
// the Δt-ladder behavior.
type PrepareReply struct {
	Servers       []int
	Epoch         uint64
	Conflict      bool
	ConflictEpoch uint64
}

// DecideArgs commits or aborts a hold (2PC phase 2).
type DecideArgs struct {
	Now    period.Time
	HoldID string
	// Trace context; see ProbeArgs.
	TraceID, SpanID uint64
}

// DecideReply is empty; errors travel on the RPC error channel.
type DecideReply struct{}

// InfoArgs requests site metadata.
type InfoArgs struct{}

// InfoReply describes a site.
type InfoReply struct {
	Name    string
	Servers int
}

// CheckpointArgs requests a durable cut: the site snapshots itself into its
// write-ahead log and truncates the journal segments the snapshot covers.
type CheckpointArgs struct{}

// CheckpointReply is empty; errors (including "no WAL attached") travel on
// the RPC error channel.
type CheckpointReply struct{}

// StatsArgs requests the site's live counters.
type StatsArgs struct{}

// StatsReply carries the site summary served to `gridctl stats` and any
// other monitoring client.
type StatsReply struct {
	Status grid.SiteStatus
}

// svcMetrics caches per-method server-side telemetry; nil when the server
// is not instrumented.
type svcMetrics struct {
	latency  map[string]*obs.Histogram
	errors   *obs.Counter
	inflight *obs.Gauge
}

// serviceMethods names every RPC method, for metric registration.
var serviceMethods = []string{"Probe", "Range", "Prepare", "Commit", "Abort", "Info", "Stats", "Checkpoint", "Watch", "ProbeBatch"}

func newSvcMetrics(reg *obs.Registry) *svcMetrics {
	m := &svcMetrics{
		latency:  make(map[string]*obs.Histogram, len(serviceMethods)),
		errors:   reg.Counter("wire.server.errors"),
		inflight: reg.Gauge("wire.server.inflight"),
	}
	for _, name := range serviceMethods {
		m.latency[name] = reg.Histogram("wire.server." + name + ".latency")
	}
	reg.Help("wire.server.errors", "RPC handler errors returned to clients")
	reg.Help("wire.server.inflight", "RPC handler calls currently executing")
	return m
}

// observe wraps one handler invocation.
func (m *svcMetrics) observe(method string, fn func() error) error {
	if m == nil {
		return fn()
	}
	m.inflight.Inc()
	t0 := time.Now()
	err := fn()
	m.latency[method].Observe(time.Since(t0))
	m.inflight.Dec()
	if err != nil {
		m.errors.Inc()
	}
	return err
}

// Service adapts a *grid.Site to net/rpc.
type Service struct {
	site *grid.Site
	m    *svcMetrics
}

// traceContext rebuilds the caller's span context from a request's trace
// fields. Requests from pre-trace brokers decode with both zero, which
// obs.SpanContext.Valid rejects — the site records nothing for them.
func traceContext(traceID, spanID uint64) obs.SpanContext {
	return obs.SpanContext{TraceID: traceID, SpanID: spanID}
}

// Probe implements the RPC method.
func (s *Service) Probe(args ProbeArgs, reply *ProbeReply) error {
	return s.m.observe("Probe", func() error {
		n, epoch, siteNow := s.site.ProbeViewTraced(traceContext(args.TraceID, args.SpanID), args.Now, args.Start, args.End)
		reply.Available = n
		reply.Capacity = s.site.Servers()
		reply.Epoch = epoch
		reply.SiteNow = siteNow
		return nil
	})
}

// Range implements the RPC method.
func (s *Service) Range(args RangeArgs, reply *RangeReply) error {
	return s.m.observe("Range", func() error {
		feasible, epoch, siteNow := s.site.RangeSearchViewTraced(traceContext(args.TraceID, args.SpanID), args.Now, args.Start, args.End)
		reply.Feasible = feasible
		reply.Epoch = epoch
		reply.SiteNow = siteNow
		return nil
	})
}

// Prepare implements the RPC method.
func (s *Service) Prepare(args PrepareArgs, reply *PrepareReply) error {
	return s.m.observe("Prepare", func() error {
		servers, err := s.site.PrepareConflictTraced(traceContext(args.TraceID, args.SpanID), args.Now, args.HoldID, args.Start, args.End, args.Servers, args.Lease, args.ProbedEpoch)
		if err != nil {
			var conflict *grid.ConflictError
			if errors.As(err, &conflict) && args.ProbedEpoch != 0 {
				// The conflict must ride the reply body under a nil error:
				// net/rpc drops the body when the handler errors. Safe only
				// because ProbedEpoch != 0 proved the caller decodes the
				// field; see PrepareArgs.
				reply.Conflict = true
				reply.ConflictEpoch = conflict.Epoch
				return nil
			}
			return err
		}
		reply.Servers = servers
		reply.Epoch = s.site.Epoch()
		return nil
	})
}

// Commit implements the RPC method.
func (s *Service) Commit(args DecideArgs, _ *DecideReply) error {
	return s.m.observe("Commit", func() error {
		return s.site.CommitTraced(traceContext(args.TraceID, args.SpanID), args.Now, args.HoldID)
	})
}

// Abort implements the RPC method.
func (s *Service) Abort(args DecideArgs, _ *DecideReply) error {
	return s.m.observe("Abort", func() error {
		return s.site.AbortTraced(traceContext(args.TraceID, args.SpanID), args.Now, args.HoldID)
	})
}

// Info implements the RPC method.
func (s *Service) Info(_ InfoArgs, reply *InfoReply) error {
	return s.m.observe("Info", func() error {
		reply.Name = s.site.Name()
		reply.Servers = s.site.Servers()
		return nil
	})
}

// Stats implements the RPC method: it returns the site's live counters so
// monitoring clients (gridctl stats) never need a side channel.
func (s *Service) Stats(_ StatsArgs, reply *StatsReply) error {
	return s.m.observe("Stats", func() error {
		reply.Status = s.site.Status()
		return nil
	})
}

// Checkpoint implements the RPC method: it forces a durable cut of site
// state into the write-ahead log, so operators (gridctl checkpoint) can
// bound replay time without restarting the daemon.
func (s *Service) Checkpoint(_ CheckpointArgs, _ *CheckpointReply) error {
	return s.m.observe("Checkpoint", func() error {
		return s.site.Checkpoint()
	})
}

// Server serves one site to any number of brokers.
type Server struct {
	site *grid.Site
	svc  *Service
	rpc  *rpc.Server

	// IdleTimeout, when positive, bounds how long a client connection may
	// sit with no request in flight before the server reclaims it — a
	// defense against half-open sockets left by partitioned brokers. Set
	// before Serve.
	IdleTimeout time.Duration

	mu     sync.Mutex
	l      net.Listener
	closed bool // Shutdown started: reject late-accepted connections
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// NewServer wraps a site for serving.
func NewServer(site *grid.Site) (*Server, error) {
	srv := rpc.NewServer()
	svc := &Service{site: site}
	if err := srv.RegisterName(ServiceName, svc); err != nil {
		return nil, fmt.Errorf("wire: register: %w", err)
	}
	return &Server{site: site, svc: svc, rpc: srv, conns: make(map[net.Conn]struct{})}, nil
}

// Instrument installs per-method latency histograms, an error counter, and
// connection gauges under reg's "wire.server." prefix. Call before Serve.
func (s *Server) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.svc.m = newSvcMetrics(reg)
	reg.Func("wire.server.open_conns", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.conns))
	})
	reg.Help("wire.server.open_conns", "currently open client connections")
}

// Serve accepts connections until the listener is closed. It always returns
// a non-nil error (net.ErrClosed after Close or Shutdown).
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	s.l = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		if s.IdleTimeout > 0 {
			conn = &idleConn{Conn: conn, timeout: s.IdleTimeout}
		}
		s.mu.Lock()
		if s.closed {
			// Shutdown already counted the in-flight set; do not add to it.
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				s.wg.Done()
			}()
			s.rpc.ServeConn(conn)
		}()
	}
}

// Close stops accepting new connections. In-flight connections keep being
// served; use Shutdown to drain them too.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.l == nil {
		return nil
	}
	return s.l.Close()
}

// Shutdown closes the listener and waits for in-flight connections to
// drain. Connections still open after grace (for example a broker holding
// an idle persistent connection) are force-closed; net/rpc finishes the
// call it is executing before noticing, so no handler is interrupted
// mid-mutation. After Shutdown returns no RPC is running or can start,
// which makes it safe to snapshot the site and exit.
func (s *Server) Shutdown(grace time.Duration) error {
	s.mu.Lock()
	s.closed = true
	l := s.l
	s.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace):
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	return err
}

// Client is a broker-side connection to a remote site. It implements
// grid.Conn.
//
// When built through DialConfig with a CallTimeout, every RPC is bounded:
// a call that does not complete in time returns an error satisfying
// errors.Is(err, os.ErrDeadlineExceeded), the wedged connection is severed,
// and the next call transparently redials (bounded by DialTimeout). A site
// daemon restart therefore costs a broker one failed call, not a dead
// client.
type Client struct {
	name    string
	servers int
	network string
	addr    string
	cfg     ClientConfig

	mu sync.Mutex
	c  *rpc.Client // nil after the transport broke; redialed lazily
	// closed refuses redials after Close, so a shut-down client stays shut.
	closed bool

	// Dedicated transport for the epoch watch long-poll; see watch.go. A
	// poll parked for seconds would trip CallTimeout on the main transport
	// and sever every multiplexed call with it.
	watchMu sync.Mutex
	watchC  *rpc.Client

	// optional telemetry; see Instrument
	latency    map[string]*obs.Histogram
	errs       *obs.Counter
	timeouts   *obs.Counter
	reconnects *obs.Counter
}

var (
	_ grid.Conn                = (*Client)(nil)
	_ grid.RangeConn           = (*Client)(nil)
	_ grid.TracedConn          = (*Client)(nil)
	_ grid.ConflictPrepareConn = (*Client)(nil)
)

// Dial connects to a site daemon and fetches its identity, with no
// deadlines (the historical behavior). Production brokers should prefer
// DialConfig with explicit timeouts.
func Dial(network, addr string) (*Client, error) {
	return DialConfig(network, addr, ClientConfig{})
}

// DialConfig connects to a site daemon with the given deadline
// configuration and fetches its identity. The identity handshake itself is
// bounded by the configured timeouts.
func DialConfig(network, addr string, cfg ClientConfig) (*Client, error) {
	c := &Client{network: network, addr: addr, cfg: cfg}
	rc, err := c.redialLocked()
	if err != nil {
		return nil, err
	}
	c.c = rc
	var info InfoReply
	if err := c.call("Info", InfoArgs{}, &info); err != nil {
		c.Close()
		return nil, fmt.Errorf("wire: info %s: %w", addr, err)
	}
	c.name = info.Name
	c.servers = info.Servers
	return c, nil
}

// redialLocked establishes a fresh rpc connection honoring DialTimeout. The
// caller either holds c.mu or has exclusive access (construction).
func (c *Client) redialLocked() (*rpc.Client, error) {
	var (
		conn net.Conn
		err  error
	)
	if c.cfg.DialTimeout > 0 {
		conn, err = net.DialTimeout(c.network, c.addr, c.cfg.DialTimeout)
	} else {
		conn, err = net.Dial(c.network, c.addr)
	}
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", c.addr, err)
	}
	if c.cfg.CallTimeout > 0 {
		conn = &deadlineConn{Conn: conn, writeTimeout: c.cfg.CallTimeout}
	}
	return rpc.NewClient(conn), nil
}

// client returns the live rpc client, redialing if the previous transport
// broke.
func (c *Client) client() (*rpc.Client, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, rpc.ErrShutdown
	}
	if c.c != nil {
		return c.c, nil
	}
	rc, err := c.redialLocked()
	if err != nil {
		return nil, err
	}
	c.c = rc
	if c.reconnects != nil {
		c.reconnects.Inc()
	}
	return rc, nil
}

// sever discards a broken transport so the next call redials. Only the
// transport that actually failed is discarded: a concurrent call may
// already have installed a fresh one.
func (c *Client) sever(broken *rpc.Client) {
	c.mu.Lock()
	if c.c == broken {
		c.c = nil
	}
	c.mu.Unlock()
	broken.Close()
}

// Instrument installs per-method RPC latency histograms and an error
// counter under reg's "wire.client.<site>." prefix, so a broker federating
// several sites can tell their link qualities apart.
func (c *Client) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	prefix := "wire.client." + c.name + "."
	c.latency = make(map[string]*obs.Histogram, len(serviceMethods))
	for _, m := range serviceMethods {
		c.latency[m] = reg.Histogram(prefix + m + ".latency")
	}
	c.errs = reg.Counter(prefix + "errors")
	c.timeouts = reg.Counter(prefix + "timeouts")
	c.reconnects = reg.Counter(prefix + "reconnects")
	reg.Help(prefix+"errors", "RPC calls to this site that returned an error")
	reg.Help(prefix+"timeouts", "RPC calls to this site that exceeded CallTimeout")
	reg.Help(prefix+"reconnects", "transparent redials after a broken transport")
}

// call routes one RPC through the deadline and telemetry wrappers. With a
// CallTimeout configured the call is raced against a timer; on expiry the
// connection is severed — unblocking net/rpc's reader and failing every
// call multiplexed on it — and the caller gets a timeout error. Without
// one, it blocks like plain net/rpc.
func (c *Client) call(method string, args, reply any) error {
	if c.latency != nil {
		defer c.latency[method].Since(time.Now())
	}
	err := c.callOnce(method, args, reply)
	if err != nil && c.errs != nil {
		c.errs.Inc()
	}
	return err
}

func (c *Client) callOnce(method string, args, reply any) error {
	rc, err := c.client()
	if err != nil {
		return err
	}
	if c.cfg.CallTimeout <= 0 {
		err := rc.Call(ServiceName+"."+method, args, reply)
		if isConnError(err) {
			c.sever(rc)
		}
		return err
	}
	call := rc.Go(ServiceName+"."+method, args, reply, make(chan *rpc.Call, 1))
	timer := time.NewTimer(c.cfg.CallTimeout)
	defer timer.Stop()
	select {
	case done := <-call.Done:
		if isConnError(done.Error) {
			c.sever(rc)
		}
		return done.Error
	case <-timer.C:
		// The reply never came. Sever the transport: that unblocks the rpc
		// reader, fails the abandoned call, and lets the next call redial.
		c.sever(rc)
		if c.timeouts != nil {
			c.timeouts.Inc()
		}
		return fmt.Errorf("wire: %s %s after %v: %w", method, c.addr, c.cfg.CallTimeout, os.ErrDeadlineExceeded)
	}
}

// Name implements grid.Conn.
func (c *Client) Name() string { return c.name }

// Servers implements grid.Conn.
func (c *Client) Servers() (int, error) { return c.servers, nil }

// Probe implements grid.Conn.
func (c *Client) Probe(now, start, end period.Time) (grid.ProbeResult, error) {
	return c.ProbeTraced(obs.SpanContext{}, now, start, end)
}

// ProbeTraced implements grid.TracedConn: Probe with the caller's span
// context stamped on the request so the site's spans parent under it.
func (c *Client) ProbeTraced(tc obs.SpanContext, now, start, end period.Time) (grid.ProbeResult, error) {
	var reply ProbeReply
	if err := c.call("Probe", ProbeArgs{Now: now, Start: start, End: end, TraceID: tc.TraceID, SpanID: tc.SpanID}, &reply); err != nil {
		return grid.ProbeResult{}, err
	}
	r := grid.ProbeResult{
		Available: reply.Available,
		Capacity:  reply.Capacity,
		// Epoch stays zero when the server predates the field, which tells
		// a caching broker the answer has no invalidation signal.
		Epoch:   reply.Epoch,
		SiteNow: reply.SiteNow,
	}
	if r.Capacity == 0 {
		// A pre-Capacity server left the field unset; fall back to the
		// capacity cached from the Info handshake.
		r.Capacity = c.servers
	}
	return r, nil
}

// Range fetches every feasible start period for the window from the site.
func (c *Client) Range(now, start, end period.Time) ([]period.Period, error) {
	var reply RangeReply
	if err := c.call("Range", RangeArgs{Now: now, Start: start, End: end}, &reply); err != nil {
		return nil, err
	}
	return reply.Feasible, nil
}

// RangeView implements grid.RangeConn: the range search tagged with the
// epoch metadata a caching broker needs.
func (c *Client) RangeView(now, start, end period.Time) (grid.RangeResult, error) {
	var reply RangeReply
	if err := c.call("Range", RangeArgs{Now: now, Start: start, End: end}, &reply); err != nil {
		return grid.RangeResult{}, err
	}
	return grid.RangeResult{Feasible: reply.Feasible, Epoch: reply.Epoch, SiteNow: reply.SiteNow}, nil
}

// Prepare implements grid.Conn.
func (c *Client) Prepare(now period.Time, holdID string, start, end period.Time, servers int, lease period.Duration) ([]int, error) {
	return c.PrepareTraced(obs.SpanContext{}, now, holdID, start, end, servers, lease)
}

// PrepareTraced implements grid.TracedConn.
func (c *Client) PrepareTraced(tc obs.SpanContext, now period.Time, holdID string, start, end period.Time, servers int, lease period.Duration) ([]int, error) {
	return c.PrepareConflict(tc, now, holdID, start, end, servers, lease, 0)
}

// PrepareConflict implements grid.ConflictPrepareConn: Prepare carrying the
// probed epoch, with a Conflict reply rebuilt into the typed error the
// broker's retry path matches on. Against an old server the reply decodes
// with Conflict false and every refusal stays a plain error.
func (c *Client) PrepareConflict(tc obs.SpanContext, now period.Time, holdID string, start, end period.Time, servers int, lease period.Duration, probedEpoch uint64) ([]int, error) {
	var reply PrepareReply
	err := c.call("Prepare", PrepareArgs{
		Now: now, HoldID: holdID, Start: start, End: end, Servers: servers, Lease: lease,
		TraceID: tc.TraceID, SpanID: tc.SpanID, ProbedEpoch: probedEpoch,
	}, &reply)
	if err != nil {
		return nil, err
	}
	if reply.Conflict {
		return nil, &grid.ConflictError{Site: c.name, Epoch: reply.ConflictEpoch}
	}
	return reply.Servers, nil
}

// Commit implements grid.Conn.
func (c *Client) Commit(now period.Time, holdID string) error {
	return c.CommitTraced(obs.SpanContext{}, now, holdID)
}

// CommitTraced implements grid.TracedConn.
func (c *Client) CommitTraced(tc obs.SpanContext, now period.Time, holdID string) error {
	return c.call("Commit", DecideArgs{Now: now, HoldID: holdID, TraceID: tc.TraceID, SpanID: tc.SpanID}, &DecideReply{})
}

// Abort implements grid.Conn.
func (c *Client) Abort(now period.Time, holdID string) error {
	return c.AbortTraced(obs.SpanContext{}, now, holdID)
}

// AbortTraced implements grid.TracedConn.
func (c *Client) AbortTraced(tc obs.SpanContext, now period.Time, holdID string) error {
	return c.call("Abort", DecideArgs{Now: now, HoldID: holdID, TraceID: tc.TraceID, SpanID: tc.SpanID}, &DecideReply{})
}

// Checkpoint asks the site for a durable cut of its state into its WAL.
func (c *Client) Checkpoint() error {
	return c.call("Checkpoint", CheckpointArgs{}, &CheckpointReply{})
}

// Stats fetches the site's live counters.
func (c *Client) Stats() (grid.SiteStatus, error) {
	var reply StatsReply
	if err := c.call("Stats", StatsArgs{}, &reply); err != nil {
		return grid.SiteStatus{}, err
	}
	return reply.Status, nil
}

// Close releases the connection (and the watch transport, if one was
// dialed) and refuses further redials.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	var err error
	if c.c != nil {
		err = c.c.Close()
		c.c = nil
	}
	c.mu.Unlock()
	c.closeWatch()
	return err
}
