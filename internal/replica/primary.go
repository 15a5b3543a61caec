package replica

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"coalloc/internal/grid"
	"coalloc/internal/obs"
	"coalloc/internal/wal"
)

// Defaults for PrimaryConfig zero fields.
const (
	// DefaultAckTimeout bounds a semi-sync wait before it degrades to an
	// async acknowledgment.
	DefaultAckTimeout = 5 * time.Second
	// DefaultStreamBytes bounds one catch-up read (and therefore one stream
	// RPC payload).
	DefaultStreamBytes = 256 << 10
	// reconnectBackoffMax caps the sender's retry backoff against a dead
	// replica.
	reconnectBackoffMax = 2 * time.Second
	// streamIdlePoll is the sender's fallback poll cadence: wakeups are
	// delivered through a notify channel, the ticker only guards against a
	// lost edge.
	streamIdlePoll = 250 * time.Millisecond
)

// ErrPrimaryClosed is returned to appends after Close.
var ErrPrimaryClosed = errors.New("replica: primary closed")

// PrimaryConfig parameterizes NewPrimary. Site and Log are required.
type PrimaryConfig struct {
	// Site is the primary site; NewPrimary attaches itself as the site's
	// WAL, so every journaled mutation flows through the replication layer.
	Site *grid.Site
	// Log is the site's write-ahead log, already recovered.
	Log *wal.Log
	// Dir, when non-empty, persists the fencing incarnation across
	// restarts; normally the WAL directory.
	Dir string
	// Mode selects async or semi-sync acknowledgment.
	Mode AckMode
	// AckReplicas is how many standbys must persist a batch before a
	// semi-sync acknowledgment; default 1.
	AckReplicas int
	// AckTimeout bounds a semi-sync wait: on expiry the batch is
	// acknowledged anyway (degraded, counted). Zero takes
	// DefaultAckTimeout; negative never degrades.
	AckTimeout time.Duration
	// StreamBytes bounds one stream read; zero takes DefaultStreamBytes.
	StreamBytes int
	// Registry, when non-nil, receives stream counters and lag gauges
	// under the "replica." prefix.
	Registry *obs.Registry
	// Recorder, when non-nil, records a span per shipped batch.
	Recorder *obs.Recorder
}

// replicaState is the primary's bookkeeping for one standby.
type replicaState struct {
	name string
	conn Conn

	// guarded by Primary.mu
	acked    uint64 // highest LSN the standby persisted
	shipped  uint64 // payload bytes shipped and acknowledged
	alive    bool   // handshake succeeded and the stream is flowing
	lastErr  string // last stream error, for status
	diverged bool   // ErrDiverged: the sender stopped permanently

	notify chan struct{} // edge-triggered wakeup from appends
	stop   chan struct{}
	done   chan struct{}
}

// primaryMetrics caches the registry entries used on the stream path.
type primaryMetrics struct {
	batches   *obs.Counter
	records   *obs.Counter
	bytes     *obs.Counter
	errors    *obs.Counter
	snapshots *obs.Counter
	degraded  *obs.Counter
}

func newPrimaryMetrics(reg *obs.Registry) *primaryMetrics {
	if reg == nil {
		return nil
	}
	m := &primaryMetrics{
		batches:   reg.Counter("replica.stream.batches"),
		records:   reg.Counter("replica.stream.records"),
		bytes:     reg.Counter("replica.stream.bytes"),
		errors:    reg.Counter("replica.stream.errors"),
		snapshots: reg.Counter("replica.stream.snapshots"),
		degraded:  reg.Counter("replica.semisync.degraded"),
	}
	reg.Help("replica.stream.batches", "record batches shipped to standbys")
	reg.Help("replica.stream.records", "journal records shipped to standbys")
	reg.Help("replica.stream.bytes", "journal payload bytes shipped to standbys")
	reg.Help("replica.stream.errors", "stream sends and handshakes that failed")
	reg.Help("replica.stream.snapshots", "standby bootstraps served from a checkpoint snapshot")
	reg.Help("replica.semisync.degraded", "semi-sync acknowledgments that timed out and degraded to async")
	return m
}

// Primary replicates a site's write-ahead log to its standbys. It
// implements grid.BatchWAL and installs itself as the site's journal, so
// the site's append-before-acknowledge contract extends across the stream:
// in semi-sync mode "durable" means "persisted here and on AckReplicas
// standbys".
type Primary struct {
	cfg  PrimaryConfig
	site *grid.Site
	log  *wal.Log
	name string
	m    *primaryMetrics
	rec  *obs.Recorder

	mu          sync.Mutex
	cond        *sync.Cond
	incarnation uint64
	replicas    map[string]*replicaState
	fenced      bool
	fenceCause  string
	closed      bool
	appended    uint64 // payload bytes appended since boot, for byte lag
	lastSnap    []byte // latest checkpoint snapshot, for standby bootstrap
	lastCover   uint64 // LSN lastSnap covers
}

// NewPrimary wires replication onto a recovered site: it loads the durable
// incarnation, installs itself as the site's WAL, and publishes replication
// status into the site's Stats. Add standbys with AddReplica.
func NewPrimary(cfg PrimaryConfig) (*Primary, error) {
	if cfg.Site == nil || cfg.Log == nil {
		return nil, errors.New("replica: primary needs a site and a log")
	}
	if cfg.AckReplicas <= 0 {
		cfg.AckReplicas = 1
	}
	if cfg.AckTimeout == 0 {
		cfg.AckTimeout = DefaultAckTimeout
	}
	if cfg.StreamBytes <= 0 {
		cfg.StreamBytes = DefaultStreamBytes
	}
	inc := uint64(1)
	if cfg.Dir != "" {
		var err error
		if inc, err = LoadIncarnation(cfg.Dir); err != nil {
			return nil, err
		}
	}
	p := &Primary{
		cfg:         cfg,
		site:        cfg.Site,
		log:         cfg.Log,
		name:        cfg.Site.Name(),
		m:           newPrimaryMetrics(cfg.Registry),
		rec:         cfg.Recorder,
		incarnation: inc,
		replicas:    make(map[string]*replicaState),
	}
	p.cond = sync.NewCond(&p.mu)
	if info, sealed := cfg.Log.SealedInfo(); sealed {
		// A sealed log is a fenced zombie's: refuse mutations from boot.
		p.fenced = true
		p.fenceCause = string(info)
		p.site.Fence(p.fenceCause)
	}
	if cfg.Registry != nil {
		cfg.Registry.Func("replica.lag.records.max", func() float64 {
			return float64(p.maxLag())
		})
		cfg.Registry.Help("replica.lag.records.max", "journal records the slowest standby is behind")
	}
	p.site.SetReplicationStatus(p.Status)
	p.site.AttachWAL(p)
	return p, nil
}

// Incarnation returns the primary's fencing number.
func (p *Primary) Incarnation() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.incarnation
}

// AddReplica attaches a standby and starts streaming to it. The name keys
// status and lag reporting and must be unique per primary.
func (p *Primary) AddReplica(name string, conn Conn) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPrimaryClosed
	}
	if _, dup := p.replicas[name]; dup {
		return fmt.Errorf("replica: duplicate replica %q", name)
	}
	rs := &replicaState{
		name:   name,
		conn:   conn,
		notify: make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	p.replicas[name] = rs
	if p.cfg.Registry != nil {
		p.cfg.Registry.Func("replica.lag.records."+name, func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return float64(p.lagLocked(rs))
		})
	}
	go p.runReplica(rs)
	return nil
}

// RemoveReplica stops streaming to a standby and forgets its ack position
// (its retention pin on the log goes with it).
func (p *Primary) RemoveReplica(name string) {
	p.mu.Lock()
	rs, ok := p.replicas[name]
	if ok {
		delete(p.replicas, name)
	}
	p.mu.Unlock()
	if !ok {
		return
	}
	close(rs.stop)
	<-rs.done
	rs.conn.Close()
	p.cond.Broadcast() // semi-sync waiters recount against the new set
}

// Close stops every sender. It does not seal the log or fence the site:
// Close is a shutdown, not a demotion.
func (p *Primary) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	reps := make([]*replicaState, 0, len(p.replicas))
	for _, rs := range p.replicas {
		reps = append(reps, rs)
	}
	p.mu.Unlock()
	for _, rs := range reps {
		close(rs.stop)
		<-rs.done
		rs.conn.Close()
	}
	p.cond.Broadcast()
}

// Append implements grid.WAL: local append, wake the senders, and — in
// semi-sync mode — wait for the replica quorum.
func (p *Primary) Append(record []byte) (uint64, error) {
	if err := p.sendable(); err != nil {
		return 0, err
	}
	lsn, err := p.log.Append(record)
	if err != nil {
		return lsn, err
	}
	p.noteAppend(uint64(len(record)))
	p.wake()
	return lsn, p.waitAcks(lsn)
}

// AppendBatch implements grid.BatchWAL: one local group commit, one quorum
// wait for the batch's last record.
func (p *Primary) AppendBatch(records [][]byte) (uint64, error) {
	if err := p.sendable(); err != nil {
		return 0, err
	}
	lsn, err := p.log.AppendBatch(records)
	if err != nil {
		return lsn, err
	}
	var n uint64
	for _, r := range records {
		n += uint64(len(r))
	}
	p.noteAppend(n)
	p.wake()
	// lsn is already the batch's LAST record (wal.Log.AppendBatch's contract),
	// so it is exactly the position the quorum must reach.
	return lsn, p.waitAcks(lsn)
}

// Checkpoint implements grid.WAL. Truncation is gated by the replica
// low-water mark: a checkpoint never deletes a segment a stream still
// needs, so a lagging standby catches up from the log instead of being
// forced through a snapshot. The snapshot is also cached as the bootstrap
// image for standbys below the retention floor.
func (p *Primary) Checkpoint(snapshot []byte) error {
	p.mu.Lock()
	if p.fenced {
		cause := p.fenceCause
		p.mu.Unlock()
		return fmt.Errorf("replica %s: %w (%s)", p.name, grid.ErrFenced, cause)
	}
	keep := p.log.NextLSN()
	p.lastSnap = snapshot
	p.lastCover = keep - 1
	for _, rs := range p.replicas {
		if rs.diverged {
			continue
		}
		if rs.acked+1 < keep {
			keep = rs.acked + 1
		}
	}
	p.mu.Unlock()
	return p.log.CheckpointRetain(snapshot, keep)
}

// sendable rejects appends on a fenced or closed primary.
func (p *Primary) sendable() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fenced {
		return fmt.Errorf("replica %s: %w (%s)", p.name, grid.ErrFenced, p.fenceCause)
	}
	if p.closed {
		return ErrPrimaryClosed
	}
	return nil
}

// noteAppend accounts appended payload bytes for byte-lag reporting.
func (p *Primary) noteAppend(n uint64) {
	p.mu.Lock()
	p.appended += n
	p.mu.Unlock()
}

// wake nudges every sender; the notify channels are edge-triggered so a
// busy sender coalesces wakeups.
func (p *Primary) wake() {
	p.mu.Lock()
	for _, rs := range p.replicas {
		select {
		case rs.notify <- struct{}{}:
		default:
		}
	}
	p.mu.Unlock()
}

// waitAcks blocks a semi-sync acknowledgment until AckReplicas standbys
// persisted through lsn, the primary is fenced (the append fails and the
// site poisons itself — nothing was acknowledged), or the timeout degrades
// the wait. The caller is the site's flusher, which holds no site lock:
// semi-sync latency is group-commit latency, shared by every writer whose
// records the flush carried, while the next batch is applied behind it.
func (p *Primary) waitAcks(lsn uint64) error {
	if p.cfg.Mode != SemiSync {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	expired := false
	if p.cfg.AckTimeout > 0 {
		t := time.AfterFunc(p.cfg.AckTimeout, func() {
			p.mu.Lock()
			expired = true
			p.mu.Unlock()
			p.cond.Broadcast()
		})
		defer t.Stop()
	}
	for {
		if p.fenced {
			return fmt.Errorf("replica %s: %w (%s)", p.name, grid.ErrFenced, p.fenceCause)
		}
		if p.closed {
			return ErrPrimaryClosed
		}
		acked := 0
		streaming := 0
		for _, rs := range p.replicas {
			if rs.diverged {
				continue
			}
			streaming++
			if rs.acked >= lsn {
				acked++
			}
		}
		if acked >= p.cfg.AckReplicas {
			return nil
		}
		if streaming == 0 || expired {
			// No replica can ever answer, or the wait timed out: acknowledge
			// locally and record the degradation.
			if p.m != nil {
				p.m.degraded.Inc()
			}
			return nil
		}
		p.cond.Wait()
	}
}

// lagLocked is the records-behind count for one replica.
func (p *Primary) lagLocked(rs *replicaState) uint64 {
	head := p.log.NextLSN() - 1
	if rs.acked >= head {
		return 0
	}
	return head - rs.acked
}

// maxLag is the slowest replica's records-behind count.
func (p *Primary) maxLag() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var max uint64
	for _, rs := range p.replicas {
		if l := p.lagLocked(rs); l > max {
			max = l
		}
	}
	return max
}

// Status reports the primary's replication state for Stats/statusz.
func (p *Primary) Status() grid.ReplicationStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := grid.ReplicationStatus{
		Role:        "primary",
		Mode:        p.cfg.Mode.String(),
		Incarnation: p.incarnation,
		NextLSN:     p.log.NextLSN(),
		AckReplicas: p.cfg.AckReplicas,
	}
	if p.fenced {
		st.Role = "fenced"
	}
	for _, rs := range p.replicas {
		behind := uint64(0)
		if p.appended > rs.shipped {
			behind = p.appended - rs.shipped
		}
		st.Replicas = append(st.Replicas, grid.ReplicaLag{
			Name:          rs.name,
			AckedLSN:      rs.acked,
			RecordsBehind: p.lagLocked(rs),
			BytesBehind:   behind,
			Alive:         rs.alive,
			Err:           rs.lastErr,
		})
	}
	return st
}

// fence permanently stops this primary: the site refuses every further
// mutation, the log is sealed on disk so a restart stays fenced, and every
// semi-sync waiter fails (their mutations were applied in memory but never
// acknowledged; the site poisons itself exactly as for a local journal
// failure).
func (p *Primary) fence(cause string) {
	p.mu.Lock()
	if p.fenced {
		p.mu.Unlock()
		return
	}
	p.fenced = true
	p.fenceCause = cause
	p.mu.Unlock()
	// Wake the semi-sync waiters first: their appends fail and poison the
	// site without waiting for the site lock Fence takes below. The flag is
	// already up, so no new append can be acknowledged in the gap — sendable
	// refuses it.
	p.cond.Broadcast()
	p.site.Fence(cause)
	if err := p.log.Seal([]byte(cause)); err != nil && !errors.Is(err, wal.ErrSealed) {
		// Sealing is belt and braces on top of the in-memory fence; a
		// failure leaves the fence standing for this process's lifetime.
		_ = err
	}
}

// errResync asks the run loop to re-handshake without backoff (the stream
// position was compacted away; a snapshot bootstrap will follow).
var errResync = errors.New("replica: resync required")

// runReplica is the per-standby sender: handshake (and bootstrap when the
// standby is below the retention floor), then tail the log and ship
// batches until stopped.
func (p *Primary) runReplica(rs *replicaState) {
	defer close(rs.done)
	backoff := 50 * time.Millisecond
	for {
		select {
		case <-rs.stop:
			return
		default:
		}
		next, err := p.syncReplica(rs)
		if err == nil {
			err = p.streamTo(rs, next)
			backoff = 50 * time.Millisecond
		}
		switch {
		case err == nil:
			return // stopped
		case grid.IsFencedErr(err):
			p.setReplicaErr(rs, err)
			p.fence(fmt.Sprintf("standby %s holds a newer incarnation: %v", rs.name, err))
			return
		case errors.Is(err, ErrDiverged):
			p.mu.Lock()
			rs.diverged = true
			rs.alive = false
			rs.lastErr = err.Error()
			p.mu.Unlock()
			p.cond.Broadcast()
			return
		case errors.Is(err, errResync):
			continue
		}
		p.setReplicaErr(rs, err)
		select {
		case <-rs.stop:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > reconnectBackoffMax {
			backoff = reconnectBackoffMax
		}
	}
}

// setReplicaErr marks a replica's stream broken.
func (p *Primary) setReplicaErr(rs *replicaState, err error) {
	if p.m != nil {
		p.m.errors.Inc()
	}
	p.mu.Lock()
	rs.alive = false
	rs.lastErr = err.Error()
	p.mu.Unlock()
}

// syncReplica handshakes with the standby and returns the next LSN to
// ship, bootstrapping from a checkpoint snapshot when the standby's
// position was already compacted away.
func (p *Primary) syncReplica(rs *replicaState) (uint64, error) {
	p.mu.Lock()
	inc := p.incarnation
	p.mu.Unlock()
	hr, err := rs.conn.Handshake(Hello{Site: p.name, Incarnation: inc, NextLSN: p.log.NextLSN()})
	if err != nil {
		return 0, err
	}
	if hr.Incarnation > inc {
		return 0, fmt.Errorf("standby at incarnation %d, we are %d: %w", hr.Incarnation, inc, grid.ErrFenced)
	}
	next := hr.NextLSN
	if next == 0 {
		next = 1
	}
	if next > p.log.NextLSN() {
		return 0, fmt.Errorf("%w (standby next %d, primary next %d)", ErrDiverged, next, p.log.NextLSN())
	}
	if next < p.log.OldestLSN() {
		snap, cover, err := p.bootstrapSnapshot()
		if err != nil {
			return 0, fmt.Errorf("bootstrap snapshot: %w", err)
		}
		ack, err := rs.conn.ApplySnapshot(Snapshot{Site: p.name, Incarnation: inc, Cover: cover, Data: snap})
		if err != nil {
			return 0, fmt.Errorf("bootstrap: %w", err)
		}
		if p.m != nil {
			p.m.snapshots.Inc()
		}
		p.advanceAck(rs, ack, 0)
		next = ack + 1
	}
	p.mu.Lock()
	rs.alive = true
	rs.lastErr = ""
	p.mu.Unlock()
	return next, nil
}

// bootstrapSnapshot returns a checkpoint image covering the whole log
// prefix a below-floor standby is missing, cutting a fresh checkpoint when
// none is cached.
func (p *Primary) bootstrapSnapshot() ([]byte, uint64, error) {
	p.mu.Lock()
	snap, cover := p.lastSnap, p.lastCover
	p.mu.Unlock()
	if snap == nil || cover+1 < p.log.OldestLSN() {
		// The cached image predates the retention floor (or never existed):
		// cut a fresh checkpoint, which recaches via p.Checkpoint.
		if err := p.site.Checkpoint(); err != nil {
			return nil, 0, err
		}
		p.mu.Lock()
		snap, cover = p.lastSnap, p.lastCover
		p.mu.Unlock()
	}
	if snap == nil {
		return nil, 0, errors.New("no checkpoint snapshot available")
	}
	return snap, cover, nil
}

// streamTo tails the log from next and ships batches until the stream
// breaks or the sender is stopped. Returns nil only on stop.
func (p *Primary) streamTo(rs *replicaState, next uint64) error {
	idle := time.NewTicker(streamIdlePoll)
	defer idle.Stop()
	p.mu.Lock()
	inc := p.incarnation
	p.mu.Unlock()
	for {
		select {
		case <-rs.stop:
			return nil
		default:
		}
		recs, err := p.log.ReadRecords(next, p.cfg.StreamBytes)
		if errors.Is(err, wal.ErrCompacted) {
			return errResync
		}
		if err != nil {
			return err
		}
		if len(recs) == 0 {
			select {
			case <-rs.stop:
				return nil
			case <-rs.notify:
			case <-idle.C:
			}
			continue
		}
		var bytes uint64
		for _, r := range recs {
			bytes += uint64(len(r))
		}
		var sp *obs.ActiveSpan
		if p.rec != nil {
			sp = p.rec.StartSpan("replica.stream.batch",
				slog.String("replica", rs.name),
				slog.Uint64("from", next),
				slog.Int("records", len(recs)))
		}
		ack, err := rs.conn.Append(Batch{Site: p.name, Incarnation: inc, From: next, Records: recs})
		if sp != nil {
			sp.Fail(err)
			sp.End()
		}
		if err != nil {
			return err
		}
		if ack < next-1 {
			return fmt.Errorf("replica %s acknowledged %d below batch start %d", rs.name, ack, next)
		}
		if p.m != nil {
			p.m.batches.Inc()
			p.m.records.Add(uint64(len(recs)))
			p.m.bytes.Add(bytes)
		}
		p.advanceAck(rs, ack, bytes)
		next = ack + 1
	}
}

// advanceAck moves a replica's acknowledged position and wakes semi-sync
// waiters.
func (p *Primary) advanceAck(rs *replicaState, ack uint64, bytes uint64) {
	p.mu.Lock()
	if ack > rs.acked {
		rs.acked = ack
	}
	rs.shipped += bytes
	p.mu.Unlock()
	p.cond.Broadcast()
}

var _ grid.BatchWAL = (*Primary)(nil)
