package replica

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"coalloc/internal/grid"
	"coalloc/internal/obs"
	"coalloc/internal/wal"
)

// StandbyConfig parameterizes NewStandby.
type StandbyConfig struct {
	// Dir is the standby's WAL directory; the log, the fencing incarnation,
	// and the promotion marker all live there.
	Dir string
	// WAL configures the standby's log (sync policy, segment size...).
	WAL wal.Options
	// Fresh builds the initial site when the directory holds no state yet.
	// The site's name must match the primary's — a standby is the same
	// logical site, one incarnation behind.
	Fresh func() (*grid.Site, error)
	// Registry, when non-nil, receives apply counters under "replica.".
	Registry *obs.Registry
	// Recorder, when non-nil, records a span per applied batch.
	Recorder *obs.Recorder
}

type standbyMetrics struct {
	batches    *obs.Counter
	records    *obs.Counter
	snapshots  *obs.Counter
	promotions *obs.Counter
	rejected   *obs.Counter
}

func newStandbyMetrics(reg *obs.Registry) *standbyMetrics {
	if reg == nil {
		return nil
	}
	m := &standbyMetrics{
		batches:    reg.Counter("replica.apply.batches"),
		records:    reg.Counter("replica.apply.records"),
		snapshots:  reg.Counter("replica.apply.snapshots"),
		promotions: reg.Counter("replica.promotions"),
		rejected:   reg.Counter("replica.apply.rejected"),
	}
	reg.Help("replica.apply.batches", "stream batches persisted and applied")
	reg.Help("replica.apply.records", "stream records persisted and applied")
	reg.Help("replica.apply.snapshots", "bootstrap snapshots applied")
	reg.Help("replica.promotions", "standby promotions to primary")
	reg.Help("replica.apply.rejected", "stream traffic refused (stale incarnation, wrong site, out of order)")
	return m
}

// Standby is the replica side of the stream: it persists batches into its
// own write-ahead log, applies them through grid's ReplayBatch, and
// acknowledges only what is durable locally. Promotion turns it into a
// primary under a fresh epoch salt and a bumped fencing incarnation.
type Standby struct {
	cfg StandbyConfig
	m   *standbyMetrics
	rec *obs.Recorder

	mu           sync.Mutex
	site         *grid.Site
	log          *wal.Log
	incarnation  uint64
	promoted     bool
	promoteCause string
	lastFailover int64 // unix seconds of the promotion; 0 before
	applied      uint64
}

// NewStandby recovers (or freshly creates) a standby from its directory.
// A node that was previously promoted boots as a primary — the durable
// promotion marker outlives the process — and a node whose log was sealed
// boots nothing: a sealed log belongs to a fenced zombie and must be
// rebuilt, not followed.
func NewStandby(cfg StandbyConfig) (*Standby, error) {
	if cfg.Fresh == nil {
		return nil, errors.New("replica: standby needs a Fresh site constructor")
	}
	log, rec, err := wal.Open(cfg.Dir, cfg.WAL)
	if err != nil {
		return nil, err
	}
	if rec.Sealed {
		log.Close()
		return nil, fmt.Errorf("replica: log in %s is sealed (%s): this node was fenced; wipe the directory to rebuild it as a standby", cfg.Dir, rec.SealInfo)
	}
	site, _, err := grid.RecoverSite(rec.Checkpoint, rec.Records, cfg.Fresh)
	if err != nil {
		log.Close()
		return nil, err
	}
	inc, err := LoadIncarnation(cfg.Dir)
	if err != nil {
		log.Close()
		return nil, err
	}
	sb := &Standby{
		cfg:         cfg,
		m:           newStandbyMetrics(cfg.Registry),
		rec:         cfg.Recorder,
		site:        site,
		log:         log,
		incarnation: inc,
	}
	if cause, ok := loadPromoted(cfg.Dir); ok {
		// Promoted before a restart: resume as a primary, never re-follow.
		sb.promoted = true
		sb.promoteCause = cause
		site.AttachWAL(log)
	} else {
		site.SetStandby(true)
	}
	site.SetReplicationStatus(sb.Status)
	return sb, nil
}

// Site returns the standby's site, for serving reads (and, after
// promotion, mutations).
func (sb *Standby) Site() *grid.Site { return sb.site }

// Log returns the standby's write-ahead log (owned by the standby; callers
// must not mutate it while the stream is live). A snapshot bootstrap
// replaces the log wholesale, so do not cache the pointer across stream
// activity.
func (sb *Standby) Log() *wal.Log {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.log
}

// Incarnation returns the standby's fencing number.
func (sb *Standby) Incarnation() uint64 {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.incarnation
}

// Promoted reports whether this node was promoted to primary.
func (sb *Standby) Promoted() bool {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.promoted
}

// streamOKLocked vets one piece of stream traffic: right site, live role,
// and an incarnation at least as new as any we have seen (newer ones are
// adopted durably before anything is acknowledged under them).
func (sb *Standby) streamOKLocked(site string, inc uint64) error {
	if sb.promoted {
		if sb.m != nil {
			sb.m.rejected.Inc()
		}
		return fmt.Errorf("replica %s: stream refused: standby promoted at incarnation %d: %w",
			sb.site.Name(), sb.incarnation, grid.ErrFenced)
	}
	if site != sb.site.Name() {
		if sb.m != nil {
			sb.m.rejected.Inc()
		}
		return fmt.Errorf("replica: stream for site %q reached standby for %q", site, sb.site.Name())
	}
	if inc < sb.incarnation {
		if sb.m != nil {
			sb.m.rejected.Inc()
		}
		return fmt.Errorf("replica %s: stream from stale incarnation %d (current %d): %w",
			sb.site.Name(), inc, sb.incarnation, grid.ErrFenced)
	}
	if inc > sb.incarnation {
		// Adopt durably first: acknowledging under an incarnation we could
		// forget in a crash would let an older primary back in later.
		if sb.cfg.Dir != "" {
			if err := StoreIncarnation(sb.cfg.Dir, inc); err != nil {
				return err
			}
		}
		sb.incarnation = inc
	}
	return nil
}

// Handshake answers a primary opening the stream: where to resume, and the
// standby's incarnation (so a stale primary learns it is fenced even when
// the positions happen to line up).
func (sb *Standby) Handshake(h Hello) (HelloReply, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if err := sb.streamOKLocked(h.Site, h.Incarnation); err != nil {
		return HelloReply{}, err
	}
	return HelloReply{NextLSN: sb.log.NextLSN(), Incarnation: sb.incarnation}, nil
}

// ApplyBatch persists one stream batch into the local log, applies it
// through the replay path (one site lock, one view: readers see the state
// before the batch or after it) and acknowledges the new durable position.
// Persist-then-apply mirrors recovery exactly: a standby that crashes
// between the two replays the batch at boot and converges to the same
// state.
func (sb *Standby) ApplyBatch(b Batch) (uint64, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if err := sb.streamOKLocked(b.Site, b.Incarnation); err != nil {
		return 0, err
	}
	next := sb.log.NextLSN()
	if b.From != next {
		if sb.m != nil {
			sb.m.rejected.Inc()
		}
		return 0, fmt.Errorf("replica %s: out of order batch (got %d, want %d)", sb.site.Name(), b.From, next)
	}
	if len(b.Records) == 0 {
		return next - 1, nil
	}
	var sp *obs.ActiveSpan
	if sb.rec != nil {
		sp = sb.rec.StartSpan("replica.apply.batch",
			slog.Uint64("from", b.From),
			slog.Int("records", len(b.Records)))
		defer sp.End()
	}
	if _, err := sb.log.AppendBatch(b.Records); err != nil {
		sp.Fail(err)
		return 0, fmt.Errorf("replica %s: persist batch: %w", sb.site.Name(), err)
	}
	n, err := sb.site.ReplayBatch(b.Records)
	sb.applied += uint64(n)
	if sb.m != nil {
		sb.m.records.Add(uint64(n))
	}
	if err != nil {
		// Persisted but not applicable: the histories disagree, which no
		// retry can fix. Fail the stream loudly for an operator.
		sp.Fail(err)
		return 0, fmt.Errorf("replica %s: apply batch at lsn %d: %w", sb.site.Name(), b.From+uint64(n), err)
	}
	if sb.m != nil {
		sb.m.batches.Inc()
	}
	return sb.log.NextLSN() - 1, nil
}

// ApplySnapshot replaces the standby's state wholesale with a primary
// checkpoint: the local log is wiped and re-seeded into the primary's LSN
// space, the snapshot becomes the local recovery baseline, and the site is
// rebuilt from it. Used when the standby's position was compacted away.
func (sb *Standby) ApplySnapshot(s Snapshot) (uint64, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if err := sb.streamOKLocked(s.Site, s.Incarnation); err != nil {
		return 0, err
	}
	sb.log.Close()
	if err := wipeWALFiles(sb.cfg.Dir); err != nil {
		return 0, fmt.Errorf("replica %s: wipe log for bootstrap: %w", sb.site.Name(), err)
	}
	log, _, err := wal.Open(sb.cfg.Dir, sb.cfg.WAL)
	if err != nil {
		return 0, fmt.Errorf("replica %s: reopen log: %w", sb.site.Name(), err)
	}
	if err := log.SetNextLSN(s.Cover + 1); err != nil {
		log.Close()
		return 0, err
	}
	if err := log.Checkpoint(s.Data); err != nil {
		log.Close()
		return 0, fmt.Errorf("replica %s: bootstrap checkpoint: %w", sb.site.Name(), err)
	}
	if err := sb.site.ResetFromSnapshot(bytes.NewReader(s.Data)); err != nil {
		log.Close()
		return 0, err
	}
	sb.site.SetStandby(true)
	sb.log = log
	if sb.m != nil {
		sb.m.snapshots.Inc()
	}
	return s.Cover, nil
}

// wipeWALFiles removes the log's on-disk artifacts (segments, checkpoints,
// seal marker) but keeps the replica bookkeeping files.
func wipeWALFiles(dir string) error {
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*"))
	if err != nil {
		return err
	}
	for _, m := range matches {
		if err := os.Remove(m); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return nil
}

// Promote turns the standby into a primary: the fencing incarnation is
// bumped and persisted (with a durable promotion marker, so a restart
// stays primary), the site is promoted under a fresh epoch salt, and the
// local log becomes the site's journal. Idempotent: promoting a promoted
// node returns the standing promotion. From this moment every stream
// append from the old primary is refused with a fencing error, which
// drives the zombie to seal its own log.
func (sb *Standby) Promote(cause string) (Promotion, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if sb.promoted {
		return Promotion{Epoch: sb.site.Epoch(), Incarnation: sb.incarnation}, nil
	}
	if c, fenced := sb.site.Fenced(); fenced {
		return Promotion{}, fmt.Errorf("replica %s: promote fenced site (%s): %w", sb.site.Name(), c, grid.ErrFenced)
	}
	inc := sb.incarnation + 1
	if sb.cfg.Dir != "" {
		if err := StoreIncarnation(sb.cfg.Dir, inc); err != nil {
			return Promotion{}, err
		}
		if err := storePromoted(sb.cfg.Dir, cause); err != nil {
			return Promotion{}, err
		}
	}
	epoch, err := sb.site.Promote()
	if err != nil {
		return Promotion{}, err
	}
	sb.incarnation = inc
	sb.promoted = true
	sb.promoteCause = cause
	sb.lastFailover = time.Now().Unix()
	sb.site.AttachWAL(sb.log)
	if sb.m != nil {
		sb.m.promotions.Inc()
	}
	return Promotion{Epoch: epoch, Incarnation: inc}, nil
}

// Checkpoint cuts a durable baseline of the standby's state into its own
// log, bounding its recovery replay. It takes the standby lock, so it
// cannot interleave with a batch between persist and apply — the site
// snapshot always matches the log position it covers. After promotion it
// delegates to the site's own checkpoint path.
func (sb *Standby) Checkpoint() error {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if sb.promoted {
		return sb.site.Checkpoint()
	}
	var buf bytes.Buffer
	if err := sb.site.Snapshot(&buf); err != nil {
		return err
	}
	return sb.log.Checkpoint(buf.Bytes())
}

// Close releases the standby's log.
func (sb *Standby) Close() error {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.log.Close()
}

// Status reports the node's replication state for Stats/statusz.
func (sb *Standby) Status() grid.ReplicationStatus {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	role := "standby"
	if sb.promoted {
		role = "primary"
	}
	if _, fenced := sb.site.Fenced(); fenced {
		role = "fenced"
	}
	return grid.ReplicationStatus{
		Role:             role,
		Incarnation:      sb.incarnation,
		NextLSN:          sb.log.NextLSN(),
		LastFailoverUnix: sb.lastFailover,
	}
}
