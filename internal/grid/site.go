// Package grid implements multi-site resource co-allocation: the setting of
// DUROC (Czajkowski/Foster/Kesselman) and the multi-site strategies of Zhang
// et al. that the paper positions itself against (§1). Each site runs the
// paper's online scheduler over its own servers; a broker co-allocates one
// job's servers across several sites **atomically** using a two-phase
// commit with leased holds:
//
//	Phase 1 (prepare): the broker asks each chosen site to reserve its share
//	  of the job for the same time window. A site that can, commits the
//	  servers into its calendar and records a *hold* with a lease deadline;
//	  a site that cannot, refuses.
//	Phase 2 (commit/abort): if every site prepared, the broker commits the
//	  holds (making them durable); otherwise it aborts them all and may
//	  retry the whole window Δt later, mirroring §4.2's retry loop.
//
// Holds that are neither committed nor aborted — a crashed broker, a lost
// message — expire when their lease passes, releasing the resources; sites
// therefore never deadlock waiting for a decision. Brokers prepare sites in
// a canonical order, so two brokers competing for overlapping site sets
// cannot deadlock either: the protocol's only failure mode is an abort.
//
// Read path / write path. A site splits its operations in two. Reads —
// Probe, RangeSearch, Stats — are served from an immutable epoch snapshot
// (siteView) published through an atomic pointer after each mutation batch,
// so any number of broker probes proceed concurrently without touching the
// site mutex (RCU-style: readers load the pointer, writers publish a fresh
// view). A view answers across clock steps: slot rotation never touches a
// slot inside the horizon, so a read at a later now gets the view's answer
// unless it crosses a pending hold's lease, looks past the view's horizon or
// asks about the past (viewFor). Writes — Prepare, Commit, Abort, and the few
// reads viewFor turns away — go through a bounded admission queue
// (submitWrite) that coalesces concurrently arriving mutations into one
// lock acquisition per batch. A journaled batch is applied under the site
// lock but made durable after it: its records, its view and its writers
// pass to a flush stage (durability.go) that group-commits everything
// applied while the previous fsync was in flight. A view is published only
// after the journal records it reflects are durable, so a reader can never
// observe state the log does not yet describe.
//
// All timestamps are simulation time supplied by the caller, which keeps
// the protocol deterministic and testable; a deployment would pass wall
// clock seconds.
package grid

import (
	"crypto/rand"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"coalloc/internal/calendar"
	"coalloc/internal/core"
	"coalloc/internal/job"
	"coalloc/internal/obs"
	"coalloc/internal/period"
)

// Hold identifies a prepared-but-undecided reservation on one site.
type Hold struct {
	ID      string
	Alloc   job.Allocation
	Expires period.Time
}

// maxWriteBatch bounds how many queued mutations one batch leader applies
// under a single lock acquisition. Small enough to bound any one caller's
// latency, large enough to amortize the lock and the view under load.
const maxWriteBatch = 64

// pendingWrite is one submitted mutation: exec runs under the site lock and
// may stage journal records; err carries exec's result (or the journal
// failure of the flush the write rode) back to the submitter. sp, when
// non-nil, is the submitter's trace span: the queue wait and the group-commit
// flush are recorded under it.
//
// done is what a submitter that must wait blocks on: a write queued behind a
// batch leader, or applied and parked behind a flush somebody else runs.
// Whoever closes it first sets role to say why: roleNone — the write is
// complete and err is final; roleLead — the previous leader handed over the
// admission queue, this write still unapplied; roleFlush — the previous
// flusher handed over the flush stage, this write's records still in it. A
// submitter that never has to wait (the uncontended case) has no channel.
type pendingWrite struct {
	exec     func() error
	err      error
	done     chan struct{}
	role     writeRole
	sp       *obs.ActiveSpan
	enqueued time.Time
}

// writeRole is why a waiting submitter was woken; see pendingWrite.
type writeRole uint8

const (
	roleNone writeRole = iota
	roleLead
	roleFlush
)

// wake hands a waiting submitter its role (roleNone: its write is complete).
// A submitter with no channel is the caller itself and needs no waking.
func (w *pendingWrite) wake(role writeRole) {
	if w.done != nil {
		w.role = role
		close(w.done)
	}
}

// siteView is one published epoch: the calendar's searchable state plus the
// protocol counters as of the end of a mutation batch. Immutable once
// published.
type siteView struct {
	cal calendar.View
	// epoch identifies the availability state this view answers for:
	// epochSalt + the calendar's mutation epoch. Two views with equal
	// epochs answer every probe and range search identically, so a broker
	// may reuse a cached answer for as long as the epoch stands still.
	epoch uint64
	// salt is the incarnation component of epoch, republished with every
	// view so watch events can carry it without taking the site lock.
	salt                                  uint64
	prepared, committed, aborted, expired uint64
	// leaseDue is the earliest lease deadline among the pending holds the
	// view was cut with (period.Infinity with none): from then on the live
	// site expires a hold, so the view answers only reads before it.
	leaseDue period.Time
	// lookupAttrs is the prebuilt cap==len attr slice for spans answered
	// from this view; the site and epoch are fixed per view, so probes on
	// the lock-free read path annotate their span without allocating.
	lookupAttrs []slog.Attr
}

// Site is one administrative domain: a named pool of servers managed by the
// paper's online scheduler, extended with prepare/commit/abort holds. It is
// safe for concurrent use; see the package comment for the read/write split.
type Site struct {
	mu        sync.Mutex
	name      string
	siteState // guarded by mu; written by apply alone (transition.go)

	// recorder is the site's flight recorder; see SetRecorder. Requests
	// arriving with trace context (TracedConn, wire trace fields) record
	// their site-side spans — view lookup, queue wait, WAL flush — into it
	// as fragments of the caller's trace. Atomic so it can be attached to a
	// serving site without a lock on the read path.
	recorder atomic.Pointer[obs.Recorder]
	// spanAttrs is the read-only cap==len attr slice shared by every span
	// fragment this site records; built once in NewSite.
	spanAttrs []slog.Attr

	// epochSalt offsets the calendar's mutation epoch in every published
	// view. The calendar counter restarts at the recovered value after a
	// WAL replay but at zero after a restore from an older snapshot; a
	// random per-incarnation salt keeps epochs from different lifetimes of
	// the "same" site disjoint, so a broker can never mistake a pre-restart
	// cache entry for current state. Within one incarnation the epoch is
	// strictly monotone. The salt is drawn so the epoch is never zero —
	// zero is the wire sentinel for "this site does not report epochs".
	epochSalt uint64

	// durability; see durability.go
	wal    WAL                   // optional journal; see AttachWAL. Written under mu and fmu, read under either
	walErr atomic.Pointer[error] // sticky journal failure: the site refuses mutations; see poison
	staged [][]byte              // encoded ops applied in memory this batch, not yet handed to the flush stage

	// flush stage; see durability.go. Lock order: mu, then fmu.
	fmu   sync.Mutex
	flist []flushItem // applied batches awaiting durability, in apply order
	fbusy bool        // a flusher owns the stage; len(flist) > 0 implies fbusy
	fidle sync.Cond   // on fmu; signalled when fbusy clears

	// replica role; see role.go. standbyFlag marks a standby applying the
	// primary's stream; fencedFlag marks a deposed primary that must never
	// mutate again. Atomics so the lock-free read path can consult them.
	standbyFlag atomic.Bool
	fencedFlag  atomic.Bool
	fenceCause  string // guarded by mu

	// replStatus, when set, supplies the replication section of Status():
	// internal/replica registers its Primary/Standby here. Atomic and
	// invoked before the site lock is taken, because the provider holds its
	// own locks and may call back into the site.
	replStatus atomic.Pointer[func() ReplicationStatus]

	// read path: the last published epoch. Never nil after NewSite/RestoreSite.
	view atomic.Pointer[siteView]

	// watchCh is the epoch-change broadcast, made by the first WaitEpoch
	// caller to park: install takes it out and closes it after storing the
	// new view, so a waiter that holds it and then re-checks the view can
	// never miss a publish. Nil while nobody waits.
	watchCh atomic.Pointer[chan struct{}]

	// write path: admission queue state (guarded by qmu, not mu).
	qmu   sync.Mutex
	queue []*pendingWrite
	qbusy bool // a batch leader is draining the queue
}

// NewSite creates a site with the given scheduler configuration, starting
// at time now.
func NewSite(name string, cfg core.Config, now period.Time) (*Site, error) {
	sched, err := core.New(cfg, now)
	if err != nil {
		return nil, err
	}
	s := &Site{
		name:      name,
		siteState: siteState{sched: sched, holds: make(map[string]Hold), committedHolds: make(map[string]Hold)},
		epochSalt: newEpochSalt(),
		// One shared cap==len attr slice for every span this site opens;
		// Annotate copies on append, so sharing is safe and saves an
		// allocation per request on the always-on tracing path.
		spanAttrs: []slog.Attr{slog.String("site", name)},
	}
	s.fidle.L = &s.fmu
	s.publishLocked()
	return s, nil
}

// newEpochSalt draws the per-incarnation epoch offset: random (so distinct
// site lifetimes occupy disjoint epoch ranges), nonzero, and small enough
// that salt + calendar epoch cannot wrap uint64 in any realistic lifetime.
func newEpochSalt() uint64 {
	var b [7]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to the boot instant, which still differs across restarts.
		return uint64(time.Now().UnixNano()) | 1
	}
	var salt uint64
	for _, x := range b {
		salt = salt<<8 | uint64(x)
	}
	return salt | 1
}

// SetRecorder attaches a flight recorder: from now on, requests carrying
// trace context record their site-side spans into it. Safe to call on a
// serving site.
func (s *Site) SetRecorder(rec *obs.Recorder) { s.recorder.Store(rec) }

// Recorder returns the attached flight recorder, or nil.
func (s *Site) Recorder() *obs.Recorder { return s.recorder.Load() }

// startSpan opens this site's local fragment of a remote trace. It returns
// nil — and every span operation downstream degrades to a nil check — when
// no recorder is attached or the request carried no trace context.
func (s *Site) startSpan(tc obs.SpanContext, name string) *obs.ActiveSpan {
	return s.recorder.Load().StartRemoteChild(tc, name, s.spanAttrs...)
}

// Name returns the site's identifier.
func (s *Site) Name() string { return s.name }

// Servers returns the site's capacity.
func (s *Site) Servers() int { return s.sched.Config().Servers }

// publishLocked captures and installs a fresh epoch view in one step. Called
// at construction, restore, replay, and at the end of every mutation batch
// that has nothing to wait for in the flush stage; the caller holds s.mu (or
// has exclusive access). A poisoned site never publishes: its memory is
// ahead of the durable state, and the read path must keep serving the last
// state the journal describes.
func (s *Site) publishLocked() {
	if s.poisoned() != nil {
		return
	}
	s.install(s.viewLocked())
}

// viewLocked captures the site's state as an immutable view (the calendar
// side is copy-on-write, so this is microseconds); the caller holds s.mu.
func (s *Site) viewLocked() *siteView {
	// A write that moved neither calendar nor clock (a commit) keeps its
	// view; a reset from a snapshot redraws the salt, so it never does.
	var cv calendar.View
	if old := s.view.Load(); old != nil && old.salt == s.epochSalt &&
		old.cal.Epoch() == s.sched.MutationEpoch() && old.cal.Now() == s.sched.Now() {
		cv = old.cal
	} else {
		cv = s.sched.PublishView()
	}
	epoch := s.epochSalt + cv.Epoch()
	leaseDue := period.Infinity
	for _, h := range s.holds {
		leaseDue = min(leaseDue, h.Expires)
	}
	return &siteView{
		cal:         cv,
		epoch:       epoch,
		salt:        s.epochSalt,
		prepared:    s.prepared,
		committed:   s.committed,
		aborted:     s.aborted,
		expired:     s.expired,
		leaseDue:    leaseDue,
		lookupAttrs: []slog.Attr{slog.String("site", s.name), slog.Uint64("epoch", epoch)},
	}
}

// install makes v the view readers see. Installs are serialized — by s.mu
// while the flush stage is idle, by the stage's single flusher otherwise —
// and always in apply order.
func (s *Site) install(v *siteView) {
	s.view.Store(v)
	// Wake epoch watchers only after the new view is visible: a waiter that
	// holds the channel re-checks the view before blocking, so the
	// store-then-close order guarantees it either sees this epoch or gets
	// the close.
	if ch := s.watchCh.Swap(nil); ch != nil {
		close(*ch)
	}
}

// WaitEpoch blocks until the site's published epoch differs from after, or
// timeout elapses. It returns the current epoch, the incarnation salt, the
// site clock, and whether the epoch differs from after. A caller passing
// after=0 gets the current epoch immediately (published epochs are never
// zero), which is how a watch subscription establishes its baseline. This
// is the server half of the wire watch long-poll: cheap to park (one
// channel receive, no lock) and woken by publishLocked the instant a
// mutation batch publishes.
func (s *Site) WaitEpoch(after uint64, timeout time.Duration) (epoch, salt uint64, siteNow period.Time, changed bool) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		// Hold the channel, making it if nobody waits yet, before loading the
		// view: if a publish lands between the two we see its view (return
		// now); if it lands after, it closes the channel we hold.
		chp := s.watchCh.Load()
		if chp == nil {
			ch := make(chan struct{})
			s.watchCh.CompareAndSwap(nil, &ch) // or another waiter's is there
			continue
		}
		v := s.view.Load()
		if v.epoch != after {
			return v.epoch, v.salt, v.cal.Now(), true
		}
		select {
		case <-*chp:
		case <-timer.C:
			return v.epoch, v.salt, v.cal.Now(), false
		}
	}
}

// submitWrite runs exec through the admission queue. The first submitter to
// find the queue idle becomes the batch leader: it applies its own write and
// whatever queued up behind it under one lock acquisition ending in one
// view. Followers enqueue and block until their write completes — or until
// the leader, done with its batch, makes the first of them the next leader.
// exec runs with s.mu held and must not block.
func (s *Site) submitWrite(exec func() error) error { return s.submitWriteTraced(nil, exec) }

// submitWriteTraced is submitWrite with the submitter's span attached, so
// the queue wait and the group-commit flush are recorded under it.
//
// A submitter holds at most one role at a time: it leads the admission
// queue, or runs the flush stage, or is parked on its done channel until
// somebody completes its write or hands it a role. The uncontended
// submitter leads, completes its own write and returns without ever
// allocating or touching a channel.
func (s *Site) submitWriteTraced(sp *obs.ActiveSpan, exec func() error) error {
	w := &pendingWrite{exec: exec, sp: sp}
	if sp != nil {
		w.enqueued = time.Now()
	}
	role := roleLead
	s.qmu.Lock()
	if s.qbusy {
		w.done = make(chan struct{})
		s.queue = append(s.queue, w)
		role = roleNone
	} else {
		s.qbusy = true
	}
	s.qmu.Unlock()
	for {
		switch role {
		case roleLead:
			s.leadWrites(w)
		case roleFlush:
			s.flush()
		}
		if w.done == nil {
			return w.err
		}
		<-w.done
		if role = w.role; role == roleNone {
			return w.err
		}
		w.done = nil
	}
}

// leadWrites is the batch leader's turn: apply w together with whatever has
// queued up behind it (bounded, so no one caller's latency is hostage to the
// queue), then pass the queue to the next queued writer. Leading is one
// batch long because a leader whose own write ends up parked in the flush
// stage may be handed that stage, and must then be waiting for it — not
// blocked on s.mu behind a Checkpoint that is itself waiting for the stage
// to drain. For the same reason the queue is passed on before a flush this
// leader claimed: the flush blocks on the disk, and the next batch's apply
// must not wait for it (I6).
func (s *Site) leadWrites(w *pendingWrite) {
	own := [1]*pendingWrite{w}
	batch := own[:]
	s.qmu.Lock()
	if n := min(len(s.queue), maxWriteBatch-1); n > 0 {
		batch = append(batch, s.queue[:n]...)
		s.queue = s.queue[n:]
	}
	s.qmu.Unlock()
	flusher := s.applyBatch(batch)
	s.qmu.Lock()
	if len(s.queue) == 0 {
		s.queue = nil
		s.qbusy = false
	} else {
		next := s.queue[0]
		s.queue = s.queue[1:]
		next.wake(roleLead)
	}
	s.qmu.Unlock()
	if flusher {
		s.flush()
	}
}

// applyBatch applies one batch of mutations under a single lock acquisition:
// every exec runs back to back, then the batch either completes on the spot
// (nothing to make durable and nothing ahead of it in the flush stage: one
// fresh view, every writer woken) or is parked in the flush stage, which
// completes it once its records are durable. It reports whether the caller
// claimed the flush stage and must now run it.
func (s *Site) applyBatch(batch []*pendingWrite) bool {
	traced := false
	for _, w := range batch {
		if w.sp != nil {
			traced = true
			break
		}
	}
	s.mu.Lock()
	if traced {
		// Queue wait: from enqueue to the moment the batch holds the lock.
		lockAt := time.Now()
		for _, w := range batch {
			if w.sp != nil {
				w.sp.Record("site.queue.wait", w.enqueued, lockAt, slog.Int("batch", len(batch)))
			}
		}
	}
	for _, w := range batch {
		w.err = w.exec()
	}
	flusher, parked := s.stageBatchLocked(batch)
	s.mu.Unlock()
	if !parked {
		for _, w := range batch {
			w.wake(roleNone)
		}
	}
	return flusher
}

// advanceLocked moves the site clock and lazily expires stale holds: the
// broker never decided, so the lease is released. Each expiry is a mutation,
// applied and journaled like any other. Once the journal has failed the site
// freezes instead, so memory drifts no further from durable state.
func (s *Site) advanceLocked(now period.Time) {
	if s.poisoned() != nil {
		return
	}
	for _, h := range s.advance(now) {
		_ = s.applyLocked(Op{Kind: OpExpire, Now: now, HoldID: h.ID})
	}
}

// admitLocked is the head of every live mutation: the role check, the clock
// step, the poison check. What follows decides — and may still refuse — then
// hands the Op it produced to applyLocked.
func (s *Site) admitLocked(now period.Time) error {
	if err := s.roleOKLocked(); err != nil {
		return err
	}
	s.advanceLocked(now)
	return s.walOKLocked()
}

// applyLocked is the tail of every live mutation: apply the decided Op and
// stage it for the journal, stamped with the post-operation scheduler
// counters; append failures surface in the flush stage. An op whose release
// the calendar refused is staged too: the hold is gone either way, and replay
// takes the same path.
func (s *Site) applyLocked(op Op) error {
	err := s.apply(op, false)
	if s.wal != nil && (err == nil || errors.Is(err, errReleaseRefused)) {
		op.SchedStats, op.SchedOps = s.sched.Stats(), s.sched.Ops()
		s.staged = append(s.staged, EncodeOp(op))
	}
	if err != nil {
		return fmt.Errorf("grid %s: %w", s.name, err)
	}
	return nil
}

// viewFor is the read path's one predicate: it returns the published view
// when that view answers a read of [start, end) at now, with the site clock to
// report beside the answer, and nil when the read must ride the write queue.
// A view answers every read at or before its own instant, and every read on
// a standby or fenced site, whose clock only the replicated stream may move.
// It also answers at a later now: rotation (§4.1) retires the slots behind
// now and fills the ones entering the horizon and touches no other, so a
// window inside both horizons reads the same either side of any clock step
// (calendar's TestViewAnswersAcrossAdvance) — provided no pending hold's
// lease lapses on the way, which would be a mutation. The rotation such a
// probe used to do is left to the write that follows it.
func (s *Site) viewFor(now, start, end period.Time) (*siteView, period.Time) {
	v := s.view.Load()
	if v == nil {
		return nil, 0
	}
	switch vnow := v.cal.Now(); {
	case now <= vnow || s.readsFrozen():
		return v, vnow
	case now < v.leaseDue && start >= now && end <= v.cal.HorizonEnd():
		return v, now
	}
	return nil, 0
}

// Probe reports how many servers the site could co-allocate over
// [start, end) as of now, without committing anything; see ProbeView.
func (s *Site) Probe(now, start, end period.Time) int {
	n, _, _ := s.ProbeView(now, start, end)
	return n
}

// ProbeView is Probe extended with the metadata a caching broker needs: the
// epoch the answer was computed at and the site clock it is valid through.
// An answer may be reused for any later probe whose now does not exceed
// siteNow, for as long as the site keeps reporting the same epoch; the first
// mutation (or slot rotation) bumps the epoch and retires every answer
// computed before it. Served lock-free from the published view, at that
// view's epoch, whenever viewFor says the view answers it; a probe that
// crosses a lease expiry, looks past the view's horizon or asks about the
// past rides the write queue and reports the post-advance epoch.
func (s *Site) ProbeView(now, start, end period.Time) (n int, epoch uint64, siteNow period.Time) {
	return s.ProbeViewTraced(obs.SpanContext{}, now, start, end)
}

// ProbeViewTraced is ProbeView recording the site's side of the work as a
// fragment of the caller's trace: a lock-free answer is a single
// view-lookup span stamped with the answering epoch, a clock-moving
// answer records its admission-queue ride.
func (s *Site) ProbeViewTraced(tc obs.SpanContext, now, start, end period.Time) (n int, epoch uint64, siteNow period.Time) {
	if v, siteNow := s.viewFor(now, start, end); v != nil {
		// The view lookup is the whole request here, so the fragment is one
		// span admitted directly — no traceBuf, no handle — stamped with
		// the epoch of the view that answered. Probes are the federation's
		// hot path; this is the cheapest always-on tracing the recorder has.
		if rec := s.recorder.Load(); rec != nil && tc.Valid() {
			t0 := time.Now()
			n = v.cal.Available(start, end)
			rec.RecordRemoteSpan(tc, "site.probe", t0, time.Now(), v.lookupAttrs...)
			return n, v.epoch, siteNow
		}
		return v.cal.Available(start, end), v.epoch, siteNow
	}
	sp := s.startSpan(tc, "site.probe")
	sp.Annotate(slog.Bool("clock_advance", true))
	var r ProbeResult // declared here, so the view path leaves nothing on the heap
	_ = s.submitWriteTraced(sp, func() error {
		s.advanceLocked(now)
		r = ProbeResult{Available: s.sched.Available(start, end), Epoch: s.epochSalt + s.sched.MutationEpoch(), SiteNow: s.sched.Now()}
		return nil
	})
	sp.End()
	return r.Available, r.Epoch, r.SiteNow
}

// RangeSearchView is RangeSearch extended with the same cacheability
// metadata as ProbeView.
func (s *Site) RangeSearchView(now, start, end period.Time) (feasible []period.Period, epoch uint64, siteNow period.Time) {
	return s.RangeSearchViewTraced(obs.SpanContext{}, now, start, end)
}

// RangeSearchViewTraced is RangeSearchView as a fragment of the caller's
// trace, mirroring ProbeViewTraced.
func (s *Site) RangeSearchViewTraced(tc obs.SpanContext, now, start, end period.Time) (feasible []period.Period, epoch uint64, siteNow period.Time) {
	if v, siteNow := s.viewFor(now, start, end); v != nil {
		if rec := s.recorder.Load(); rec != nil && tc.Valid() {
			t0 := time.Now()
			feasible = v.cal.RangeSearch(start, end)
			rec.RecordRemoteSpan(tc, "site.range", t0, time.Now(), v.lookupAttrs...)
			return feasible, v.epoch, siteNow
		}
		return v.cal.RangeSearch(start, end), v.epoch, siteNow
	}
	sp := s.startSpan(tc, "site.range")
	sp.Annotate(slog.Bool("clock_advance", true))
	var r RangeResult // declared here, so the view path leaves nothing on the heap
	_ = s.submitWriteTraced(sp, func() error {
		s.advanceLocked(now)
		r = RangeResult{Feasible: s.sched.RangeSearch(start, end), Epoch: s.epochSalt + s.sched.MutationEpoch(), SiteNow: s.sched.Now()}
		return nil
	})
	sp.End()
	return r.Feasible, r.Epoch, r.SiteNow
}

// Epoch returns the site's current availability epoch, as of the last
// published view.
func (s *Site) Epoch() uint64 {
	if v := s.view.Load(); v != nil {
		return v.epoch
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epochSalt + s.sched.MutationEpoch()
}

// RangeSearch returns every idle period feasible for [start, end) as of now
// without committing anything — the user-facing range search of §4.2; see
// RangeSearchView.
func (s *Site) RangeSearch(now, start, end period.Time) []period.Period {
	feasible, _, _ := s.RangeSearchView(now, start, end)
	return feasible
}

// Prepare attempts to reserve `servers` servers over [start, end) under the
// given hold ID, leased until now+lease. On success the servers are
// committed in the site calendar but remain revocable until Commit or lease
// expiry.
func (s *Site) Prepare(now period.Time, holdID string, start, end period.Time, servers int, lease period.Duration) ([]int, error) {
	return s.PrepareTraced(obs.SpanContext{}, now, holdID, start, end, servers, lease)
}

// PrepareTraced is Prepare recording the site's side — queue wait, journal
// flush — as a fragment of the caller's trace, parented under the broker's
// prepare span.
func (s *Site) PrepareTraced(tc obs.SpanContext, now period.Time, holdID string, start, end period.Time, servers int, lease period.Duration) ([]int, error) {
	return s.PrepareConflictTraced(tc, now, holdID, start, end, servers, lease, 0)
}

// PrepareConflictTraced is PrepareTraced for callers that probed first:
// probedEpoch is the site epoch their availability answer was computed at
// (zero when unknown, degrading to plain PrepareTraced). When the scheduler
// refuses the window for capacity and the site's epoch has moved past
// probedEpoch, the refusal is classified as a *ConflictError — the servers
// were (as far as the caller knew) free at probe time and were taken since,
// so the same window may succeed with a different split. A refusal at an
// unmoved epoch means the probe itself overstated what this exact window
// can hold (or the caller over-asked) and stays a plain error: retrying
// without new information cannot help. So does a refusal at an epoch only
// this prepare's own clock step moved: a view-served probe reports the
// pre-rotation epoch, and a rotation takes no server from anybody.
func (s *Site) PrepareConflictTraced(tc obs.SpanContext, now period.Time, holdID string, start, end period.Time, servers int, lease period.Duration, probedEpoch uint64) ([]int, error) {
	if holdID == "" || servers <= 0 || end <= start || lease <= 0 {
		return nil, fmt.Errorf("grid %s: invalid prepare (hold %q, %d servers, [%d,%d), lease %d)",
			s.name, holdID, servers, start, end, lease)
	}
	sp := s.startSpan(tc, "site.prepare")
	if sp != nil { // the attrs would escape to the heap even for a nil span
		sp.Annotate(slog.String("hold", holdID), slog.Int("servers", servers))
	}
	var granted []int
	err := s.submitWriteTraced(sp, func() error {
		// What the probe saw is what this prepare finds, unless the epoch
		// moved before it arrived or its own clock step expires a lease.
		arrived, expired := s.epochSalt+s.sched.MutationEpoch(), s.expired
		if err := s.admitLocked(now); err != nil {
			return err
		}
		if pending, decided := s.lookupLocked(holdID); pending || decided {
			return fmt.Errorf("grid %s: hold %q already exists", s.name, holdID)
		}
		if start < now {
			return fmt.Errorf("grid %s: window start %d in the past (now %d)", s.name, start, now)
		}
		// One shot at the exact window — cross-site atomicity requires every
		// site to grant the same window, so the retry loop lives in the broker.
		alloc, err := s.sched.Submit(job.Request{
			ID:       holdLocalID(holdID),
			Submit:   now,
			Start:    start,
			Duration: period.Duration(end - start),
			Servers:  servers,
			Deadline: end, // forbid the scheduler from sliding the start
		})
		if err != nil {
			if probedEpoch != 0 && (arrived != probedEpoch || s.expired != expired) && errors.Is(err, core.ErrRejected) {
				return &ConflictError{Site: s.name, Epoch: s.epochSalt + s.sched.MutationEpoch(), Err: err}
			}
			return fmt.Errorf("grid %s: cannot prepare %d servers at [%d,%d): %w", s.name, servers, start, end, err)
		}
		granted = alloc.Servers
		op := Op{Kind: OpPrepare, Now: now, HoldID: holdID, Alloc: alloc, Expires: now.Add(lease)}
		return s.applyLocked(op)
	})
	sp.Fail(err)
	sp.End()
	if err != nil {
		return nil, err
	}
	return granted, nil
}

// holdLocalID derives a stable numeric job id from a hold id for the local
// scheduler's bookkeeping.
func holdLocalID(holdID string) int64 {
	var h uint64 = 14695981039346656037 // FNV-1a
	for i := 0; i < len(holdID); i++ {
		h ^= uint64(holdID[i])
		h *= 1099511628211
	}
	return int64(h >> 1)
}

// Commit makes a prepared hold durable. Committing an unknown or expired
// hold returns an error — the broker treats that as a protocol violation.
// The hold is remembered until its window ends so a partial cross-site
// commit can still be compensated by Abort.
func (s *Site) Commit(now period.Time, holdID string) error {
	return s.CommitTraced(obs.SpanContext{}, now, holdID)
}

// CommitTraced is Commit as a fragment of the caller's trace.
func (s *Site) CommitTraced(tc obs.SpanContext, now period.Time, holdID string) error {
	sp := s.startSpan(tc, "site.commit")
	if sp != nil {
		sp.Annotate(slog.String("hold", holdID))
	}
	err := s.submitWriteTraced(sp, func() error {
		if err := s.admitLocked(now); err != nil {
			return err
		}
		return s.applyLocked(Op{Kind: OpCommit, Now: now, HoldID: holdID})
	})
	sp.Fail(err)
	sp.End()
	return err
}

// Abort releases a hold. A prepared hold is cancelled outright; a hold that
// was already committed (a broker compensating a partial cross-site commit)
// is released from now on — capacity the job consumed before the abort is
// gone, the rest returns to the pool. Aborting an unknown hold is a no-op
// (the lease may already have expired), matching presumed-abort 2PC.
func (s *Site) Abort(now period.Time, holdID string) error {
	return s.AbortTraced(obs.SpanContext{}, now, holdID)
}

// AbortTraced is Abort as a fragment of the caller's trace.
func (s *Site) AbortTraced(tc obs.SpanContext, now period.Time, holdID string) error {
	sp := s.startSpan(tc, "site.abort")
	sp.Annotate(slog.String("hold", holdID))
	err := s.submitWriteTraced(sp, func() error {
		if err := s.admitLocked(now); err != nil {
			return err
		}
		pending, decided := s.lookupLocked(holdID)
		if !pending && !decided {
			return nil
		}
		return s.applyLocked(Op{Kind: OpAbort, Now: now, HoldID: holdID})
	})
	sp.Fail(err)
	sp.End()
	return err
}

// Stats reports the site's protocol counters as of the last published
// epoch, lock-free.
func (s *Site) Stats() (prepared, committed, aborted, expired uint64) {
	if v := s.view.Load(); v != nil {
		return v.prepared, v.committed, v.aborted, v.expired
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.prepared, s.committed, s.aborted, s.expired
}

// PendingHolds returns the number of undecided holds. It reads the live
// state under the lock, not the epoch view: on a poisoned site memory runs
// ahead of the durable epoch, and operators debugging that state need to
// see the unacknowledged holds.
func (s *Site) PendingHolds() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.holds)
}

// Utilization reports committed capacity over [a, b).
func (s *Site) Utilization(a, b period.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sched.Utilization(a, b)
}
