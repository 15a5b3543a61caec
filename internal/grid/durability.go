package grid

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"coalloc/internal/core"
	"coalloc/internal/job"
	"coalloc/internal/period"
)

// Durability. A site holds commitments far into the future — advance
// reservations over the whole scheduling horizon plus prepared-but-undecided
// 2PC holds — so losing state on a crash silently breaks every promised
// co-allocation. With a write-ahead log attached (AttachWAL), the site
// journals every state mutation as an Op record at the moment it applies;
// recovery restores the latest checkpoint (a full Snapshot) and replays the
// records after it (ReplayBatch), reconstructing the exact pre-crash state.
//
// The contract is append-before-acknowledge: a mutation is applied in
// memory, journaled, and only then acknowledged to the caller. If the
// journal append fails the mutation is NOT acknowledged and the site poisons
// itself — every later mutation is refused — because memory is now ahead of
// the durable state and only a restart (which recovers the durable prefix)
// can reconcile them. For 2PC this is exactly presumed abort: the broker
// never saw the prepare succeed, times out, and aborts; the recovered site
// has no trace of the hold.
//
// The write path has three steps, and only the first holds the site lock:
//
//	apply   under s.mu the batch's execs run, each encoding the records of
//	        what it changed into s.staged (applyLocked); the batch then
//	        captures its view and appends (records, view, writers) to the
//	        flush list — still under s.mu, so list order is apply order.
//	flush   outside s.mu one flusher at a time takes the WHOLE list and
//	        appends the concatenated records as one group commit (a single
//	        AppendBatch when the log is a BatchWAL, else record by record).
//	        Batches applied while that append is on its way to the disk — and
//	        to the semi-sync standby — pile up behind it and ride the next
//	        one: group size grows with concurrency, not with latency.
//	install the flusher installs the view of the last batch it flushed and
//	        wakes every writer it carried.
//
// Whoever appends to an idle flush stage becomes its flusher; a flusher that
// finds more work after its round hands the stage to one of the writers
// waiting in it and returns, so nobody's reply waits for a flush that does
// not carry their records. There is no goroutine per site. A batch that
// staged nothing while the stage is idle — every batch of a site with no
// journal — skips the stage: it publishes and completes under the lock.
//
// Invariants (each has a test named for it in flush_test.go):
//
//	I1  journal order is apply order.
//	I2  a writer is acknowledged only after its own records are durable
//	    (and, on a semi-sync primary, acknowledged by the standby).
//	I3  a view is installed only after every record it reflects is durable.
//	I4  Checkpoint drains the flush stage while holding s.mu before it
//	    snapshots, so no record is both inside a checkpoint and after it.
//	I5  a flush failure poisons the site, fails every writer in or behind
//	    that flush, and no later view is ever installed.
//	I6  nothing blocks in WAL.Append* while holding s.mu.

// OpKind enumerates the journaled site mutations.
type OpKind uint8

const (
	// OpPrepare reserves servers under a leased hold (2PC phase 1).
	OpPrepare OpKind = iota + 1
	// OpCommit makes a prepared hold durable (2PC phase 2).
	OpCommit
	// OpAbort releases a prepared hold (2PC phase 2).
	OpAbort
	// OpExpire releases a hold whose lease lapsed with no decision.
	OpExpire
)

// String names the op for reports and errors.
func (k OpKind) String() string {
	switch k {
	case OpPrepare:
		return "prepare"
	case OpCommit:
		return "commit"
	case OpAbort:
		return "abort"
	case OpExpire:
		return "expire"
	}
	return fmt.Sprintf("opkind(%d)", uint8(k))
}

// Op is one journaled site mutation. Alloc and Expires are meaningful for
// OpPrepare only: the record stores the *granted* allocation rather than the
// request, so replay re-commits exactly the servers the scheduler chose and
// never re-runs the (policy-dependent) search.
//
// SchedStats and SchedOps are the post-operation values of the scheduler's
// history-dependent counters; see internal/core/replay.go for why replay
// must reinstate rather than recompute them.
type Op struct {
	Kind    OpKind
	Now     period.Time
	HoldID  string
	Alloc   job.Allocation
	Expires period.Time

	SchedStats core.Stats
	SchedOps   uint64
}

// WAL is the durability surface a site journals through; internal/wal's Log
// satisfies it. Append persists one record and returns its sequence number;
// Checkpoint makes snapshot the new recovery baseline, superseding every
// record appended so far.
type WAL interface {
	Append(record []byte) (lsn uint64, err error)
	Checkpoint(snapshot []byte) error
}

// BatchWAL is the optional group-commit upgrade: AppendBatch persists the
// records in order with a single durability round (one fsync under
// SyncAlways). internal/wal's Log implements it; a WAL that does not is
// driven record by record.
type BatchWAL interface {
	WAL
	AppendBatch(records [][]byte) (lsn uint64, err error)
}

// ErrNoWAL is returned by Checkpoint when the site has no log attached.
var ErrNoWAL = errors.New("grid: no write-ahead log attached")

// AttachWAL installs the site's journal. Call it after recovery (RecoverSite)
// and before serving traffic; mutations from then on are journaled.
func (s *Site) AttachWAL(w WAL) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fmu.Lock()
	defer s.fmu.Unlock()
	s.wal = w
}

// poisoned returns the sticky journal failure, if any. It is an atomic
// because the flusher that hits the failure does not hold s.mu.
func (s *Site) poisoned() error {
	if p := s.walErr.Load(); p != nil {
		return *p
	}
	return nil
}

// poison records the first journal failure: memory is now ahead of the
// durable state and stays frozen until a restart recovers the durable prefix.
func (s *Site) poison(err error) { s.walErr.CompareAndSwap(nil, &err) }

// walOKLocked reports the sticky journal failure, if any.
func (s *Site) walOKLocked() error {
	if err := s.poisoned(); err != nil {
		return fmt.Errorf("grid %s: write-ahead log failed, restart to recover: %w", s.name, err)
	}
	return nil
}

// flushItem is one applied batch awaiting durability: the records its execs
// staged (possibly none: a batch applied behind an unfinished flush must not
// publish before it, I3), the view captured when it was applied, and the
// writers to wake once both are safe.
type flushItem struct {
	recs    [][]byte
	view    *siteView
	waiters []*pendingWrite
}

// stageBatchLocked ends a batch's apply step; the caller holds s.mu. Either
// the batch completes here — it staged nothing (a site with no journal never
// does) and the flush stage is idle, so its view can be published at once —
// or it is parked on the flush list. A batch parked on an idle stage claims
// it: flusher tells the caller to run flush once it has released s.mu.
// Everybody else who parks has a flusher ahead of them and waits to be woken.
func (s *Site) stageBatchLocked(batch []*pendingWrite) (flusher, parked bool) {
	recs := s.staged
	s.staged = nil
	s.fmu.Lock()
	defer s.fmu.Unlock()
	if err := s.poisoned(); err != nil && len(recs) > 0 {
		// A flush failed while this batch was applying. Its records can no
		// longer follow the ones that were lost: same verdict as theirs (I5).
		failWrites(batch, s.journalErr(err))
		return false, false
	}
	if !s.fbusy && len(recs) == 0 {
		s.publishLocked()
		return false, false
	}
	s.flist = append(s.flist, flushItem{recs: recs, view: s.viewLocked(), waiters: append([]*pendingWrite(nil), batch...)})
	if !s.fbusy {
		s.fbusy = true
		return true, true
	}
	for _, w := range batch {
		if w.done == nil {
			w.done = make(chan struct{}) // the leader's own write: now it has to wait
		}
	}
	return false, true
}

// journalErr wraps a flush failure for the writers it fails.
func (s *Site) journalErr(err error) error {
	return fmt.Errorf("grid %s: journal append: %w", s.name, err)
}

// failWrites reports err to every writer whose exec had succeeded, honoring
// append-before-acknowledge: no mutation is acknowledged unless its record
// is durable. Writers whose exec refused keep their own error.
func failWrites(ws []*pendingWrite, err error) {
	for _, w := range ws {
		if w.err == nil {
			w.err = err
		}
	}
}

// flush runs one round of the flush stage; the caller owns it (fbusy). It
// takes everything on the list, makes it durable with one group commit,
// installs the newest view and wakes the writers. If more was parked in the
// meantime the stage passes to one of those writers — whose own records are
// in the next round — and otherwise goes idle.
func (s *Site) flush() {
	s.fmu.Lock()
	items := s.flist
	s.flist = nil
	wal := s.wal
	s.fmu.Unlock()

	recs := items[0].recs
	traced := false
	for i, it := range items {
		if i > 0 {
			recs = append(recs, it.recs...)
		}
		for _, w := range it.waiters {
			traced = traced || w.sp != nil
		}
	}
	var f0 time.Time
	if traced && len(recs) > 0 {
		f0 = time.Now()
	}
	if err := appendRecords(wal, recs); err != nil {
		s.failFlush(items, err)
		return
	}
	if !f0.IsZero() {
		// One group commit shared by every writer it carried; each traced
		// write gets its own copy of the span (it paid the full wait).
		f1 := time.Now()
		for _, it := range items {
			for _, w := range it.waiters {
				if w.sp != nil {
					w.sp.Record("site.wal.flush", f0, f1, slog.Int("records", len(recs)))
				}
			}
		}
	}
	s.install(items[len(items)-1].view)
	for _, it := range items {
		for _, w := range it.waiters {
			w.wake(roleNone)
		}
	}

	s.fmu.Lock()
	if len(s.flist) == 0 {
		s.fbusy = false
		s.fidle.Broadcast()
		s.fmu.Unlock()
		return
	}
	// Everything on the list was parked behind this round, so each of its
	// writers is blocked on a channel; the first takes over.
	next := s.flist[0].waiters[0]
	s.fmu.Unlock()
	next.wake(roleFlush)
}

// appendRecords makes recs durable through the journal seam: one AppendBatch
// when the log can group-commit, otherwise record by record, in order.
func appendRecords(wal WAL, recs [][]byte) error {
	if bw, ok := wal.(BatchWAL); ok && len(recs) > 1 {
		_, err := bw.AppendBatch(recs)
		return err
	}
	for _, rec := range recs {
		if _, err := wal.Append(rec); err != nil {
			return err
		}
	}
	return nil
}

// failFlush is I5: the site is poisoned before the stage is released, so a
// batch that parks after this sees the poison and a batch that parked before
// it is failed here; no view is installed, now or later.
func (s *Site) failFlush(items []flushItem, err error) {
	s.poison(err)
	s.fmu.Lock()
	items = append(items, s.flist...)
	s.flist = nil
	s.fbusy = false
	s.fidle.Broadcast()
	s.fmu.Unlock()
	err = s.journalErr(err)
	for _, it := range items {
		failWrites(it.waiters, err)
		for _, w := range it.waiters {
			w.wake(roleNone)
		}
	}
}

// Checkpoint writes a full site snapshot into the attached log as the new
// recovery baseline, letting the log truncate every segment the snapshot
// covers. It holds the site lock across snapshot and checkpoint so no
// mutation can slip between them and be wrongly truncated, and first waits
// out the flush stage (I4): a batch already applied but not yet appended
// would otherwise be inside the snapshot and again after it in the log.
// Nothing can be parked while s.mu is held and a flusher needs no site
// lock to finish, so the wait is one flush long.
func (s *Site) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return ErrNoWAL
	}
	s.fmu.Lock()
	for s.fbusy {
		s.fidle.Wait()
	}
	s.fmu.Unlock()
	if err := s.walOKLocked(); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := s.snapshotLocked(&buf); err != nil {
		return err
	}
	if err := s.wal.Checkpoint(buf.Bytes()); err != nil {
		s.poison(err)
		return fmt.Errorf("grid %s: checkpoint: %w", s.name, err)
	}
	return nil
}

// ReplayBatch applies journal records, in order, through the transition
// function the live path uses (siteState.apply) — recovery before AttachWAL,
// a standby for each shipped batch — under one lock acquisition ending in
// one published view. The scheduler counters each record carries are
// reinstated as it applies, so the replayed site's snapshot is byte-identical
// to the state the journal describes. It returns how many records applied;
// the error names the first that did not: the journal and the state it is
// replayed onto disagree, which no retry can fix.
func (s *Site) ReplayBatch(records [][]byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.publishLocked()
	for i, rec := range records {
		op, err := DecodeOp(rec)
		if err == nil {
			err = s.apply(op, true)
		}
		if err != nil && !errors.Is(err, errReleaseRefused) {
			return i, fmt.Errorf("grid %s: replay record %d (%s %q): %w", s.name, i+1, op.Kind, op.HoldID, err)
		}
	}
	return len(records), nil
}

// RecoverSite rebuilds a site from WAL recovery output: the latest
// checkpoint snapshot (nil for none — fresh() then supplies the initial
// site) plus the journal records after it, in order. It returns the site and
// the number of records replayed.
func RecoverSite(checkpoint []byte, records [][]byte, fresh func() (*Site, error)) (*Site, int, error) {
	var (
		s   *Site
		err error
	)
	if checkpoint != nil {
		s, err = RestoreSite(bytes.NewReader(checkpoint))
	} else {
		s, err = fresh()
	}
	if err != nil {
		return nil, 0, err
	}
	n, err := s.ReplayBatch(records)
	if err != nil {
		return nil, n, fmt.Errorf("grid: recover: %w", err)
	}
	return s, n, nil
}
