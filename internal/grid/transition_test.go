package grid

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coalloc/internal/job"
	"coalloc/internal/period"
	"coalloc/internal/wal"
)

// memWAL is a journal that only remembers what crossed the seam.
type memWAL struct{ recs [][]byte }

func (m *memWAL) Append(rec []byte) (uint64, error) {
	m.recs = append(m.recs, bytes.Clone(rec))
	return uint64(len(m.recs)), nil
}
func (m *memWAL) Checkpoint([]byte) error { return nil }

// The table's hold: one server over [tblStart, tblEnd), prepared at time 0.
const (
	tblStart = period.Time(period.Hour)
	tblEnd   = period.Time(2 * period.Hour)
)

// holdState names a hold id's state as the op's Now finds it.
type holdState int

const (
	stUnknown     holdState = iota
	stPending               // prepared, lease running, window open
	stPendingPast           // prepared under a long lease, window already closed
	stDecided               // committed, inside its window
	stDecidedPast           // committed, window closed: advance prunes it first
)

// tableSite builds a site whose hold "h" is in the given state and returns
// it with the Now an op must carry to meet that state.
func tableSite(t *testing.T, backend string, st holdState) (*Site, period.Time) {
	t.Helper()
	s := mustSiteBackend(t, "tbl", 4, backend)
	now := period.Time(0)
	if st != stUnknown {
		lease := period.Duration(600)
		if st == stPendingPast {
			lease = 24 * period.Hour
		}
		if _, err := s.Prepare(0, "h", tblStart, tblEnd, 1, lease); err != nil {
			t.Fatal(err)
		}
		if st == stDecided || st == stDecidedPast {
			if err := s.Commit(0, "h"); err != nil {
				t.Fatal(err)
			}
		}
		if st == stPendingPast || st == stDecidedPast {
			now = tblEnd
		}
	}
	return s, now
}

// TestTransitionTable pins apply one row at a time: op kind × the state the
// hold id is in → the state it is left in, the one counter that moves, and
// whether the op is refused (DESIGN.md §8). A prepare against a pending or a
// decided id is the duplicate-id row. Every row goes through ReplayBatch,
// the journal's way in; the live methods reach the same apply and are
// checked against the same row, the one divergence being decided before
// apply: a live abort of an unknown hold is a presumed-abort no-op that
// journals nothing, where a journal that names an unknown hold is corrupt.
func TestTransitionTable(t *testing.T) {
	type counters struct{ prepared, committed, aborted, expired uint64 }
	rows := []struct {
		kind             OpKind
		from             holdState
		pending, decided bool // where the id is afterwards
		delta            counters
		refused          bool
		free             int // servers free over the hold's window afterwards (of 4)
	}{
		{OpPrepare, stUnknown, true, false, counters{prepared: 1}, false, 3},
		{OpPrepare, stPending, true, false, counters{}, true, 3},
		{OpPrepare, stDecided, false, true, counters{}, true, 3},
		{OpPrepare, stDecidedPast, true, false, counters{prepared: 1}, false, 3},

		{OpCommit, stUnknown, false, false, counters{}, true, 4},
		{OpCommit, stPending, false, true, counters{committed: 1}, false, 3},
		{OpCommit, stPendingPast, false, false, counters{committed: 1}, false, 3},
		{OpCommit, stDecided, false, true, counters{}, true, 3},
		{OpCommit, stDecidedPast, false, false, counters{}, true, 3},

		{OpAbort, stUnknown, false, false, counters{}, true, 4},
		{OpAbort, stPending, false, false, counters{aborted: 1}, false, 4},
		{OpAbort, stDecided, false, false, counters{aborted: 1}, false, 4},
		{OpAbort, stDecidedPast, false, false, counters{}, true, 3},

		{OpExpire, stUnknown, false, false, counters{}, true, 4},
		{OpExpire, stPending, false, false, counters{expired: 1}, false, 4},
		{OpExpire, stDecided, false, true, counters{}, true, 3},
		{OpExpire, stDecidedPast, false, false, counters{}, true, 3},
	}
	stateName := map[holdState]string{stUnknown: "unknown", stPending: "pending", stPendingPast: "pending-past-window",
		stDecided: "committed-in-window", stDecidedPast: "committed-past-window"}
	forEachBackend(t, func(t *testing.T, backend string) {
		for _, row := range rows {
			for _, path := range []string{"replay", "live"} {
				if path == "live" && row.kind == OpExpire {
					continue // no live caller names the hold: advanceLocked finds it
				}
				t.Run(fmt.Sprintf("%s/%s/%s", row.kind, stateName[row.from], path), func(t *testing.T) {
					s, now := tableSite(t, backend, row.from)
					var before counters
					before.prepared, before.committed, before.aborted, before.expired = s.Stats()
					// A prepare names the id again: the same window on another
					// server, or the next window once the first has closed.
					pStart, pEnd := tblStart, tblEnd
					if now >= tblEnd {
						pStart, pEnd = tblEnd, tblEnd.Add(period.Hour)
					}
					var err error
					if path == "replay" {
						op := Op{Kind: row.kind, Now: now, HoldID: "h"}
						if row.kind == OpPrepare {
							op.Alloc = job.Allocation{Servers: []int{1}, Start: pStart, End: pEnd}
							op.Expires = now.Add(600)
						}
						_, err = s.ReplayBatch([][]byte{EncodeOp(op)})
					} else {
						switch row.kind {
						case OpPrepare:
							_, err = s.Prepare(now, "h", pStart, pEnd, 1, 600)
						case OpCommit:
							err = s.Commit(now, "h")
						case OpAbort:
							err = s.Abort(now, "h")
						}
					}
					refused := row.refused
					if path == "live" && row.kind == OpAbort && (row.from == stUnknown || row.from == stDecidedPast) {
						refused = false
					}
					if (err != nil) != refused {
						t.Fatalf("err = %v, want refused=%v", err, refused)
					}
					if p, d := s.LookupHold("h"); p != row.pending || d != row.decided {
						t.Errorf("afterwards pending=%v decided=%v, want %v %v", p, d, row.pending, row.decided)
					}
					var after counters
					after.prepared, after.committed, after.aborted, after.expired = s.Stats()
					after.prepared -= before.prepared
					after.committed -= before.committed
					after.aborted -= before.aborted
					after.expired -= before.expired
					if after != row.delta {
						t.Errorf("counters moved %+v, want %+v", after, row.delta)
					}
					// The first window's calendar half: freed by abort and
					// expire, held by everything else. (Past the window the
					// calendar no longer answers for it.)
					if now < tblEnd {
						if got := s.Probe(now, tblStart, tblEnd); got != row.free {
							t.Errorf("%d servers free over the hold's window, want %d", got, row.free)
						}
					}
				})
			}
		}
	})
}

// TestReplayRefusesPrepareOfCommittedHold: a journal that prepares an id
// still held as decided is refused by replay exactly as the live prepare
// refuses it. The separate replay switch checked the pending map only.
func TestReplayRefusesPrepareOfCommittedHold(t *testing.T) {
	alloc := func(server int) job.Allocation {
		return job.Allocation{Servers: []int{server}, Start: tblStart, End: tblEnd}
	}
	recs := [][]byte{
		EncodeOp(Op{Kind: OpPrepare, HoldID: "h", Alloc: alloc(0), Expires: 600}),
		EncodeOp(Op{Kind: OpCommit, HoldID: "h"}),
		EncodeOp(Op{Kind: OpPrepare, HoldID: "h", Alloc: alloc(1), Expires: 600}),
	}
	if _, n, err := RecoverSite(nil, recs, freshCrashSite); err == nil || n != 2 {
		t.Fatalf("recovery replayed %d records, err %v; want the third refused as a duplicate", n, err)
	}
}

// referenceReplayOp is the per-record replay switch the site carried beside
// its live operations until apply replaced both, kept as the reference the
// single transition function is diffed against.
func referenceReplayOp(s *Site, op Op) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	prune := func(now period.Time) {
		for id, h := range s.committedHolds {
			if h.Alloc.End <= now {
				delete(s.committedHolds, id)
			}
		}
	}
	switch op.Kind {
	case OpPrepare:
		if op.HoldID == "" {
			return fmt.Errorf("grid %s: replay prepare without hold id", s.name)
		}
		if _, dup := s.holds[op.HoldID]; dup {
			return fmt.Errorf("grid %s: replay prepare of duplicate hold %q", s.name, op.HoldID)
		}
		s.sched.Advance(op.Now)
		prune(op.Now)
		for _, srv := range op.Alloc.Servers {
			if _, err := s.sched.Claim(srv, op.Alloc.Start, op.Alloc.End); err != nil {
				return fmt.Errorf("grid %s: replay prepare %q: %w", s.name, op.HoldID, err)
			}
		}
		s.holds[op.HoldID] = Hold{ID: op.HoldID, Alloc: op.Alloc, Expires: op.Expires}
		s.prepared++
	case OpCommit:
		s.sched.Advance(op.Now)
		prune(op.Now)
		h, ok := s.holds[op.HoldID]
		if !ok {
			return fmt.Errorf("grid %s: replay commit of unknown hold %q", s.name, op.HoldID)
		}
		delete(s.holds, op.HoldID)
		if h.Alloc.End > op.Now {
			s.committedHolds[op.HoldID] = h
		}
		s.committed++
	case OpAbort:
		s.sched.Advance(op.Now)
		prune(op.Now)
		if h, ok := s.holds[op.HoldID]; ok {
			delete(s.holds, op.HoldID)
			if err := s.sched.Release(h.Alloc, h.Alloc.Start); err == nil {
				s.aborted++
			}
			break
		}
		h, ok := s.committedHolds[op.HoldID]
		if !ok {
			return fmt.Errorf("grid %s: replay abort of unknown hold %q", s.name, op.HoldID)
		}
		delete(s.committedHolds, op.HoldID)
		if err := s.sched.Release(h.Alloc, op.Now); err == nil {
			s.aborted++
		}
	case OpExpire:
		s.sched.Advance(op.Now)
		prune(op.Now)
		h, ok := s.holds[op.HoldID]
		if !ok {
			return fmt.Errorf("grid %s: replay expire of unknown hold %q", s.name, op.HoldID)
		}
		delete(s.holds, op.HoldID)
		if err := s.sched.Release(h.Alloc, h.Alloc.Start); err == nil {
			s.expired++
		}
	default:
		return fmt.Errorf("grid %s: replay of unknown op kind %d", s.name, op.Kind)
	}
	s.sched.RestoreStats(op.SchedStats)
	s.sched.SetOps(op.SchedOps)
	s.publishLocked()
	return nil
}

// TestReplayMatchesReferenceSwitch drives random prepare/commit/abort/expire
// histories through the live site, then replays the journal they left both
// ways — ReplayBatch in batches cut at random points, the reference switch
// record by record — and requires all three snapshots to agree byte for byte.
func TestReplayMatchesReferenceSwitch(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		fresh := freshCrashSiteOn(backend)
		for seed := int64(1); seed <= 8; seed++ {
			wlog, _, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNone})
			if err != nil {
				t.Fatal(err)
			}
			live, err := fresh()
			if err != nil {
				t.Fatal(err)
			}
			rw := &recordingWAL{log: wlog}
			live.AttachWAL(rw)
			runCrashWorkload(live, rw, nil, seed, 150)
			wlog.Close()
			kinds := map[OpKind]int{}
			for _, rec := range rw.acked {
				op, err := DecodeOp(rec)
				if err != nil {
					t.Fatal(err)
				}
				kinds[op.Kind]++
			}
			for _, k := range []OpKind{OpPrepare, OpCommit, OpAbort, OpExpire} {
				if kinds[k] == 0 {
					t.Fatalf("seed %d: history has no %s record: %v", seed, k, kinds)
				}
			}

			batched, err := fresh()
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			for rest := rw.acked; len(rest) > 0; {
				n := 1 + rng.Intn(min(len(rest), 12))
				if got, err := batched.ReplayBatch(rest[:n]); err != nil || got != n {
					t.Fatalf("seed %d: ReplayBatch applied %d of %d: %v", seed, got, n, err)
				}
				rest = rest[n:]
			}
			reference, err := fresh()
			if err != nil {
				t.Fatal(err)
			}
			for i, rec := range rw.acked {
				op, _ := DecodeOp(rec)
				if err := referenceReplayOp(reference, op); err != nil {
					t.Fatalf("seed %d: reference switch, record %d: %v", seed, i+1, err)
				}
			}
			want := snapshotBytes(t, reference)
			if !bytes.Equal(snapshotBytes(t, batched), want) {
				t.Fatalf("seed %d: ReplayBatch diverges from the reference switch over %d records", seed, len(rw.acked))
			}
			if !bytes.Equal(snapshotBytes(t, live), want) {
				t.Fatalf("seed %d: live site diverges from its replayed journal over %d records", seed, len(rw.acked))
			}
		}
	})
}

// TestReplayPublishesOncePerBatch: a standby applying a shipped batch moves
// its readers from the view before the batch straight to the view after it.
// An epoch watcher parked across the batch wakes on the post-batch epoch, and
// a reader spinning on the lock-free counters only ever sees a batch
// boundary — every batch is whole prepare+commit pairs, so any view with
// prepared != committed, or a count off the batch grid, is a middle one.
func TestReplayPublishesOncePerBatch(t *testing.T) {
	const batches, pairs = 8, 25
	primary := mustSite(t, "s", 43)
	journal := &memWAL{}
	primary.AttachWAL(journal)
	for i := 0; i < batches*pairs; i++ {
		id := fmt.Sprintf("h%d", i)
		start := period.Time(int64(1+i%20) * int64(period.Hour))
		if _, err := primary.Prepare(0, id, start, start.Add(period.Hour), 1, 600); err != nil {
			t.Fatal(err)
		}
		if err := primary.Commit(0, id); err != nil {
			t.Fatal(err)
		}
	}

	standby := mustSite(t, "s", 43)
	standby.SetStandby(true)
	var stop atomic.Bool
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for !stop.Load() {
			if p, c, _, _ := standby.Stats(); p != c || p%pairs != 0 {
				t.Errorf("reader saw a mid-batch view: prepared %d, committed %d", p, c)
				return
			}
		}
	}()
	for b := 0; b < batches; b++ {
		before := standby.Epoch()
		woke := make(chan uint64)
		go func() {
			epoch, _, _, _ := standby.WaitEpoch(before, 10*time.Second)
			woke <- epoch
		}()
		n, err := standby.ReplayBatch(journal.recs[b*2*pairs : (b+1)*2*pairs])
		if err != nil || n != 2*pairs {
			t.Fatalf("batch %d: applied %d records: %v", b, n, err)
		}
		if got, want := <-woke, standby.Epoch(); got != want || got == before {
			t.Fatalf("batch %d: watcher woke on epoch %d, want the post-batch epoch %d (before: %d)", b, got, want, before)
		}
	}
	stop.Store(true)
	readers.Wait()
	if p, c, _, _ := standby.Stats(); p != batches*pairs || c != batches*pairs {
		t.Fatalf("standby ended at prepared %d committed %d", p, c)
	}
}
