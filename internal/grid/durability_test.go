package grid

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"coalloc/internal/wal"
)

// crashRun executes the seeded workload against a WAL whose writes die after
// `budget` bytes, then recovers from the directory and returns the recovered
// snapshot plus the recorder (for shadow construction). The site, its
// recovery, and any shadow the caller builds must all use the same `fresh`
// constructor — the sweep runs once per availability backend.
func crashRun(t *testing.T, seed int64, steps int, budget int64, fresh func() (*Site, error)) (recovered []byte, rw *recordingWAL, durableRecords int) {
	t.Helper()
	dir := t.TempDir()
	opt := wal.Options{SegmentSize: 1024, Sync: wal.SyncAlways}
	var inj *wal.Injector
	if budget >= 0 {
		inj = wal.NewInjector(budget)
		opt.Injector = inj
	}
	rw = &recordingWAL{}
	wlog, _, err := wal.Open(dir, opt)
	switch {
	case err == nil:
		site, err := fresh()
		if err != nil {
			t.Fatal(err)
		}
		rw.log = wlog
		site.AttachWAL(rw)
		runCrashWorkload(site, rw, inj, seed, steps)
		wlog.Close() // may fail once tripped; the files are what recovery reads
	case inj != nil && inj.Tripped():
		// The crash landed inside Open itself (segment-header creation):
		// nothing was journaled, recovery must be a clean boot.
	default:
		t.Fatalf("open: %v", err)
	}

	relog, rec, err := wal.Open(dir, wal.Options{SegmentSize: 1024})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer relog.Close()
	restored, replayed, err := RecoverSite(rec.Checkpoint, rec.Records, fresh)
	if err != nil {
		t.Fatalf("recover (ckpt=%v, %d records): %v", rec.Checkpoint != nil, len(rec.Records), err)
	}
	_ = replayed
	return snapshotBytes(t, restored), rw, len(rec.Records)
}

// TestCrashRecoveryKillPoints is the durability acceptance test: for every
// injected kill point across a randomized workload's full write history,
// recovery (checkpoint + replay + torn-tail truncation) must yield a site
// byte-identical to a shadow built from the acknowledged record prefix —
// optionally plus the single in-flight record the crash may have landed
// after (durable but unacknowledged). The whole sweep runs once per
// availability backend: replay determinism is a contract every backend must
// honor, not a dtree implementation detail.
func TestCrashRecoveryKillPoints(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		const (
			seed  = 42
			steps = 80
		)
		fresh := freshCrashSiteOn(backend)
		// Baseline: unlimited budget to learn the total bytes written.
		baseInj := wal.NewInjector(math.MaxInt64)
		dir := t.TempDir()
		wlog, _, err := wal.Open(dir, wal.Options{SegmentSize: 1024, Sync: wal.SyncAlways, Injector: baseInj})
		if err != nil {
			t.Fatal(err)
		}
		site, err := fresh()
		if err != nil {
			t.Fatal(err)
		}
		rw := &recordingWAL{log: wlog}
		site.AttachWAL(rw)
		runCrashWorkload(site, rw, baseInj, seed, steps)
		live := snapshotBytes(t, site)
		wlog.Close()
		total := baseInj.Written()
		if total == 0 || len(rw.acked) == 0 {
			t.Fatalf("degenerate baseline: %d bytes, %d records", total, len(rw.acked))
		}
		// Sanity: with no crash, the shadow replay reproduces the live site.
		if got := snapshotBytes(t, buildShadow(t, rw.acked, fresh)); !bytes.Equal(got, live) {
			t.Fatalf("shadow replay diverges from live site with no crash (%d records)", len(rw.acked))
		}

		step := total / 150
		if step < 1 {
			step = 1
		}
		points := 0
		for budget := int64(1); budget <= total; budget += step {
			recovered, run, nrec := crashRun(t, seed, steps, budget, fresh)
			shadowAcked := snapshotBytes(t, buildShadow(t, run.acked, fresh))
			if bytes.Equal(recovered, shadowAcked) {
				points++
				continue
			}
			if run.pending != nil {
				withPending := append(append([][]byte{}, run.acked...), run.pending)
				if bytes.Equal(recovered, snapshotBytes(t, buildShadow(t, withPending, fresh))) {
					points++
					continue
				}
			}
			t.Fatalf("kill point at byte %d of %d: recovered state (%d durable records) matches neither the %d acknowledged records nor acknowledged+pending",
				budget, total, nrec, len(run.acked))
		}
		t.Logf("verified %d kill points over %d journal bytes (%d records)", points, total, len(rw.acked))
	})
}

// TestCrashRecoveryNoCrash closes the loop with an unbounded budget: a clean
// run recovers to exactly the live state, on every backend.
func TestCrashRecoveryNoCrash(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		fresh := freshCrashSiteOn(backend)
		recovered, run, _ := crashRun(t, 7, 60, -1, fresh)
		if got := snapshotBytes(t, buildShadow(t, run.acked, fresh)); !bytes.Equal(recovered, got) {
			t.Fatalf("clean-run recovery diverges from shadow (%d records)", len(run.acked))
		}
		if run.pending != nil {
			t.Fatalf("clean run left a pending record")
		}
	})
}

func TestCheckpointWithoutWAL(t *testing.T) {
	s := mustSite(t, "nowal", 4)
	if err := s.Checkpoint(); !errors.Is(err, ErrNoWAL) {
		t.Fatalf("Checkpoint without WAL = %v, want ErrNoWAL", err)
	}
}

func TestJournalFailurePoisonsSite(t *testing.T) {
	s := mustSite(t, "poison", 4)
	fw := &failingWAL{}
	s.AttachWAL(fw)
	_, err := s.Prepare(0, "h1", 0, 900, 1, 600)
	if err == nil || !strings.Contains(err.Error(), "journal") {
		t.Fatalf("Prepare with failing WAL = %v, want journal error", err)
	}
	// Every later mutation must fail fast without touching the journal again.
	callsAfterFirst := fw.calls
	if _, err := s.Prepare(1, "h2", 100, 1000, 1, 600); err == nil {
		t.Fatal("Prepare on poisoned site succeeded")
	}
	if err := s.Commit(1, "h1"); err == nil {
		t.Fatal("Commit on poisoned site succeeded")
	}
	if err := s.Abort(1, "h1"); err == nil {
		t.Fatal("Abort on poisoned site succeeded")
	}
	if err := s.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on poisoned site succeeded")
	}
	if fw.calls != callsAfterFirst {
		t.Fatalf("poisoned site touched the journal %d more times", fw.calls-callsAfterFirst)
	}
	// Reads still work; memory is ahead of durable state (the unacknowledged
	// hold remains visible) until a restart recovers the durable prefix.
	if got := s.PendingHolds(); got != 1 {
		t.Fatalf("poisoned site reports %d pending holds, want 1", got)
	}
}

func TestRecoverSiteEmptyIsCleanBoot(t *testing.T) {
	s, n, err := RecoverSite(nil, nil, freshCrashSite)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("replayed %d records from empty recovery", n)
	}
	if !bytes.Equal(snapshotBytes(t, s), snapshotBytes(t, mustFresh(t))) {
		t.Fatal("empty recovery differs from a fresh site")
	}
}
