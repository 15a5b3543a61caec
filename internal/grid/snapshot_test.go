package grid

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"coalloc/internal/period"
)

func TestSiteSnapshotRoundTrip(t *testing.T) {
	s := mustSite(t, "persist", 4)
	// A committed reservation and a pending hold.
	if _, err := s.Prepare(0, "done", 100, 4000, 2, period.Hour); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(0, "done"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Prepare(0, "pending", 100, 4000, 1, period.Hour); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSite(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if restored.Name() != "persist" || restored.Servers() != 4 {
		t.Fatalf("identity lost: %s/%d", restored.Name(), restored.Servers())
	}
	if restored.PendingHolds() != 1 {
		t.Fatalf("pending holds = %d, want 1", restored.PendingHolds())
	}
	// The committed reservation still pins capacity; the pending hold can
	// still be decided.
	if got := restored.Probe(10, 100, 4000); got != 1 {
		t.Fatalf("probe after restore = %d, want 1", got)
	}
	if err := restored.Commit(10, "pending"); err != nil {
		t.Fatal(err)
	}
	p, c, a, e := restored.Stats()
	if p != 2 || c != 2 || a != 0 || e != 0 {
		t.Fatalf("stats after restore: %d/%d/%d/%d", p, c, a, e)
	}
}

func TestSiteSnapshotLeaseExpiresAcrossRestart(t *testing.T) {
	s := mustSite(t, "persist", 2)
	if _, err := s.Prepare(0, "h", 100, 4000, 2, 30*period.Minute); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSite(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The site comes back after the lease deadline: the hold must expire on
	// the first touch, restoring capacity.
	after := period.Time(period.Hour)
	if got := restored.Probe(after, after+100, after+2000); got != 2 {
		t.Fatalf("capacity after post-restart expiry = %d, want 2", got)
	}
	if restored.PendingHolds() != 0 {
		t.Fatal("expired hold survived restart")
	}
	if err := restored.Commit(after, "h"); err == nil {
		t.Fatal("commit of lease-expired hold accepted after restart")
	}
	// The expiry is counted exactly as if the site had stayed up.
	if _, _, _, expired := restored.Stats(); expired != 1 {
		t.Fatalf("expired counter after restart = %d, want 1", expired)
	}
}

// TestSnapshotDeterministic asserts that one logical state always serializes
// to one byte sequence, regardless of map iteration order — the property
// WAL checkpoints and the crash-recovery byte-identity tests rest on.
func TestSnapshotDeterministic(t *testing.T) {
	build := func() *Site {
		s := mustSite(t, "det", 8)
		for i := 0; i < 6; i++ {
			id := string(rune('a' + i))
			if _, err := s.Prepare(0, id, 100, 4000, 1, period.Hour); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	var first bytes.Buffer
	if err := build().Snapshot(&first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		var again bytes.Buffer
		if err := build().Snapshot(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("snapshot bytes differ across identical builds (attempt %d)", i)
		}
	}
}

// TestSnapshotUnderConcurrentTraffic snapshots a site while goroutines hammer
// it with the full protocol mix; every snapshot must restore cleanly and
// describe a consistent state (no half-applied hold, no torn counters).
// Run with -race to also catch unsynchronized access.
func TestSnapshotUnderConcurrentTraffic(t *testing.T) {
	s := mustSite(t, "busy", 16)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				now := period.Time(i * 10)
				id := fmt.Sprintf("g%d-%d", g, i)
				if _, err := s.Prepare(now, id, now+100, now+1000, 1, 30*period.Minute); err != nil {
					continue
				}
				switch i % 3 {
				case 0:
					s.Commit(now, id)
				case 1:
					s.Abort(now, id)
				}
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := s.Snapshot(&buf); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		restored, err := RestoreSite(&buf)
		if err != nil {
			t.Fatalf("restore %d: %v", i, err)
		}
		// Counter invariant: every prepared hold is still pending or was
		// decided (committed, aborted, or expired) — never lost in between.
		p, c, a, e := restored.Stats()
		if decided := c + a + e + uint64(restored.PendingHolds()); decided != p {
			t.Fatalf("snapshot %d torn: prepared=%d but committed+aborted+expired+pending=%d", i, p, decided)
		}
	}
	close(stop)
	wg.Wait()
}

func TestRestoreSiteGarbage(t *testing.T) {
	if _, err := RestoreSite(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("garbage site snapshot restored")
	}
}

// TestResetFromSnapshotPublishesTheNewCalendar: a reset in place publishes
// the restored calendar even when its epoch and clock equal the old view's,
// as a fresh standby's do against a snapshot taken at the same instant.
func TestResetFromSnapshotPublishesTheNewCalendar(t *testing.T) {
	standby, primary := mustSite(t, "s", 4), mustSite(t, "s", 4)
	end := period.Time(period.Hour)
	if _, err := primary.Prepare(0, "h", 0, end, 3, period.Hour); err != nil {
		t.Fatal(err)
	}
	if err := primary.Commit(0, "h"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := primary.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := standby.ResetFromSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if n, _, _ := standby.ProbeView(0, 0, end); n != 1 {
		t.Fatalf("after the reset the standby's view answers %d free servers, want 1", n)
	}
}
