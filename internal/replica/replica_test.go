package replica

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"coalloc/internal/core"
	"coalloc/internal/grid"
	"coalloc/internal/job"
	"coalloc/internal/obs"
	"coalloc/internal/period"
	"coalloc/internal/wal"
)

const testSite = "alpha"

func freshSite() (*grid.Site, error) {
	return grid.NewSite(testSite, core.Config{
		Servers:  8,
		SlotSize: 15 * period.Minute,
		Slots:    96,
	}, 0)
}

// newPrimary boots a primary site with its own WAL in dir.
func newPrimary(t *testing.T, dir string, mode AckMode, ackTimeout time.Duration) (*grid.Site, *Primary) {
	t.Helper()
	log, rec, err := wal.Open(dir, wal.Options{SegmentSize: 1024, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	site, _, err := grid.RecoverSite(rec.Checkpoint, rec.Records, freshSite)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPrimary(PrimaryConfig{
		Site: site, Log: log, Dir: dir,
		Mode: mode, AckTimeout: ackTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	t.Cleanup(func() { log.Close() })
	return site, p
}

func newStandby(t *testing.T, dir string) *Standby {
	t.Helper()
	sb, err := NewStandby(StandbyConfig{
		Dir:   dir,
		WAL:   wal.Options{SegmentSize: 1024, Sync: wal.SyncAlways},
		Fresh: freshSite,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sb.Close() })
	return sb
}

// workload runs a deterministic mutation mix against the site: prepares,
// commits, and aborts across distinct windows. prefix keys the hold IDs so
// successive rounds never collide.
func workload(t *testing.T, site *grid.Site, prefix string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%s-%d", prefix, i)
		start := period.Time(int64(i) * int64(15*period.Minute))
		end := start.Add(30 * period.Minute)
		if _, err := site.Prepare(0, id, start, end, 1+i%3, period.Hour); err != nil {
			t.Fatalf("prepare %s: %v", id, err)
		}
		switch i % 3 {
		case 0, 1:
			if err := site.Commit(0, id); err != nil {
				t.Fatalf("commit %s: %v", id, err)
			}
		case 2:
			if err := site.Abort(0, id); err != nil {
				t.Fatalf("abort %s: %v", id, err)
			}
		}
	}
}

func snapshotBytes(t *testing.T, site *grid.Site) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := site.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// waitCaughtUp spins until the standby's journal head matches the
// primary's (or the deadline passes).
func waitCaughtUp(t *testing.T, p *Primary, sb *Standby) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if sb.Log().NextLSN() == p.log.NextLSN() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("standby stuck at lsn %d, primary at %d", sb.Log().NextLSN(), p.log.NextLSN())
}

func TestStreamReplicatesWorkload(t *testing.T) {
	site, p := newPrimary(t, t.TempDir(), Async, 0)
	sb := newStandby(t, t.TempDir())
	if err := p.AddReplica("sb1", Direct{S: sb}); err != nil {
		t.Fatal(err)
	}

	workload(t, site, "w", 30)
	waitCaughtUp(t, p, sb)

	want := snapshotBytes(t, site)
	got := snapshotBytes(t, sb.Site())
	if !bytes.Equal(want, got) {
		t.Fatalf("standby state diverged from primary: %d vs %d snapshot bytes", len(got), len(want))
	}
	st := p.Status()
	if st.Role != "primary" || len(st.Replicas) != 1 {
		t.Fatalf("status = %+v", st)
	}
	if st.Replicas[0].RecordsBehind != 0 || !st.Replicas[0].Alive {
		t.Fatalf("replica lag = %+v", st.Replicas[0])
	}
	if sbst := sb.Status(); sbst.Role != "standby" {
		t.Fatalf("standby role = %q", sbst.Role)
	}
}

// TestSemiSyncAckWaitsForReplica proves the semi-sync contract: when an
// acknowledged mutation returns, the standby has already persisted it.
// AckTimeout < 0 means the wait can never degrade, so the assertion is
// exact, not probabilistic.
func TestSemiSyncAckWaitsForReplica(t *testing.T) {
	site, p := newPrimary(t, t.TempDir(), SemiSync, -1)
	sb := newStandby(t, t.TempDir())
	if err := p.AddReplica("sb1", Direct{S: sb}); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("s-%d", i)
		start := period.Time(int64(i) * int64(30*period.Minute))
		if _, err := site.Prepare(0, id, start, start.Add(30*period.Minute), 1, period.Hour); err != nil {
			t.Fatal(err)
		}
		if err := site.Commit(0, id); err != nil {
			t.Fatal(err)
		}
		// The acknowledgment implies the standby's log already contains
		// every record of the batch.
		if got, want := sb.Log().NextLSN(), p.log.NextLSN(); got != want {
			t.Fatalf("after acked commit %d: standby lsn %d, primary lsn %d", i, got, want)
		}
	}
}

// TestSemiSyncGroupCommitAcksBatch is the regression test for a bug where
// Primary.AppendBatch waited for LSN last+len-1 instead of last
// (wal.Log.AppendBatch already returns the batch's LAST record): any
// multi-record group commit then waited for a record that would never
// exist, and with AckTimeout < 0 the batch leader hung forever holding the
// site lock. Single-writer traffic never forms multi-record batches, so
// only a concurrent burst exposes it.
func TestSemiSyncGroupCommitAcksBatch(t *testing.T) {
	site, p := newPrimary(t, t.TempDir(), SemiSync, -1)
	sb := newStandby(t, t.TempDir())
	if err := p.AddReplica("sb1", Direct{S: sb}); err != nil {
		t.Fatal(err)
	}

	const writers = 16
	done := make(chan error, writers)
	for i := 0; i < writers; i++ {
		go func(i int) {
			id := fmt.Sprintf("b-%d", i)
			start := period.Time(int64(i) * int64(30*period.Minute))
			_, err := site.Prepare(0, id, start, start.Add(30*period.Minute), 1, period.Hour)
			done <- err
		}(i)
	}
	for i := 0; i < writers; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("concurrent prepare: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("semi-sync group commit never acknowledged (batch ack LSN off by len-1?)")
		}
	}
	if got, want := sb.Log().NextLSN(), p.log.NextLSN(); got != want {
		t.Fatalf("standby lsn %d, primary lsn %d", got, want)
	}
}

// TestSemiSyncDegradesWithoutReplicas proves availability wins when no
// standby can answer: the append acknowledges anyway and the degradation
// is counted.
func TestSemiSyncDegradesWithoutReplicas(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	log, rec, err := wal.Open(dir, wal.Options{SegmentSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	site, _, err := grid.RecoverSite(rec.Checkpoint, rec.Records, freshSite)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPrimary(PrimaryConfig{Site: site, Log: log, Mode: SemiSync, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if _, err := site.Prepare(0, "d-1", 0, period.Time(30*period.Minute), 1, period.Hour); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("replica.semisync.degraded").Value(); got == 0 {
		t.Fatal("degraded counter did not move")
	}
}

// gatedConn blocks Append until released — a standby that is reachable but
// arbitrarily slow, for checkpoint retention tests.
type gatedConn struct {
	Direct
	mu      sync.Mutex
	blocked bool
	wait    chan struct{}
}

func (g *gatedConn) Append(b Batch) (uint64, error) {
	g.mu.Lock()
	blocked, wait := g.blocked, g.wait
	g.mu.Unlock()
	if blocked {
		<-wait
	}
	return g.Direct.Append(b)
}

func (g *gatedConn) block() {
	g.mu.Lock()
	g.blocked, g.wait = true, make(chan struct{})
	g.mu.Unlock()
}

func (g *gatedConn) release() {
	g.mu.Lock()
	if g.blocked {
		close(g.wait)
		g.blocked = false
	}
	g.mu.Unlock()
}

// TestCheckpointRetainsUnshippedTail is the regression test for the
// truncation hazard: a checkpoint taken while a standby lags must keep
// every journal segment past the standby's acknowledged position, so the
// stream resumes from the log instead of silently skipping records (or
// forcing a snapshot round). Before the low-water gate, Checkpoint
// truncated everything it covered.
func TestCheckpointRetainsUnshippedTail(t *testing.T) {
	site, p := newPrimary(t, t.TempDir(), Async, 0)
	sb := newStandby(t, t.TempDir())
	gc := &gatedConn{Direct: Direct{S: sb}}
	if err := p.AddReplica("sb1", gc); err != nil {
		t.Fatal(err)
	}

	workload(t, site, "a", 6)
	waitCaughtUp(t, p, sb)
	ackedBefore := sb.Log().NextLSN() - 1

	// Stall the stream mid-flight and write more history.
	gc.block()
	workload(t, site, "b", 12)
	if p.log.NextLSN()-1 <= ackedBefore {
		t.Fatal("workload did not outrun the gated stream")
	}

	// Checkpoint mid-stream: the cut must hold truncation at the standby's
	// low-water mark.
	if err := site.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if oldest := p.log.OldestLSN(); oldest > ackedBefore+1 {
		t.Fatalf("checkpoint truncated past the replica low-water mark: oldest %d, acked %d", oldest, ackedBefore)
	}
	// The unshipped tail must still be readable for the stream.
	if _, err := p.log.ReadRecords(ackedBefore+1, 1<<20); err != nil {
		t.Fatalf("unshipped tail unreadable after checkpoint: %v", err)
	}

	snapshotsBefore := sb.Site() // anchor: bootstrap would reset the site pointer state wholesale
	_ = snapshotsBefore
	gc.release()
	waitCaughtUp(t, p, sb)
	if got, want := snapshotBytes(t, sb.Site()), snapshotBytes(t, site); !bytes.Equal(got, want) {
		t.Fatal("standby diverged after mid-stream checkpoint")
	}
}

// TestBootstrapFromSnapshot drives the other side of retention: a standby
// attached only after the log was fully truncated must be seeded from a
// checkpoint snapshot, then tail the stream normally.
func TestBootstrapFromSnapshot(t *testing.T) {
	site, p := newPrimary(t, t.TempDir(), Async, 0)

	// History the future standby will never see as records: checkpoint with
	// no replicas attached truncates everything.
	workload(t, site, "c", 12)
	if err := site.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if p.log.OldestLSN() != p.log.NextLSN() {
		t.Fatalf("expected full truncation, oldest %d next %d", p.log.OldestLSN(), p.log.NextLSN())
	}

	sb := newStandby(t, t.TempDir())
	if err := p.AddReplica("late", Direct{S: sb}); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, p, sb)
	if got, want := snapshotBytes(t, sb.Site()), snapshotBytes(t, site); !bytes.Equal(got, want) {
		t.Fatal("bootstrap snapshot did not converge the standby")
	}

	// And the stream keeps flowing after the bootstrap.
	workload(t, site, "d", 6)
	waitCaughtUp(t, p, sb)
	if got, want := snapshotBytes(t, sb.Site()), snapshotBytes(t, site); !bytes.Equal(got, want) {
		t.Fatal("standby diverged after bootstrap")
	}
}

// TestPromoteFencesOldPrimary is the split-brain test: after the standby
// is promoted, the old primary's stream is refused, the old primary fences
// itself, seals its log, and refuses both mutations and restarts.
func TestPromoteFencesOldPrimary(t *testing.T) {
	pdir := t.TempDir()
	site, p := newPrimary(t, pdir, Async, 0)
	sb := newStandby(t, t.TempDir())
	if err := p.AddReplica("sb1", Direct{S: sb}); err != nil {
		t.Fatal(err)
	}
	workload(t, site, "e", 9)
	waitCaughtUp(t, p, sb)

	oldEpoch := site.Epoch()
	prom, err := sb.Promote("test failover")
	if err != nil {
		t.Fatal(err)
	}
	if prom.Incarnation != 2 {
		t.Fatalf("promotion incarnation = %d, want 2", prom.Incarnation)
	}
	if prom.Epoch == oldEpoch {
		t.Fatal("promotion did not change the epoch")
	}
	if !sb.Promoted() {
		t.Fatal("standby not promoted")
	}

	// The promoted node serves mutations under the new incarnation.
	if _, err := sb.Site().Prepare(0, "post-failover", 0, period.Time(30*period.Minute), 1, period.Hour); err != nil {
		t.Fatalf("promoted standby refused prepare: %v", err)
	}

	// The zombie's next mutation streams, is refused, and fences it.
	_, perr := site.Prepare(0, "zombie-hold", 0, period.Time(30*period.Minute), 1, period.Hour)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, fenced := site.Fenced(); fenced {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("old primary never fenced (prepare err: %v)", perr)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := site.Prepare(0, "after-fence", 0, period.Time(30*period.Minute), 1, period.Hour); !grid.IsFencedErr(err) {
		t.Fatalf("fenced primary accepted a prepare: %v", err)
	}
	if _, sealed := p.log.SealedInfo(); !sealed {
		t.Fatal("fenced primary's log not sealed")
	}

	// A restart of the zombie stays fenced: the sealed log refuses standby
	// duty outright.
	p.Close()
	p.log.Close()
	if _, err := NewStandby(StandbyConfig{Dir: pdir, WAL: wal.Options{SegmentSize: 1024}, Fresh: freshSite}); err == nil || !strings.Contains(err.Error(), "sealed") {
		t.Fatalf("sealed zombie rebooted as standby: %v", err)
	}
}

// TestPromotedStandbySurvivesRestart proves the durable promotion marker:
// a promoted node reopened from its directory boots as a primary at the
// bumped incarnation, never re-following the old stream.
func TestPromotedStandbySurvivesRestart(t *testing.T) {
	sdir := t.TempDir()
	site, p := newPrimary(t, t.TempDir(), Async, 0)
	sb := newStandby(t, sdir)
	if err := p.AddReplica("sb1", Direct{S: sb}); err != nil {
		t.Fatal(err)
	}
	workload(t, site, "f", 9)
	waitCaughtUp(t, p, sb)
	if _, err := sb.Promote("restart test"); err != nil {
		t.Fatal(err)
	}
	p.Close()
	want := snapshotBytes(t, sb.Site())
	sb.Close()

	re, err := NewStandby(StandbyConfig{Dir: sdir, WAL: wal.Options{SegmentSize: 1024}, Fresh: freshSite})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.Promoted() {
		t.Fatal("promotion marker did not survive the restart")
	}
	if re.Incarnation() != 2 {
		t.Fatalf("incarnation = %d after restart, want 2", re.Incarnation())
	}
	if got := snapshotBytes(t, re.Site()); !bytes.Equal(got, want) {
		t.Fatal("promoted node recovered to different state")
	}
	// Still refuses the old incarnation's stream.
	if _, err := re.Handshake(Hello{Site: testSite, Incarnation: 1}); !grid.IsFencedErr(err) {
		t.Fatalf("restarted promoted node accepted stale handshake: %v", err)
	}
	// And still serves as primary.
	if _, err := re.Site().Prepare(0, "after-restart", 0, period.Time(30*period.Minute), 1, period.Hour); err != nil {
		t.Fatalf("restarted primary refused prepare: %v", err)
	}
}

// TestStandbyAdoptsNewerIncarnationDurably checks the adopt-before-ack
// rule: stream traffic under a newer incarnation bumps the standby's
// durable fencing number before anything is acknowledged under it.
func TestStandbyAdoptsNewerIncarnationDurably(t *testing.T) {
	sdir := t.TempDir()
	sb := newStandby(t, sdir)
	if _, err := sb.Handshake(Hello{Site: testSite, Incarnation: 7, NextLSN: 1}); err != nil {
		t.Fatal(err)
	}
	if sb.Incarnation() != 7 {
		t.Fatalf("incarnation = %d, want 7", sb.Incarnation())
	}
	n, err := LoadIncarnation(sdir)
	if err != nil || n != 7 {
		t.Fatalf("durable incarnation = %d, %v; want 7", n, err)
	}
	// Older traffic is now fenced.
	if _, err := sb.Handshake(Hello{Site: testSite, Incarnation: 3}); !grid.IsFencedErr(err) {
		t.Fatalf("stale handshake accepted: %v", err)
	}
	if _, err := sb.ApplyBatch(Batch{Site: testSite, Incarnation: 3, From: 1}); !grid.IsFencedErr(err) {
		t.Fatalf("stale batch accepted: %v", err)
	}
}

// TestOutOfOrderBatchRejected pins the resync contract: a gap in the
// stream is refused, not buffered.
func TestOutOfOrderBatchRejected(t *testing.T) {
	sb := newStandby(t, t.TempDir())
	_, err := sb.ApplyBatch(Batch{Site: testSite, Incarnation: 1, From: 10, Records: [][]byte{{1}}})
	if err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("gap batch accepted: %v", err)
	}
}

// TestApplyBatchCountsOnlyAppliedRecords: when a record fails mid-batch the
// ones before it were applied and published, and the standby's counters say
// exactly that — not zero, not the whole batch.
func TestApplyBatchCountsOnlyAppliedRecords(t *testing.T) {
	reg := obs.NewRegistry()
	sb, err := NewStandby(StandbyConfig{Dir: t.TempDir(), WAL: wal.Options{Sync: wal.SyncNone}, Fresh: freshSite, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	window := job.Allocation{Servers: []int{0}, Start: 0, End: period.Time(period.Hour)}
	recs := [][]byte{
		grid.EncodeOp(grid.Op{Kind: grid.OpPrepare, HoldID: "a", Alloc: window, Expires: 600}),
		grid.EncodeOp(grid.Op{Kind: grid.OpCommit, HoldID: "a"}),
		grid.EncodeOp(grid.Op{Kind: grid.OpCommit, HoldID: "never-prepared"}),
		grid.EncodeOp(grid.Op{Kind: grid.OpAbort, HoldID: "a"}),
	}
	if _, err := sb.ApplyBatch(Batch{Site: testSite, Incarnation: 1, From: 1, Records: recs}); err == nil {
		t.Fatal("batch with an inapplicable record acknowledged")
	}
	if _, committed := sb.Site().LookupHold("a"); !committed {
		t.Fatal("records before the failure did not apply")
	}
	if p, c, _, _ := sb.Site().Stats(); p != 1 || c != 1 {
		t.Fatalf("records before the failure not published: prepared %d committed %d", p, c)
	}
	if sb.applied != 2 {
		t.Fatalf("applied = %d, want the 2 records before the failure", sb.applied)
	}
	if got := reg.Counter("replica.apply.records").Value(); got != 2 {
		t.Fatalf("replica.apply.records = %d, want 2", got)
	}
	if got := reg.Counter("replica.apply.batches").Value(); got != 0 {
		t.Fatalf("replica.apply.batches = %d, want 0: the batch did not apply", got)
	}
}

// TestStandbyReadsServeWhileReplicating: a standby answers probes from its
// view while refusing 2PC mutations.
func TestStandbyReadsServeWhileReplicating(t *testing.T) {
	site, p := newPrimary(t, t.TempDir(), Async, 0)
	sb := newStandby(t, t.TempDir())
	if err := p.AddReplica("sb1", Direct{S: sb}); err != nil {
		t.Fatal(err)
	}
	workload(t, site, "g", 6)
	waitCaughtUp(t, p, sb)

	n, _, _ := sb.Site().ProbeView(0, 0, period.Time(30*period.Minute))
	if n < 0 {
		t.Fatalf("standby probe = %d", n)
	}
	if _, err := sb.Site().Prepare(0, "nope", 0, period.Time(30*period.Minute), 1, period.Hour); !grid.IsStandbyErr(err) {
		t.Fatalf("standby accepted a prepare: %v", err)
	}
}

// TestDivergedStandbyStopsStream: a standby ahead of its primary (split
// histories) parks the sender with ErrDiverged instead of truncating.
func TestDivergedStandbyStopsStream(t *testing.T) {
	site, p := newPrimary(t, t.TempDir(), Async, 0)
	_ = site
	sb := newStandby(t, t.TempDir())
	// Fake a longer history on the standby by appending directly.
	if _, err := sb.Log().AppendBatch([][]byte{{1}, {2}, {3}}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddReplica("ahead", Direct{S: sb}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := p.Status()
		if len(st.Replicas) == 1 && st.Replicas[0].Err != "" && strings.Contains(st.Replicas[0].Err, "rebuild required") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("diverged replica never parked: %+v", st.Replicas)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestParseAckMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want AckMode
		err  bool
	}{
		{"async", Async, false},
		{"", Async, false},
		{"semisync", SemiSync, false},
		{"semi-sync", SemiSync, false},
		{"sync", SemiSync, false},
		{"quorum", Async, true},
	} {
		got, err := ParseAckMode(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseAckMode(%q) = %v, %v", tc.in, got, err)
		}
	}
}

func TestLoadIncarnationCorrupt(t *testing.T) {
	dir := t.TempDir()
	if n, err := LoadIncarnation(dir); err != nil || n != 1 {
		t.Fatalf("fresh dir: %d, %v", n, err)
	}
	if err := StoreIncarnation(dir, 42); err != nil {
		t.Fatal(err)
	}
	if n, err := LoadIncarnation(dir); err != nil || n != 42 {
		t.Fatalf("roundtrip: %d, %v", n, err)
	}
}

// TestFencedAppendFailsSemiSyncWaiters: fencing mid-wait fails the
// in-flight semi-sync acknowledgment instead of degrading it.
func TestFencedAppendFailsSemiSyncWaiters(t *testing.T) {
	dir := t.TempDir()
	log, rec, err := wal.Open(dir, wal.Options{SegmentSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	site, _, err := grid.RecoverSite(rec.Checkpoint, rec.Records, freshSite)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPrimary(PrimaryConfig{Site: site, Log: log, Mode: SemiSync, AckTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	sb := newStandby(t, t.TempDir())
	gc := &gatedConn{Direct: Direct{S: sb}}
	gc.block()
	if err := p.AddReplica("slow", gc); err != nil {
		t.Fatal(err)
	}

	errc := make(chan error, 1)
	go func() {
		_, err := site.Prepare(0, "fenced-wait", 0, period.Time(30*period.Minute), 1, period.Hour)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter park
	p.fence("test fence")
	gc.release()
	select {
	case err := <-errc:
		if !grid.IsFencedErr(err) && !errors.Is(err, grid.ErrFenced) {
			t.Fatalf("semi-sync waiter got %v, want fenced", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("semi-sync waiter never failed")
	}
}
