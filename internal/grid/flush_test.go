package grid

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"coalloc/internal/period"
	"coalloc/internal/wal"
)

// Tests for the flush stage (durability.go): one per invariant I1–I6, all on
// the same rig — a site whose journal parks inside its append until the test
// lets it go, so "while the flush is in flight" is a state the test holds
// rather than a window it hopes to hit.

// parkingWAL is a BatchWAL whose appends block until released. Every call is
// announced on entered (with the records it carries) before it parks.
type parkingWAL struct {
	entered chan [][]byte
	release chan error

	mu     sync.Mutex
	events []string // "append:<holds>" and "checkpoint", in call order
}

func newParkingWAL() *parkingWAL {
	return &parkingWAL{entered: make(chan [][]byte), release: make(chan error)}
}

func (p *parkingWAL) park(records [][]byte) (uint64, error) {
	p.mu.Lock()
	p.events = append(p.events, "append:"+strings.Join(holdIDs(records), ","))
	p.mu.Unlock()
	p.entered <- records
	return 0, <-p.release
}

func (p *parkingWAL) Append(record []byte) (uint64, error)         { return p.park([][]byte{record}) }
func (p *parkingWAL) AppendBatch(records [][]byte) (uint64, error) { return p.park(records) }

func (p *parkingWAL) Checkpoint([]byte) error {
	p.mu.Lock()
	p.events = append(p.events, "checkpoint")
	p.mu.Unlock()
	return nil
}

func (p *parkingWAL) log() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.events...)
}

// holdIDs decodes journal records down to the hold each one names.
func holdIDs(records [][]byte) []string {
	ids := make([]string, len(records))
	for i, r := range records {
		op, err := DecodeOp(r)
		if err != nil {
			ids[i] = "undecodable"
			continue
		}
		ids[i] = op.HoldID
	}
	return ids
}

const (
	flushServers = 8
	flushWait    = 5 * time.Second
)

var (
	flushStart = period.Time(int64(period.Hour))
	flushEnd   = period.Time(2 * int64(period.Hour))
)

// within fails the test unless fn returns before the deadline: the way these
// tests say "this must not be stuck behind the parked flush".
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { fn(); close(done) }()
	select {
	case <-done:
	case <-time.After(flushWait):
		t.Fatalf("%s blocked behind a flush in flight", what)
	}
}

// prepareAsync starts a one-server Prepare and returns where its result lands.
func prepareAsync(s *Site, id string) chan error {
	res := make(chan error, 1)
	go func() {
		_, err := s.Prepare(0, id, flushStart, flushEnd, 1, period.Hour)
		res <- err
	}()
	return res
}

// waitApplied waits until the site holds n pending holds in memory: the
// writers' execs have run under s.mu, whatever the journal is doing.
func waitApplied(t *testing.T, s *Site, n int) {
	t.Helper()
	deadline := time.Now().Add(flushWait)
	for time.Now().Before(deadline) {
		got := -1
		within(t, "PendingHolds", func() { got = s.PendingHolds() })
		if got == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("site never reached %d applied holds", n)
}

// flushRig is a site with writer "h0" applied and parked inside its journal
// append, plus `behind` more writers applied one after the other ("h1",
// "h2", …: their apply order is their name order) and parked behind it.
type flushRig struct {
	site    *Site
	wal     *parkingWAL
	first   [][]byte     // the records of the flush in flight
	results []chan error // results[i] is writer h<i>'s Prepare
}

func newFlushRig(t *testing.T, behind int) *flushRig {
	t.Helper()
	r := &flushRig{site: mustSite(t, "flush", flushServers), wal: newParkingWAL()}
	r.site.AttachWAL(r.wal)
	r.results = append(r.results, prepareAsync(r.site, "h0"))
	select {
	case r.first = <-r.wal.entered:
	case <-time.After(flushWait):
		t.Fatal("first writer never reached the journal")
	}
	for i := 1; i <= behind; i++ {
		r.results = append(r.results, prepareAsync(r.site, fmt.Sprintf("h%d", i)))
		waitApplied(t, r.site, i+1)
	}
	return r
}

// releaseAndNext lets the flush in flight return err and, when another one
// must follow it, waits for that one to park and returns its records.
func (r *flushRig) releaseAndNext(t *testing.T, err error, expectNext bool) [][]byte {
	t.Helper()
	r.wal.release <- err
	if !expectNext {
		return nil
	}
	select {
	case recs := <-r.wal.entered:
		return recs
	case <-time.After(flushWait):
		t.Fatal("writers parked behind the flush never reached the journal")
		return nil
	}
}

func (r *flushRig) result(t *testing.T, i int) error {
	t.Helper()
	select {
	case err := <-r.results[i]:
		return err
	case <-time.After(flushWait):
		t.Fatalf("writer h%d never returned", i)
		return nil
	}
}

// TestI1JournalOrderIsApplyOrder also pins what makes group commit group:
// the writers applied during one flush land in ONE AppendBatch, in the order
// they were applied.
func TestI1JournalOrderIsApplyOrder(t *testing.T) {
	r := newFlushRig(t, 4)
	if got := holdIDs(r.first); len(got) != 1 || got[0] != "h0" {
		t.Fatalf("flush in flight carries %v, want [h0]", got)
	}
	second := r.releaseAndNext(t, nil, true)
	if got, want := strings.Join(holdIDs(second), ","), "h1,h2,h3,h4"; got != want {
		t.Fatalf("second group commit = [%s], want one batch [%s] in apply order", got, want)
	}
	r.releaseAndNext(t, nil, false)
	for i := range r.results {
		if err := r.result(t, i); err != nil {
			t.Fatalf("writer h%d: %v", i, err)
		}
	}
	if got, want := r.wal.log(), []string{"append:h0", "append:h1,h2,h3,h4"}; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("journal calls = %v, want %v", got, want)
	}
}

// TestI2AckOnlyAfterOwnRecordsDurable: a writer returns when the flush that
// carries its records returns — not before, and not a flush later.
func TestI2AckOnlyAfterOwnRecordsDurable(t *testing.T) {
	r := newFlushRig(t, 2)
	notYet := func(writers ...int) {
		t.Helper()
		for _, i := range writers {
			select {
			case err := <-r.results[i]:
				t.Fatalf("writer h%d acknowledged (%v) before its records were durable", i, err)
			default:
			}
		}
	}
	notYet(0, 1, 2)
	r.releaseAndNext(t, nil, true)
	// h0's flush is done: h0 must return although the next flush is parked.
	if err := r.result(t, 0); err != nil {
		t.Fatal(err)
	}
	notYet(1, 2)
	r.releaseAndNext(t, nil, false)
	for i := 1; i <= 2; i++ {
		if err := r.result(t, i); err != nil {
			t.Fatal(err)
		}
	}
}

// TestI3ViewInstalledOnlyAfterDurable: while records are on their way to the
// disk the read path keeps answering from the last durable epoch — including
// for batches applied behind the flush — and catches up when they land.
func TestI3ViewInstalledOnlyAfterDurable(t *testing.T) {
	r := newFlushRig(t, 2)
	epoch := r.site.Epoch()
	check := func(when string, free int, prepared uint64) {
		t.Helper()
		if got := r.site.Probe(0, flushStart, flushEnd); got != free {
			t.Fatalf("%s: probe = %d free servers, want %d", when, got, free)
		}
		if p, _, _, _ := r.site.Stats(); p != prepared {
			t.Fatalf("%s: published prepared = %d, want %d", when, p, prepared)
		}
	}
	check("flush in flight", flushServers, 0)
	if r.site.Epoch() != epoch {
		t.Fatal("epoch moved while nothing new was durable")
	}
	r.releaseAndNext(t, nil, true)
	if err := r.result(t, 0); err != nil {
		t.Fatal(err)
	}
	// h0 is durable; h1 and h2 are applied but still in flight.
	check("first flush durable", flushServers-1, 1)
	r.releaseAndNext(t, nil, false)
	for i := 1; i <= 2; i++ {
		if err := r.result(t, i); err != nil {
			t.Fatal(err)
		}
	}
	check("all durable", flushServers-3, 3)
}

// TestI4CheckpointDrainsFlushStage: a checkpoint requested while a batch is
// applied but not yet appended waits for that append, so the journal sees
// the record and then the snapshot that contains it — never the reverse.
func TestI4CheckpointDrainsFlushStage(t *testing.T) {
	r := newFlushRig(t, 0)
	ckpt := make(chan error, 1)
	go func() { ckpt <- r.site.Checkpoint() }()
	select {
	case err := <-ckpt:
		t.Fatalf("checkpoint returned (%v) while an applied batch was still unappended", err)
	case <-time.After(50 * time.Millisecond):
	}
	r.releaseAndNext(t, nil, false)
	select {
	case err := <-ckpt:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(flushWait):
		t.Fatal("checkpoint never ran after the flush stage drained")
	}
	if got, want := strings.Join(r.wal.log(), " "), "append:h0 checkpoint"; got != want {
		t.Fatalf("journal calls = %q, want %q", got, want)
	}
	if err := r.result(t, 0); err != nil {
		t.Fatal(err)
	}
}

// ckptHistoryWAL journals into a real log and keeps, for every checkpoint, the
// snapshot and every record appended after it. Its mutex spans the log call
// and the bookkeeping, so the history it keeps is in the log's own order.
type ckptHistoryWAL struct {
	log *wal.Log

	mu    sync.Mutex
	snaps [][]byte
	after [][][]byte // after[i]: records appended after snaps[i]
}

func (c *ckptHistoryWAL) Append(record []byte) (uint64, error) {
	return c.AppendBatch([][]byte{record})
}

func (c *ckptHistoryWAL) AppendBatch(records [][]byte) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lsn, err := c.log.AppendBatch(records)
	if err != nil {
		return lsn, err
	}
	for i := range c.after {
		for _, r := range records {
			c.after[i] = append(c.after[i], append([]byte(nil), r...))
		}
	}
	return lsn, nil
}

func (c *ckptHistoryWAL) Checkpoint(snapshot []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.log.Checkpoint(snapshot); err != nil {
		return err
	}
	c.snaps = append(c.snaps, append([]byte(nil), snapshot...))
	c.after = append(c.after, nil)
	return nil
}

// TestI4CheckpointRacingWriters races a checkpointer against four writers on
// a real log. Every checkpoint it cut must be a valid recovery baseline:
// restoring it and replaying exactly the records appended after it rebuilds
// the live site byte for byte. A record both inside a snapshot and after it
// would fail the replay (duplicate hold) or skew the counters.
func TestI4CheckpointRacingWriters(t *testing.T) {
	wlog, _, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	s := mustSite(t, "ckpt", 16)
	hw := &ckptHistoryWAL{log: wlog}
	s.AttachWAL(hw)

	stop := make(chan struct{})
	var ckpt sync.WaitGroup
	ckpt.Add(1)
	go func() {
		defer ckpt.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
			// Let the writers in: a checkpointer that spins holds s.mu almost
			// all the time and rarely meets a batch between apply and append.
			time.Sleep(200 * time.Microsecond)
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 60; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				if _, err := s.Prepare(0, id, flushStart, flushEnd, 1, period.Hour); err != nil {
					if strings.Contains(err.Error(), "journal") {
						t.Errorf("prepare %s: %v", id, err)
						return
					}
					continue
				}
				if err := s.Abort(0, id); err != nil {
					t.Errorf("abort %s: %v", id, err)
					return
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	ckpt.Wait()

	live := snapshotBytes(t, s)
	if len(hw.snaps) == 0 {
		t.Fatal("no checkpoint was cut")
	}
	// Under -race the run is long enough for hundreds of checkpoints; a
	// spread of them is enough, with the last one — what a restart would
	// actually use — always among them.
	stride := len(hw.snaps)/64 + 1
	for i, snap := range hw.snaps {
		if i%stride != 0 && i != len(hw.snaps)-1 {
			continue
		}
		restored, n, err := RecoverSite(snap, hw.after[i], nil)
		if err != nil {
			t.Fatalf("checkpoint %d of %d + the %d records after it does not replay (record %d): %v",
				i+1, len(hw.snaps), len(hw.after[i]), n+1, err)
		}
		if !bytes.Equal(snapshotBytes(t, restored), live) {
			t.Fatalf("checkpoint %d of %d + the %d records after it diverges from the live site", i+1, len(hw.snaps), len(hw.after[i]))
		}
	}
}

// TestI5FlushFailureFailsWritersInAndBehind: the writer in the failed flush
// and the writers applied behind it all get the journal error, the journal
// is never touched again, and the read path stays on the last durable epoch.
func TestI5FlushFailureFailsWritersInAndBehind(t *testing.T) {
	r := newFlushRig(t, 3)
	epoch := r.site.Epoch()
	r.releaseAndNext(t, errors.New("disk on fire"), false)
	for i := range r.results {
		err := r.result(t, i)
		if err == nil || !strings.Contains(err.Error(), "journal") || !strings.Contains(err.Error(), "disk on fire") {
			t.Fatalf("writer h%d = %v, want the journal failure", i, err)
		}
	}
	if _, err := r.site.Prepare(0, "late", flushStart, flushEnd, 1, period.Hour); err == nil {
		t.Fatal("Prepare on the poisoned site succeeded")
	}
	if err := r.site.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on the poisoned site succeeded")
	}
	if got := r.wal.log(); len(got) != 1 {
		t.Fatalf("journal calls = %v, want only the failed append", got)
	}
	if r.site.Epoch() != epoch {
		t.Fatal("a view was installed after the flush failed")
	}
	if got := r.site.Probe(0, flushStart, flushEnd); got != flushServers {
		t.Fatalf("probe = %d, want %d: unacknowledged mutations leaked into the read path", got, flushServers)
	}
	// Memory is ahead of the durable state and says so.
	if got := r.site.PendingHolds(); got != 4 {
		t.Fatalf("pending holds = %d, want the 4 unacknowledged ones", got)
	}
}

// TestI6NothingBlocksInAppendUnderSiteLock: with a flush parked inside the
// journal, everything that needs s.mu still runs — the locked debug reads,
// a lock-free probe, and a second writer's apply.
func TestI6NothingBlocksInAppendUnderSiteLock(t *testing.T) {
	r := newFlushRig(t, 0)
	within(t, "PendingHolds", func() { r.site.PendingHolds() })
	within(t, "Status", func() { r.site.Status() })
	within(t, "LookupHold", func() { r.site.LookupHold("h0") })
	within(t, "Probe", func() { r.site.Probe(0, flushStart, flushEnd) })
	// A second writer is applied (its hold shows up under the lock) while the
	// first is still inside the journal.
	second := prepareAsync(r.site, "h1")
	waitApplied(t, r.site, 2)
	if pending, _ := r.site.LookupHold("h1"); !pending {
		t.Fatal("second writer's hold not applied while the first flush is in flight")
	}
	next := r.releaseAndNext(t, nil, true)
	if got := holdIDs(next); len(got) != 1 || got[0] != "h1" {
		t.Fatalf("second flush carries %v, want [h1]", got)
	}
	r.releaseAndNext(t, nil, false)
	if err := r.result(t, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-second:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(flushWait):
		t.Fatal("second writer never returned")
	}
}
