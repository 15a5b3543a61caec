package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"coalloc/internal/obs"
)

// scanReadRecords is ReadRecords as it was before the offset index: read each
// candidate segment whole, CRC-scan it from the top, keep what falls in
// [from, from+maxBytes). It stays here as the oracle the indexed
// implementation must agree with record for record.
func scanReadRecords(l *Log, from uint64, maxBytes int) ([][]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, fmt.Errorf("wal: log closed")
	}
	if from == 0 {
		from = 1
	}
	if from >= l.nextLSN {
		return nil, nil
	}
	if len(l.segs) == 0 || from < l.segs[0].first {
		return nil, ErrCompacted
	}
	if maxBytes <= 0 {
		maxBytes = 256 << 10
	}
	var out [][]byte
	got := 0
	for i := range l.segs {
		sg := &l.segs[i]
		if i+1 < len(l.segs) && l.segs[i+1].first <= from {
			continue
		}
		data, err := os.ReadFile(filepath.Join(l.dir, sg.name))
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		if int64(len(data)) > sg.size() {
			data = data[:sg.size()]
		}
		if len(data) < segHeaderSize {
			break
		}
		lsn := sg.first
		done := false
		if _, _, _, err := scanRecords(data[segHeaderSize:], func(p []byte, _ bool) error {
			if lsn >= from && !done {
				out = append(out, p)
				got += len(p)
				if got >= maxBytes {
					done = true
				}
			}
			lsn++
			return nil
		}); err != nil {
			return nil, err
		}
		if done {
			break
		}
	}
	return out, nil
}

// checkTailAgainstOracle compares the indexed ReadRecords with the full scan
// at every interesting position of the log as it stands.
func checkTailAgainstOracle(t *testing.T, l *Log, rng *rand.Rand, when string) {
	t.Helper()
	oldest, next := l.OldestLSN(), l.NextLSN()
	froms := []uint64{0, 1, oldest, oldest + 1, next - 1, next, next + 1}
	if oldest > 1 {
		froms = append(froms, oldest-1)
	}
	for i := 0; i < 6 && next > oldest; i++ {
		froms = append(froms, oldest+uint64(rng.Int63n(int64(next-oldest))))
	}
	for _, from := range froms {
		for _, maxBytes := range []int{0, 1, 7, 64, 300, 1 << 20} {
			want, wantErr := scanReadRecords(l, from, maxBytes)
			got, gotErr := l.ReadRecords(from, maxBytes)
			if !errors.Is(gotErr, wantErr) {
				t.Fatalf("%s: ReadRecords(%d, %d) error = %v, full scan says %v", when, from, maxBytes, gotErr, wantErr)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: ReadRecords(%d, %d) = %d records, full scan says %d (oldest %d, next %d)",
					when, from, maxBytes, len(got), len(want), oldest, next)
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("%s: ReadRecords(%d, %d): record %d differs from the full scan", when, from, maxBytes, i)
				}
			}
		}
	}
}

// TestReadRecordsMatchesFullScan is the property test for the offset index:
// over random histories — single appends and group commits, rotations,
// checkpoints with and without a retention floor, reopens, torn tails, and a
// log poisoned mid-write — the indexed read returns exactly what a full scan
// of the segments returns, for reads from below the floor, mid-batch, at the
// head, and with budgets smaller than one record.
func TestReadRecordsMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			opt := Options{SegmentSize: 256 + rng.Int63n(512), Sync: SyncNone}
			l, _ := mustOpen(t, dir, opt)
			defer func() { l.Close() }()
			payload := func() []byte {
				p := make([]byte, rng.Intn(90))
				rng.Read(p)
				return p
			}
			for step := 0; step < 120; step++ {
				var when string
				switch op := rng.Intn(20); {
				case op < 8:
					when = "append"
					if _, err := l.Append(payload()); err != nil {
						t.Fatal(err)
					}
				case op < 14:
					when = "append batch"
					batch := make([][]byte, 2+rng.Intn(5))
					for i := range batch {
						batch[i] = payload()
					}
					if _, err := l.AppendBatch(batch); err != nil {
						t.Fatal(err)
					}
				case op < 16:
					when = "checkpoint"
					keep := uint64(0)
					if next := l.NextLSN(); rng.Intn(3) > 0 && next > 1 {
						keep = 1 + uint64(rng.Int63n(int64(next)))
					}
					if err := l.CheckpointRetain([]byte("snap"), keep); err != nil {
						t.Fatal(err)
					}
				case op < 18:
					when = "reopen"
					if err := l.Close(); err != nil {
						t.Fatal(err)
					}
					l, _ = mustOpen(t, dir, opt)
				default:
					when = "torn tail"
					if err := l.Close(); err != nil {
						t.Fatal(err)
					}
					// Half a frame past the last record: what a crash mid-append
					// leaves. Open truncates it; the index must not count it.
					torn := appendFrame(nil, payload(), rng.Intn(2) == 0)
					segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
					f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
					if err != nil {
						t.Fatal(err)
					}
					f.Write(torn[:1+rng.Intn(len(torn)-1)])
					f.Close()
					l, _ = mustOpen(t, dir, opt)
				}
				checkTailAgainstOracle(t, l, rng, fmt.Sprintf("step %d (%s)", step, when))
			}

			// Poison the log mid-write: a reader draining a failed primary must
			// see the acknowledged prefix and nothing of the torn batch.
			l.Close()
			inj := NewInjector(40 + rng.Int63n(400))
			opt.Injector = inj
			l, _ = mustOpen(t, dir, opt)
			for !inj.Tripped() {
				l.AppendBatch([][]byte{payload(), payload(), payload()})
			}
			checkTailAgainstOracle(t, l, rng, "poisoned")
		})
	}
}

// TestReadRecordsReadsOnlyWhatItReturns pins the cost model: fetching the
// last record costs the same bytes whether it is the segment's only record or
// its fifty-thousandth.
func TestReadRecordsReadsOnlyWhatItReturns(t *testing.T) {
	payload := bytes.Repeat([]byte("r"), 73)
	readLast := func(records int) uint64 {
		reg := obs.NewRegistry()
		l, _ := mustOpen(t, t.TempDir(), Options{SegmentSize: 1 << 30, Sync: SyncNone, Metrics: NewMetrics(reg)})
		defer l.Close()
		batch := make([][]byte, 0, 1000)
		for n := 0; n < records; n += len(batch) {
			batch = batch[:0]
			for i := 0; i < 1000 && n+i < records; i++ {
				batch = append(batch, payload)
			}
			if _, err := l.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		if l.Segments() != 1 {
			t.Fatalf("%d records spread over %d segments, want 1", records, l.Segments())
		}
		recs, err := l.ReadRecords(uint64(records), 0)
		if err != nil || len(recs) != 1 || !bytes.Equal(recs[0], payload) {
			t.Fatalf("read of last of %d records = %d records, %v", records, len(recs), err)
		}
		return reg.Counter("wal.read_bytes").Value()
	}
	small, large := readLast(1), readLast(50_000)
	if want := uint64(frameSize(len(payload))); small != want || large != want {
		t.Fatalf("reading the last record read %d bytes of a 1-record segment and %d of a 50k-record one, want %d for both", small, large, want)
	}
}

// TestReadRecordsConcurrentWithAppendAndCheckpoint runs a tailing reader
// against a writer and a truncating checkpointer (run it under -race): every
// record the reader gets is the one its LSN names, the reader never skips,
// and a truncation under its feet surfaces as ErrCompacted, nothing else.
func TestReadRecordsConcurrentWithAppendAndCheckpoint(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{SegmentSize: 512, Sync: SyncNone})
	defer l.Close()
	const total = 3000
	record := func(lsn uint64) []byte { return []byte(fmt.Sprintf("record-%06d", lsn)) }

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // checkpointer: sometimes retaining a tail, sometimes everything
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stop:
				return
			default:
			}
			keep := uint64(0)
			if next := l.NextLSN(); rng.Intn(2) == 0 && next > 1 {
				keep = 1 + uint64(rng.Int63n(int64(next)))
			}
			if err := l.CheckpointRetain([]byte("snap"), keep); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // reader: tails from its cursor, resyncing when compacted away
		defer wg.Done()
		next := uint64(1)
		for next <= total {
			recs, err := l.ReadRecords(next, 200)
			if errors.Is(err, ErrCompacted) {
				if oldest := l.OldestLSN(); oldest > next {
					next = oldest
				}
				continue
			}
			if err != nil {
				t.Errorf("ReadRecords(%d): %v", next, err)
				return
			}
			for i, r := range recs {
				if want := record(next + uint64(i)); !bytes.Equal(r, want) {
					t.Errorf("ReadRecords(%d): record %d = %q, want %q", next, i, r, want)
					return
				}
			}
			next += uint64(len(recs))
		}
	}()
	for lsn := uint64(1); lsn <= total; {
		if lsn%3 == 0 && lsn+2 <= total {
			if _, err := l.AppendBatch([][]byte{record(lsn), record(lsn + 1), record(lsn + 2)}); err != nil {
				t.Fatal(err)
			}
			lsn += 3
			continue
		}
		if _, err := l.Append(record(lsn)); err != nil {
			t.Fatal(err)
		}
		lsn++
	}
	close(stop)
	wg.Wait()
}

// BenchmarkReadRecordsTail reads the newest record of a segment holding 1k
// and 64k records: with the offset index ns/op is the same for both.
func BenchmarkReadRecordsTail(b *testing.B) {
	payload := bytes.Repeat([]byte("r"), 100)
	for _, records := range []int{1 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			l, _, err := Open(b.TempDir(), Options{SegmentSize: 1 << 30, Sync: SyncNone})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			batch := make([][]byte, 1<<10)
			for i := range batch {
				batch[i] = payload
			}
			for n := 0; n < records; n += len(batch) {
				if _, err := l.AppendBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recs, err := l.ReadRecords(uint64(records), 0)
				if err != nil || len(recs) != 1 {
					b.Fatalf("tail read = %d records, %v", len(recs), err)
				}
			}
		})
	}
}
