package grid

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"coalloc/internal/calendar"
	"coalloc/internal/core"
	"coalloc/internal/period"
	"coalloc/internal/wal"
)

// benchSite builds a 64-server site with a realistic spread of committed
// reservations so probe searches traverse non-trivial slot trees.
func benchSite(b *testing.B) *Site {
	b.Helper()
	s, err := NewSite("bench", siteConfig(64), 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		id := fmt.Sprintf("seed-%d", i)
		start := period.Time(int64(i%24)*int64(period.Hour) + int64(15*period.Minute))
		end := start.Add(2 * period.Hour)
		if _, err := s.Prepare(0, id, start, end, 1+i%3, 24*period.Hour); err != nil {
			continue
		}
		if err := s.Commit(0, id); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkSiteProbeParallel measures the read path under broker-style
// fan-out: many goroutines probing the same site at the published epoch.
// Run with -cpu=1,2,4,8 to observe scaling; before the epoch-snapshot read
// path every probe serialized on the site mutex.
func BenchmarkSiteProbeParallel(b *testing.B) {
	s := benchSite(b)
	window := period.Time(int64(period.Hour))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s.Probe(0, window, window.Add(period.Hour))
		}
	})
}

// BenchmarkSiteRangeSearchParallel measures the feasible-period enumeration
// (§4.2's range search) on the lock-free read path.
func BenchmarkSiteRangeSearchParallel(b *testing.B) {
	s := benchSite(b)
	window := period.Time(int64(period.Hour))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s.RangeSearch(0, window, window.Add(period.Hour))
		}
	})
}

// BenchmarkSitePrepareAbort measures the write path: prepare immediately
// followed by abort, leaving the calendar unchanged between iterations.
func BenchmarkSitePrepareAbort(b *testing.B) {
	s := benchSite(b)
	window := period.Time(int64(period.Hour))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("h-%d", i)
		if _, err := s.Prepare(0, id, window, window.Add(period.Hour), 1, period.Hour); err != nil {
			b.Fatal(err)
		}
		if err := s.Abort(0, id); err != nil {
			b.Fatal(err)
		}
	}
}

// countingWAL counts the group commits and records that cross the journal
// seam, whichever of its two methods the site picks.
type countingWAL struct {
	log              *wal.Log
	flushes, records atomic.Int64
}

func (c *countingWAL) Append(record []byte) (uint64, error) {
	c.flushes.Add(1)
	c.records.Add(1)
	return c.log.Append(record)
}

func (c *countingWAL) AppendBatch(records [][]byte) (uint64, error) {
	c.flushes.Add(1)
	c.records.Add(int64(len(records)))
	return c.log.AppendBatch(records)
}

func (c *countingWAL) Checkpoint(snapshot []byte) error { return c.log.Checkpoint(snapshot) }

// BenchmarkSiteWritersWAL measures the durable write path under 1, 2 and 8
// concurrent writers, each running prepare → commit → compensating abort (so
// the calendar stays level) against a real fsync-per-commit log. An op is one
// such triple, three records. records/flush is the group-commit size: 1 with
// a single writer, and it must rise with the writer count — batches applied
// while an fsync is in flight ride the next one.
func BenchmarkSiteWritersWAL(b *testing.B) {
	for _, writers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			wlog, _, err := wal.Open(b.TempDir(), wal.Options{Sync: wal.SyncAlways})
			if err != nil {
				b.Fatal(err)
			}
			defer wlog.Close()
			s := benchSite(b)
			cw := &countingWAL{log: wlog}
			s.AttachWAL(cw)
			window := period.Time(int64(period.Hour))
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := next.Add(1)
						if i > int64(b.N) {
							return
						}
						id := fmt.Sprintf("h-%d", i)
						if _, err := s.Prepare(0, id, window, window.Add(period.Hour), 1, period.Hour); err != nil {
							b.Error(err)
							return
						}
						if err := s.Commit(0, id); err != nil {
							b.Error(err)
							return
						}
						if err := s.Abort(0, id); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(cw.records.Load())/float64(cw.flushes.Load()), "records/flush")
			b.ReportMetric(float64(cw.flushes.Load())/float64(b.N), "flushes/op")
		})
	}
}

// BenchmarkSiteProbeAdvancingClock measures a probe whose now is ahead of
// every view the site has published — the first probe of every job, since the
// stream's clock always advances — beside 0, 2 and 8 writers running prepare
// → commit → compensating abort on the same clock against a real
// fsync-per-commit log. The view answers it (viewFor), so ns/op must not
// grow with the writers; when such a probe rode the write queue it parked
// behind their fsyncs.
func BenchmarkSiteProbeAdvancingClock(b *testing.B) {
	for _, writers := range []int{0, 2, 8} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			wlog, _, err := wal.Open(b.TempDir(), wal.Options{Sync: wal.SyncAlways})
			if err != nil {
				b.Fatal(err)
			}
			defer wlog.Close()
			s := benchSite(b)
			s.AttachWAL(wlog)
			var clock atomic.Int64
			var stop atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; !stop.Load(); i++ {
						now := period.Time(clock.Load())
						id := fmt.Sprintf("w%d-%d", w, i)
						if _, err := s.Prepare(now, id, now.Add(period.Hour), now.Add(2*period.Hour), 1, period.Hour); err != nil {
							b.Error(err)
							return
						}
						if err := s.Commit(now, id); err != nil {
							b.Error(err)
							return
						}
						if err := s.Abort(now, id); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now := period.Time(clock.Add(1))
				s.Probe(now, now.Add(period.Hour), now.Add(2*period.Hour))
			}
			b.StopTimer()
			stop.Store(true)
			wg.Wait()
		})
	}
}

// BenchmarkSiteCommit measures a commit-only write batch on a site of the
// shipped shape (43 servers, 672 slots) per backend: the decision moves a
// hold between two maps and bumps a counter, the calendar and the clock stand
// still, and what is left is the queue hand-off plus the view the batch
// publishes. Holds are prepared and released with the timer stopped, 512 at a
// time: with none of them due, no write walks the decided holds still inside
// their window, so the round length does not show in the result.
func BenchmarkSiteCommit(b *testing.B) {
	for _, backend := range calendar.Backends() {
		b.Run(backend, func(b *testing.B) {
			s, err := NewSite("bench", core.Config{Servers: 43, SlotSize: 15 * period.Minute, Slots: 672, Backend: backend}, 0)
			if err != nil {
				b.Fatal(err)
			}
			const round = 512
			ids := make([]string, round)
			for i := range ids {
				ids[i] = fmt.Sprintf("h-%d", i)
			}
			for done := 0; done < b.N; done += round {
				n := min(round, b.N-done)
				b.StopTimer()
				for i := 0; i < n; i++ {
					start := period.Time(int64(1+i%160) * int64(period.Hour))
					if _, err := s.Prepare(0, ids[i], start, start.Add(period.Hour), 1, 24*period.Hour); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				for i := 0; i < n; i++ {
					if err := s.Commit(0, ids[i]); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				for i := 0; i < n; i++ {
					if err := s.Abort(0, ids[i]); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkRecoverSite replays the journal of 500 and of 4,000 grants (a
// prepare and a commit each, the clock standing still so every decided hold
// stays inside its window) onto a fresh site. ns/record must not grow with
// the journal: the clock step walks the holds only when one is due.
func BenchmarkRecoverSite(b *testing.B) {
	fresh := func() (*Site, error) {
		return NewSite("bench", core.Config{Servers: 43, SlotSize: 15 * period.Minute, Slots: 672}, 0)
	}
	for _, grants := range []int{500, 4000} {
		b.Run(fmt.Sprintf("grants=%d", grants), func(b *testing.B) {
			s, err := fresh()
			if err != nil {
				b.Fatal(err)
			}
			journal := &memWAL{}
			s.AttachWAL(journal)
			for i := 0; i < grants; i++ {
				id := fmt.Sprintf("h-%d", i)
				start := period.Time(int64(1+i%160) * int64(period.Hour))
				if _, err := s.Prepare(0, id, start, start.Add(period.Hour), 1, 24*period.Hour); err != nil {
					b.Fatal(err)
				}
				if err := s.Commit(0, id); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, n, err := RecoverSite(nil, journal.recs, fresh); err != nil || n != 2*grants {
					b.Fatalf("replayed %d of %d records: %v", n, 2*grants, err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*grants), "ns/record")
		})
	}
}
