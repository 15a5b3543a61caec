package grid

// Allocation pins for the in-process co-allocation path: a view-served probe
// counts without listing, a view-served range search allocates only its
// listing, and a publish nobody waits for makes no watch channel. The race
// detector allocates, so all three skip under -race.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coalloc/internal/period"
)

// TestProbeViewAllocatesNothing: a probe the published view answers is a
// count over the tail index and one slot, on both backends and at 64 and 512
// servers, over windows that reach finite idle periods, trailing ones and
// past the horizon.
func TestProbeViewAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const slot = 15 * period.Minute
	for _, servers := range []int{64, 512} {
		t.Run(fmt.Sprint(servers), func(t *testing.T) {
			forEachBackend(t, func(t *testing.T, backend string) {
				s := mustSiteBackend(t, "a", servers, backend)
				rng := rand.New(rand.NewSource(1))
				for i := 0; i < 200; i++ {
					start := period.Time(rng.Int63n(int64(80 * slot)))
					end := start + period.Time(1+rng.Int63n(int64(8*slot)))
					hold := fmt.Sprintf("h%d", i)
					if _, err := s.Prepare(0, hold, start, end, 1+rng.Intn(servers/4), period.Hour); err != nil {
						continue
					}
					if err := s.Commit(0, hold); err != nil {
						t.Fatal(err)
					}
				}
				for _, w := range [][2]period.Time{{0, period.Time(slot)}, {period.Time(10 * slot), period.Time(14 * slot)}, {period.Time(40*slot + 7), period.Time(41 * slot)}, {period.Time(95 * slot), period.Time(97 * slot)}} {
					var n int
					if allocs := testing.AllocsPerRun(100, func() { n, _, _ = s.ProbeView(0, w[0], w[1]) }); allocs != 0 {
						t.Errorf("ProbeView(%d, %d) allocates %v times, want 0", w[0], w[1], allocs)
					}
					if want := len(s.RangeSearch(0, w[0], w[1])); n != want {
						t.Errorf("ProbeView(%d, %d) = %d, RangeSearch lists %d", w[0], w[1], n, want)
					}
				}
			})
		})
	}
}

// TestRangeSearchViewAllocatesOnlyItsResult: a range search the published
// view answers allocates what the view's own listing does and nothing more;
// the epoch and site clock returned beside it stay off the heap.
func TestRangeSearchViewAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const slot = 15 * period.Minute
	forEachBackend(t, func(t *testing.T, backend string) {
		s := mustSiteBackend(t, "a", 64, backend)
		for i := 0; i < 16; i++ {
			start := period.Time(i) * period.Time(2*slot)
			hold := fmt.Sprintf("h%d", i)
			if _, err := s.Prepare(0, hold, start, start+period.Time(slot), 1+i%4, period.Hour); err != nil {
				t.Fatal(err)
			}
			if err := s.Commit(0, hold); err != nil {
				t.Fatal(err)
			}
		}
		v := s.view.Load()
		for _, w := range [][2]period.Time{{0, period.Time(slot)}, {period.Time(10 * slot), period.Time(14 * slot)}, {period.Time(40*slot + 7), period.Time(41 * slot)}} {
			want := testing.AllocsPerRun(100, func() { _ = v.cal.RangeSearch(w[0], w[1]) })
			var got []period.Period
			if allocs := testing.AllocsPerRun(100, func() { got, _, _ = s.RangeSearchView(0, w[0], w[1]) }); allocs != want {
				t.Errorf("RangeSearchView(%d, %d) allocates %v times, its listing %v", w[0], w[1], allocs, want)
			}
			if len(got) == 0 {
				t.Errorf("RangeSearchView(%d, %d) listed nothing", w[0], w[1])
			}
		}
	})
}

// TestPublishWithoutWatcherMakesNoChannel: a commit-only batch on a site with
// no watcher makes no watch channel and installing a view allocates nothing;
// a watcher that parks makes one, and the next publish still wakes it.
func TestPublishWithoutWatcherMakesNoChannel(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	s := mustSite(t, "a", 4)
	if _, err := s.Prepare(0, "h", 0, period.Time(period.Hour), 2, period.Hour); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(0, "h"); err != nil {
		t.Fatal(err)
	}
	if s.watchCh.Load() != nil {
		t.Fatal("a commit with no watcher made a watch channel")
	}
	v := s.view.Load()
	if allocs := testing.AllocsPerRun(100, func() { s.install(v) }); allocs != 0 {
		t.Fatalf("install with no watcher allocates %v times, want 0", allocs)
	}

	before := s.Epoch()
	woke := make(chan bool)
	go func() {
		_, _, _, changed := s.WaitEpoch(before, 10*time.Second)
		woke <- changed
	}()
	for s.watchCh.Load() == nil {
		time.Sleep(time.Millisecond) // until the watcher has parked
	}
	if _, err := s.Prepare(0, "g", 0, period.Time(period.Hour), 1, period.Hour); err != nil {
		t.Fatal(err)
	}
	if !<-woke {
		t.Fatal("the watcher timed out although a prepare published a new epoch")
	}
}

// TestWaitEpochNeverMissesAPublish: watchers parking and waking on the lazily
// made channel see every publish. The writer waits for every watcher to see
// each epoch before the next, so a close that missed a parked watcher leaves
// it parked and fails the test.
func TestWaitEpochNeverMissesAPublish(t *testing.T) {
	s := mustSite(t, "a", 64)
	var seen [4]atomic.Uint64
	var done atomic.Bool
	var wg sync.WaitGroup
	for w := range seen {
		seen[w].Store(s.Epoch())
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				epoch, _, _, _ := s.WaitEpoch(seen[w].Load(), 10*time.Second)
				seen[w].Store(epoch)
			}
		}()
	}
	prepare := func(i int) {
		start := period.Time(i) * period.Time(period.Minute)
		if _, err := s.Prepare(0, fmt.Sprintf("h%d", i), start, start+period.Time(period.Minute), 1, period.Hour); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		prepare(i)
		want, deadline := s.Epoch(), time.Now().Add(5*time.Second)
		for w := range seen {
			for seen[w].Load() != want {
				if time.Now().After(deadline) {
					t.Fatalf("publish %d: watcher %d is at epoch %d, the site at %d", i, w, seen[w].Load(), want)
				}
				runtime.Gosched()
			}
		}
	}
	done.Store(true)
	prepare(200) // wakes the watchers to see done
	wg.Wait()
}
