package calendar

import (
	"math/rand"
	"testing"

	"coalloc/internal/period"
)

// scanPrevIdleBoundary and scanNextBusyStart are the linear scans the
// backends used before the lookups moved onto busyList as binary searches;
// kept as the reference the searches are held to.
func scanPrevIdleBoundary(b *busyList, genesis, t period.Time) period.Time {
	for i := len(b.iv) - 1; i >= 0; i-- {
		if b.iv[i].end <= t {
			return b.iv[i].end
		}
	}
	return genesis
}

func scanNextBusyStart(b *busyList, t period.Time) (period.Time, bool) {
	for _, iv := range b.iv {
		if iv.start >= t {
			return iv.start, true
		}
	}
	return 0, false
}

func TestBusyListBoundarySearchesMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 200; round++ {
		// A random sorted list of disjoint reservations, some back to back.
		var b busyList
		genesis := period.Time(rng.Intn(20))
		at := genesis
		for n := rng.Intn(12); n > 0; n-- {
			at += period.Time(rng.Intn(4)) // gap 0 makes two reservations adjacent
			end := at + 1 + period.Time(rng.Intn(5))
			if err := b.insert(at, end); err != nil {
				t.Fatal(err)
			}
			at = end
		}
		for q := genesis - 2; q <= at+2; q++ {
			if got, want := b.prevIdleBoundary(genesis, q), scanPrevIdleBoundary(&b, genesis, q); got != want {
				t.Fatalf("%v: prevIdleBoundary(%d) = %d, scan %d", b.iv, q, got, want)
			}
			got, gotOK := b.nextBusyStart(q)
			want, wantOK := scanNextBusyStart(&b, q)
			if got != want || gotOK != wantOK {
				t.Fatalf("%v: nextBusyStart(%d) = %d,%v, scan %d,%v", b.iv, q, got, gotOK, want, wantOK)
			}
		}
	}
}
