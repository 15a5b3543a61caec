package dtree

import (
	"math/rand"
	"testing"

	"coalloc/internal/period"
)

// TestSearchComplexityPolylog validates the §4.3 claims empirically: the
// counted operations of a full two-phase search grow polylogarithmically
// with the number of stored periods, not linearly. We measure mean ops per
// search at N and 64N and require the growth factor to stay far below the
// linear factor.
func TestSearchComplexityPolylog(t *testing.T) {
	measure := func(n int) float64 {
		rng := rand.New(rand.NewSource(int64(n)))
		var ops uint64
		tr := New(&ops)
		const horizon = 1 << 20
		for i := 0; i < n; i++ {
			start := period.Time(rng.Int63n(horizon))
			tr.Insert(period.Period{
				Server: i,
				Start:  start,
				End:    start + 1 + period.Time(rng.Int63n(horizon)),
			})
		}
		ops = 0
		const searches = 400
		for i := 0; i < searches; i++ {
			s := period.Time(rng.Int63n(horizon))
			tr.Search(s, s+period.Time(rng.Int63n(horizon/4)), 8, 0)
		}
		return float64(ops) / searches
	}

	small := measure(64)
	large := measure(64 * 64) // 4096
	growth := large / small
	linear := 64.0
	// log^2 growth predicts (12/6)^2 = 4x; allow generous slack for the
	// marked-subtree constant, but reject anything close to linear.
	if growth > linear/4 {
		t.Fatalf("search ops grew %.1fx from N=64 to N=4096 (linear would be %.0fx): not polylogarithmic", growth, linear)
	}
	t.Logf("search ops: N=64 -> %.0f, N=4096 -> %.0f (%.1fx growth; log^2 predicts ~4x)", small, large, growth)
}

// TestUpdateComplexityPolylog does the same for insert+delete pairs.
func TestUpdateComplexityPolylog(t *testing.T) {
	measure := func(n int) float64 {
		rng := rand.New(rand.NewSource(int64(n)))
		var ops uint64
		tr := New(&ops)
		const horizon = 1 << 20
		ps := make([]period.Period, n)
		for i := 0; i < n; i++ {
			start := period.Time(rng.Int63n(horizon))
			ps[i] = period.Period{Server: i, Start: start, End: start + 1 + period.Time(rng.Int63n(horizon))}
			tr.Insert(ps[i])
		}
		ops = 0
		const updates = 400
		for i := 0; i < updates; i++ {
			p := ps[rng.Intn(len(ps))]
			tr.Delete(p)
			tr.Insert(p)
		}
		return float64(ops) / (2 * updates)
	}
	small := measure(64)
	large := measure(4096)
	growth := large / small
	if growth > 16 {
		t.Fatalf("update ops grew %.1fx from N=64 to N=4096: amortization broken", growth)
	}
	t.Logf("update ops: N=64 -> %.0f, N=4096 -> %.0f (%.1fx growth)", small, large, growth)
}
