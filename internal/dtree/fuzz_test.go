package dtree

import (
	"testing"

	"coalloc/internal/period"
)

// FuzzTreeOps drives the tree with an arbitrary op-stream decoded from raw
// bytes and cross-checks every result against a brute-force oracle. The
// seed corpus covers inserts, deletes, searches, and rebuild triggers; `go
// test` replays the corpus, `go test -fuzz=FuzzTreeOps` explores.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120})
	f.Add([]byte{255, 254, 253, 252, 251, 250})
	f.Add([]byte("interleaved-insert-delete-search"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr := New(nil)
		o := &oracle{}
		// Decode 3 bytes per op: opcode, a, b.
		for i := 0; i+2 < len(data); i += 3 {
			op, a, b := data[i], int64(data[i+1]), int64(data[i+2])
			switch op % 4 {
			case 0, 1: // insert
				p := period.Period{
					Server: int(a % 16),
					Start:  period.Time(b % 64),
					End:    period.Time(b%64 + 1 + a%64),
				}
				dup := false
				for _, q := range o.periods {
					if q.Equal(p) {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				tr.Insert(p)
				o.insert(p)
			case 2: // delete (an existing element if any)
				if len(o.periods) == 0 {
					continue
				}
				p := o.periods[int(a)%len(o.periods)]
				if !tr.Delete(p) {
					t.Fatalf("delete of existing %+v failed", p)
				}
				o.delete(p)
			case 3: // search
				s := period.Time(a % 80)
				e := s + 1 + period.Time(b%80)
				got, cand := tr.Search(s, e, 0, 0)
				if cand != o.candidates(s) {
					t.Fatalf("candidates(%d) = %d, oracle %d", s, cand, o.candidates(s))
				}
				want := o.feasible(s, e)
				if len(got) != len(want) {
					t.Fatalf("feasible count %d, oracle %d", len(got), len(want))
				}
				if n := tr.CountRO(s, e); n != len(want) {
					t.Fatalf("CountRO(%d, %d) = %d, oracle %d", s, e, n, len(want))
				}
				seen := map[period.Period]bool{}
				for _, p := range got {
					if !p.FeasibleFor(s, e) || seen[p] {
						t.Fatalf("bad search result %+v", p)
					}
					seen[p] = true
				}
			}
			if tr.Len() != len(o.periods) {
				t.Fatalf("Len %d != oracle %d", tr.Len(), len(o.periods))
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
