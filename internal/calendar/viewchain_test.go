package calendar

// Tests for view publication over the chunked copy-on-write ring (ring.go).
//
// FuzzViewChain publishes at fuzzer-chosen points, retains the last eight
// views and re-asks each of them everything it answered at publication after
// every later mutation. FuzzViewAcrossAdvance holds a view against the live
// backend as only the clock moves. TestViewReadersRace does the same from concurrent
// readers under -race. TestDtreeOpsAcrossPublishPinned holds the operation
// counter of a scripted run to the value the one-level ring produced.

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coalloc/internal/period"
)

// chainRings are the ring sizes the view chain runs on: one chunk, a ring
// that is not a multiple of the chunk, and the shipped horizon.
var chainRings = []int{20, 70, 672}

const chainRetain = 8

// retainedView is a published view with the answers it gave at publication.
type retainedView struct {
	v                View
	epoch            uint64
	now, horizonEnd  period.Time
	starts, ends     []period.Time
	answers          [][]period.Period
	publishedAtStep  int
	publishedBackend string
}

// retain publishes a view of c and records its answers over a window grid:
// 24 evenly spaced instants across the active window plus the starts of the
// 16 newest live allocations, each asked for one tick and for two slots.
func retain(c AvailabilityBackend, live []fuzzLive, step int, backend string) retainedView {
	v := c.PublishView()
	r := retainedView{v: v, epoch: v.Epoch(), now: v.Now(), horizonEnd: v.HorizonEnd(), publishedAtStep: step, publishedBackend: backend}
	span := c.HorizonEnd() - c.WindowStart()
	var at []period.Time
	for k := 0; k < 24; k++ {
		at = append(at, c.WindowStart()+period.Time(int64(span)*int64(k)/24))
	}
	for _, a := range live[max(0, len(live)-16):] {
		at = append(at, a.start)
	}
	for _, s := range at {
		for _, d := range []period.Time{1, period.Time(2 * c.Config().SlotSize)} {
			r.starts = append(r.starts, s)
			r.ends = append(r.ends, s+d)
			r.answers = append(r.answers, v.RangeSearch(s, s+d))
		}
	}
	return r
}

// check fails the test if the view answers anything differently now.
func (r retainedView) check(t *testing.T, step int) {
	t.Helper()
	if r.v.Epoch() != r.epoch || r.v.Now() != r.now || r.v.HorizonEnd() != r.horizonEnd {
		t.Fatalf("%s step %d: view of step %d moved: epoch %d now %d horizon %d, published as %d %d %d",
			r.publishedBackend, step, r.publishedAtStep, r.v.Epoch(), r.v.Now(), r.v.HorizonEnd(), r.epoch, r.now, r.horizonEnd)
	}
	for k := range r.starts {
		if got := r.v.RangeSearch(r.starts[k], r.ends[k]); !slices.Equal(got, r.answers[k]) {
			t.Fatalf("%s step %d: view of step %d RangeSearch[%d,%d) = %v, answered %v at publication",
				r.publishedBackend, step, r.publishedAtStep, r.starts[k], r.ends[k], got, r.answers[k])
		}
		if n := r.v.Available(r.starts[k], r.ends[k]); n != len(r.answers[k]) {
			t.Fatalf("%s step %d: view of step %d Available[%d,%d) = %d, RangeSearch lists %d",
				r.publishedBackend, step, r.publishedAtStep, r.starts[k], r.ends[k], n, len(r.answers[k]))
		}
	}
}

// chainStep applies one decoded op to c: 0 allocate, 1 release, 2 advance
// (one in eight a jump past the whole horizon), 3 nothing — the caller
// publishes. It reports whether c may have changed.
func chainStep(t *testing.T, c AvailabilityBackend, op fuzzOp, live *[]fuzzLive) bool {
	t.Helper()
	switch op.kind {
	case 0:
		s, e := fuzzWindow(c, op)
		want := 1 + int(op.c)%3
		feasible, _ := c.FindFeasible(s, e, want)
		if len(feasible) < want {
			return false
		}
		for _, p := range feasible[:want] {
			if err := c.Allocate(p, s, e); err != nil {
				t.Fatalf("allocate %+v: %v", p, err)
			}
			*live = append(*live, fuzzLive{p.Server, s, e})
		}
	case 1:
		if len(*live) == 0 {
			return false
		}
		i := int(op.a) % len(*live)
		a := (*live)[i]
		*live = append((*live)[:i], (*live)[i+1:]...)
		if a.end <= c.Now() {
			return false
		}
		newEnd := a.start + period.Time(int64(op.b)%int64(a.end-a.start))
		if err := c.Release(a.server, a.start, a.end, newEnd); err != nil {
			t.Fatalf("release %+v -> %d: %v", a, newEnd, err)
		}
	case 2:
		by := period.Time(int64(op.a) % (3 * int64(fuzzCfg.SlotSize)))
		if op.b%8 == 0 {
			by += c.HorizonEnd() - c.WindowStart()
		}
		c.Advance(c.Now() + by)
	default:
		return false
	}
	return true
}

// viewChain drives one backend on a ring of the given size.
func viewChain(t *testing.T, backend string, slots int, ops []fuzzOp) {
	cfg := Config{Servers: fuzzCfg.Servers, SlotSize: fuzzCfg.SlotSize, Slots: slots}
	c, err := NewBackend(backend, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	var live []fuzzLive
	var kept []retainedView
	for step, op := range ops {
		if op.kind == 3 || op.c&0x80 != 0 {
			if len(kept) == chainRetain {
				kept = kept[1:]
			}
			kept = append(kept, retain(c, live, step, backend))
		}
		if !chainStep(t, c, op, &live) {
			continue
		}
		for _, r := range kept {
			r.check(t, step)
		}
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatalf("%s: %v", backend, err)
	}
	// A view cut now agrees with the backend it was cut from.
	r := retain(c, live, len(ops), backend)
	for k := range r.starts {
		if want := c.RangeSearch(r.starts[k], r.ends[k]); !slices.Equal(r.answers[k], want) {
			t.Fatalf("%s: fresh view RangeSearch[%d,%d) = %v, backend %v", backend, r.starts[k], r.ends[k], r.answers[k], want)
		}
	}
}

func FuzzViewChain(f *testing.F) {
	// The first byte picks the ring; seed every ring with every op mix.
	for ring := range chainRings {
		f.Add([]byte{byte(ring)})
		f.Add(append([]byte{byte(ring)}, bytes.Repeat([]byte{0, 1, 44, 0, 180, 0x82, 3, 0, 0, 0, 0, 0, 1, 0, 0, 0, 90, 0}, 12)...))
		f.Add(append([]byte{byte(ring)}, bytes.Repeat([]byte{0, 0, 70, 0, 90, 0x81, 2, 0, 70, 0, 1, 0, 0, 9, 44, 0, 180, 1, 2, 0, 20, 0, 8, 0x80, 1, 0, 1, 0, 7, 0}, 8)...))
		f.Add(append([]byte{byte(ring)}, bytes.Repeat([]byte{0, 30, 0, 1, 0, 2, 0, 90, 0, 0, 60, 0x80, 2, 0, 149, 0, 3, 0, 1, 0, 0, 0, 0, 0x80}, 10)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		slots := chainRings[int(data[0])%len(chainRings)]
		ops := decodeFuzzOps(data[1:])
		// One op on a trailing period touches every slot of the ring: keep
		// slots x ops bounded so the big ring does not starve the fuzzer.
		ops = ops[:min(len(ops), 32+4096/slots)]
		for _, name := range Backends() {
			viewChain(t, name, slots, ops)
		}
	})
}

// acrossAdvance checks the invariant a grid site's read path rests on: with
// nothing but the clock moving, a view cut at T0 and the live backend at any
// T1 >= T0 return the same RangeSearch for every window that starts at or
// after T1 and ends inside the view's horizon — rotation (§4.1) retires the
// slots behind T1 and fills the ones entering the horizon, and touches no
// slot in between. It moves c through the given clock steps, asking after
// each.
func acrossAdvance(t *testing.T, backend string, c AvailabilityBackend, live []fuzzLive, steps []period.Time) {
	t.Helper()
	v := c.PublishView()
	slot := period.Time(c.Config().SlotSize)
	for _, by := range steps {
		c.Advance(c.Now() + by)
		t1, h := c.Now(), v.HorizonEnd()
		if t1 >= h {
			return // a whole-horizon jump leaves no window inside both
		}
		at := []period.Time{t1, t1 + 1, (t1/slot + 1) * slot, h - slot, h - 1}
		for k := int64(1); k < 12; k++ {
			at = append(at, t1+period.Time(int64(h-t1)*k/12))
		}
		for _, a := range live {
			at = append(at, a.start, a.end)
		}
		for _, s := range at {
			if s < t1 || s >= h {
				continue
			}
			for _, e := range []period.Time{s + 1, s + 2*slot, h} {
				if e > h {
					continue
				}
				if got, want := v.RangeSearch(s, e), c.RangeSearch(s, e); !slices.Equal(got, want) {
					t.Fatalf("%s: view of %d at clock %d: RangeSearch[%d,%d) = %v, live backend %v",
						backend, v.Now(), t1, s, e, got, want)
				}
			}
		}
	}
}

// viewAcrossAdvance drives one backend on a ring of the given size through
// ops, stopping where the op stream says to check acrossAdvance over three
// clock steps drawn from the op: inside a slot, a few slots, and one in four
// times the rest of the horizon and beyond.
func viewAcrossAdvance(t *testing.T, backend string, slots int, ops []fuzzOp) {
	cfg := Config{Servers: fuzzCfg.Servers, SlotSize: fuzzCfg.SlotSize, Slots: slots}
	c, err := NewBackend(backend, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	var live []fuzzLive
	for _, op := range ops {
		if op.kind == 3 || op.c&0x80 != 0 {
			steps := []period.Time{
				period.Time(int64(op.a) % int64(cfg.SlotSize)),
				period.Time(int64(op.b) % (5 * int64(cfg.SlotSize))),
				0,
			}
			if op.c%4 == 0 {
				steps[2] = c.HorizonEnd() - c.WindowStart() + period.Time(op.a%3) - 1
			}
			acrossAdvance(t, backend, c, live, steps)
		}
		chainStep(t, c, op, &live)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatalf("%s: %v", backend, err)
	}
}

func FuzzViewAcrossAdvance(f *testing.F) {
	for ring := range chainRings {
		f.Add([]byte{byte(ring)})
		f.Add(append([]byte{byte(ring)}, bytes.Repeat([]byte{0, 1, 44, 0, 180, 0x82, 3, 0, 7, 0, 60, 0, 1, 0, 0, 0, 90, 0}, 12)...))
		f.Add(append([]byte{byte(ring)}, bytes.Repeat([]byte{0, 0, 70, 0, 90, 0x81, 2, 0, 70, 0, 1, 0, 0, 9, 44, 0, 180, 1, 3, 0, 20, 0, 8, 0x80, 1, 0, 1, 0, 7, 0}, 8)...))
		f.Add(append([]byte{byte(ring)}, bytes.Repeat([]byte{0, 30, 0, 1, 0, 2, 0, 90, 0, 0, 60, 0x84, 2, 0, 149, 0, 3, 0, 1, 0, 0, 0, 0, 0x80}, 10)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		slots := chainRings[int(data[0])%len(chainRings)]
		ops := decodeFuzzOps(data[1:])
		ops = ops[:min(len(ops), 32+4096/slots)] // as in FuzzViewChain
		for _, name := range Backends() {
			viewAcrossAdvance(t, name, slots, ops)
		}
	})
}

// TestViewAnswersAcrossAdvance runs the across-advance invariant on a long
// seeded stream per ring, so plain `go test` covers more than the fuzz seeds.
func TestViewAnswersAcrossAdvance(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b backendCase) {
		for i, slots := range chainRings {
			viewAcrossAdvance(t, b.name, slots, randomChainOps(int64(23+i), 600))
		}
	})
}

// randomChainOps is a seeded op stream for the non-fuzz tests below.
func randomChainOps(seed int64, n int) []fuzzOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]fuzzOp, n)
	for i := range ops {
		ops[i] = fuzzOp{kind: byte(rng.Intn(4)), a: uint16(rng.Intn(1 << 16)), b: uint16(rng.Intn(1 << 16)), c: uint16(rng.Intn(256))}
	}
	return ops
}

// TestViewChainRandom runs the view chain on a long seeded stream per ring,
// so plain `go test` covers more than the fuzz seeds do.
func TestViewChainRandom(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b backendCase) {
		for i, slots := range chainRings {
			viewChain(t, b.name, slots, randomChainOps(int64(7+i), 600))
		}
	})
}

// TestViewReadersRace: readers keep searching the views they were handed —
// current and superseded — while the writer allocates, releases, rotates and
// publishes. Under -race any write that reaches a published chunk, slot
// value or tail index is reported; without it, a changed answer is.
func TestViewReadersRace(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b backendCase) {
		c := b.mustNew(t, Config{Servers: fuzzCfg.Servers, SlotSize: fuzzCfg.SlotSize, Slots: 70}, 0)
		var cur atomic.Pointer[retainedView]
		first := retain(c, nil, 0, b.name)
		cur.Store(&first)
		done := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var held []*retainedView
				for stop := false; !stop; {
					select {
					case <-done:
						stop = true // one more pass over everything held
					default:
					}
					if v := cur.Load(); len(held) == 0 || held[len(held)-1] != v {
						if len(held) == chainRetain {
							held = held[1:]
						}
						held = append(held, v)
					}
					for _, h := range held {
						for k := range h.starts {
							if got := h.v.RangeSearch(h.starts[k], h.ends[k]); !slices.Equal(got, h.answers[k]) {
								t.Errorf("view of step %d RangeSearch[%d,%d) = %v, answered %v at publication",
									h.publishedAtStep, h.starts[k], h.ends[k], got, h.answers[k])
								return
							}
						}
					}
				}
			}()
		}
		var live []fuzzLive
		for step, op := range randomChainOps(11, 1500) {
			chainStep(t, c, op, &live)
			if step%3 == 0 {
				r := retain(c, live, step, b.name)
				cur.Store(&r)
			}
		}
		close(done)
		wg.Wait()
	})
}

// TestDtreeOpsAcrossPublishPinned: the Fig. 7(b) counter of a scripted run
// with a view published every few ops is the number the one-level ring
// produced at the parent of the chunked ring — publication still marks every
// slot a view can reach shared, so the writer clones exactly the same trees.
func TestDtreeOpsAcrossPublishPinned(t *testing.T) {
	want := map[int]uint64{20: 18197, 70: 61053, 672: 834791}
	for _, slots := range chainRings {
		c, err := NewBackend("dtree", Config{Servers: fuzzCfg.Servers, SlotSize: fuzzCfg.SlotSize, Slots: slots}, 0)
		if err != nil {
			t.Fatal(err)
		}
		var live []fuzzLive
		for step, op := range randomChainOps(3, 400) {
			chainStep(t, c, op, &live)
			if step%4 == 0 {
				c.PublishView()
			}
		}
		if got := c.Ops(); got != want[slots] {
			t.Errorf("%d slots: dtree Ops() = %d, pinned %d", slots, got, want[slots])
		}
	}
}

// TestRingPublishCopiesWhatWasWritten pins the cost model of ring.publish on
// a ring that is not a multiple of the chunk: an unwritten ring republishes
// the same table, a write copies its own chunk and no other, and a table
// already handed out never changes.
func TestRingPublishCopiesWhatWasWritten(t *testing.T) {
	r := newRing(70, func(v int) int { return v })
	for i := int64(0); i < 70; i++ {
		r.set(i, int(i))
	}
	p1 := r.publish()
	if len(p1) != 3 || len(p1[2]) != 70-2*chunkSlots {
		t.Fatalf("70 slots published as %d chunks, last of %d", len(p1), len(p1[2]))
	}
	if p2 := r.publish(); &p2[0] != &p1[0] {
		t.Fatal("publishing an unwritten ring built a new table")
	}
	if got := r.owned(33); got != 33 {
		t.Fatalf("owned(33) = %d", got)
	}
	r.set(33, -1)
	p3 := r.publish()
	if &p3[0][0] != &p1[0][0] || &p3[2][0] != &p1[2][0] {
		t.Fatal("publish copied a chunk nobody wrote")
	}
	if &p3[1][0] == &p1[1][0] || &p3[1][0] == &r.chunks[1][0] {
		t.Fatal("publish did not copy the written chunk")
	}
	if p1.at(33) != 33 || p3.at(33) != -1 || r.at(70+33) != -1 {
		t.Fatalf("slot 33: first table %d, second %d, ring %d", p1.at(33), p3.at(33), r.at(70+33))
	}
	for i, sh := range r.shared {
		if !sh {
			t.Fatalf("position %d not shared after publish", i)
		}
	}
}

// TestPublishUnchangedAllocatesOnlyTheView: with nothing written and no tail
// moved since the last view, publication is the View value and nothing else.
func TestPublishUnchangedAllocatesOnlyTheView(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b backendCase) {
		c := b.mustNew(t, Config{Servers: 43, SlotSize: 900, Slots: 672}, 0)
		f, _ := c.FindFeasible(1800, 3600, 2)
		for _, p := range f {
			if err := c.Allocate(p, 1800, 3600); err != nil {
				t.Fatal(err)
			}
		}
		c.PublishView()
		if n := testing.AllocsPerRun(100, func() { c.PublishView() }); n != 1 {
			t.Fatalf("PublishView of an unchanged backend allocates %v times, want 1", n)
		}
	})
}

// BenchmarkPublishView times PublishView alone on the shipped shape (43
// servers, 672 slots) after writes that dirtied no chunk, the chunk or two an
// hour-long reservation spans, and every chunk (a reservation at the far end
// of a trailing idle period, whose remainder is indexed in every slot before
// it). The mutation between publishes is untimed; publish-ns is the mean.
func BenchmarkPublishView(b *testing.B) {
	cases := []struct {
		name  string
		start period.Time // of the hour reserved and cancelled between publishes; 0 for none
	}{
		{"unchanged", 0},
		{"one-reservation", period.Time(3 * period.Hour)},
		{"every-chunk", period.Time(660 * 15 * period.Minute)},
	}
	for _, tc := range cases {
		for _, backend := range Backends() {
			b.Run(tc.name+"/"+backend, func(b *testing.B) {
				c, err := NewBackend(backend, Config{Servers: 43, SlotSize: 15 * period.Minute, Slots: 672}, 0)
				if err != nil {
					b.Fatal(err)
				}
				// Some standing load, so slot values are not all empty.
				for i := 0; i < 86; i++ {
					s := period.Time(int64(1+i%40) * int64(period.Hour))
					f, _ := c.FindFeasible(s, s.Add(2*period.Hour), 1)
					if err := c.Allocate(f[0], s, s.Add(2*period.Hour)); err != nil {
						b.Fatal(err)
					}
				}
				c.PublishView()
				var spent time.Duration
				for i := 0; i < b.N; i++ {
					if tc.start != 0 {
						end := tc.start.Add(period.Hour)
						f, _ := c.FindFeasible(tc.start, end, 1)
						if err := c.Allocate(f[0], tc.start, end); err != nil {
							b.Fatal(err)
						}
						if err := c.Release(f[0].Server, tc.start, end, tc.start); err != nil {
							b.Fatal(err)
						}
					}
					t0 := time.Now()
					c.PublishView()
					spent += time.Since(t0)
				}
				b.ReportMetric(float64(spent)/float64(b.N), "publish-ns")
			})
		}
	}
}
