package calendar

// Native Go fuzz targets for the availability backends.
//
// FuzzCalendarOps drives one backend at a time with a fuzzer-chosen op
// sequence (allocate / release / advance / range-check) and cross-checks
// every answer against internal/oracle's brute-force linear scan — the same
// differential idea as TestRandomizedAgainstOracle, but with the fuzzer
// steering the schedule shapes instead of one fixed RNG walk.
//
// FuzzBackendEquivalence applies the identical op sequence to every
// registered backend in lockstep and requires identical observable
// behaviour: feasible sets, candidate counts, mutation epochs, horizon
// edges, and (Ops-normalized) snapshot bytes. It is the executable form of
// the backend contract in DESIGN.md §15.

import (
	"bytes"
	"encoding/gob"
	"testing"

	"coalloc/internal/oracle"
	"coalloc/internal/period"
)

// fuzzCfg keeps the state space small enough that a short fuzz run reaches
// interesting collisions: few servers, a short horizon, frequent rotation.
var fuzzCfg = Config{Servers: 5, SlotSize: 50, Slots: 16}

const (
	fuzzOpBytes = 6   // kind + 5 operand bytes per decoded op
	fuzzMaxOps  = 256 // cap per input so one case stays fast
)

// fuzzOp is one decoded operation.
type fuzzOp struct {
	kind    byte
	a, b, c uint16
}

// decodeFuzzOps turns a fuzzer byte string into a bounded op list: 6 bytes
// per op — kind, two 16-bit operands, one 8-bit operand.
func decodeFuzzOps(data []byte) []fuzzOp {
	n := len(data) / fuzzOpBytes
	if n > fuzzMaxOps {
		n = fuzzMaxOps
	}
	ops := make([]fuzzOp, 0, n)
	for i := 0; i < n; i++ {
		d := data[i*fuzzOpBytes:]
		ops = append(ops, fuzzOp{
			kind: d[0] % 4,
			a:    uint16(d[1])<<8 | uint16(d[2]),
			b:    uint16(d[3])<<8 | uint16(d[4]),
			c:    uint16(d[5]),
		})
	}
	return ops
}

// fuzzLive tracks an allocation both sides of a differential pair hold.
type fuzzLive struct {
	server     int
	start, end period.Time
}

// fuzzWindow derives a search window from op operands, relative to now.
func fuzzWindow(c AvailabilityBackend, op fuzzOp) (period.Time, period.Time) {
	span := int64(c.HorizonEnd() - c.Now())
	s := c.Now() + period.Time(int64(op.a)%(span+1))
	e := s + 1 + period.Time(int64(op.b)%(6*int64(fuzzCfg.SlotSize)))
	return s, e
}

func fuzzSeeds(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 10, 0, 200, 2, 3, 0, 50, 0, 0, 0, 0, 0, 30, 0, 99, 1})
	f.Add(bytes.Repeat([]byte{0, 1, 44, 0, 180, 2}, 24))
	f.Add(bytes.Repeat([]byte{2, 0, 70, 0, 0, 0, 0, 0, 44, 0, 180, 1, 1, 0, 0, 0, 90, 0}, 12))
	f.Add(bytes.Repeat([]byte{3, 1, 0, 0, 255, 0, 0, 2, 200, 1, 44, 3}, 16))
}

func FuzzCalendarOps(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, name := range Backends() {
			fuzzAgainstOracle(t, name, decodeFuzzOps(data))
		}
	})
}

// fuzzAgainstOracle runs one op sequence on one backend, mirroring every
// mutation into the brute-force oracle and comparing every answer.
func fuzzAgainstOracle(t *testing.T, backend string, ops []fuzzOp) {
	c, err := NewBackend(backend, fuzzCfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	o, err := oracle.New(oracle.Config{
		Servers: fuzzCfg.Servers, SlotSize: fuzzCfg.SlotSize, Slots: fuzzCfg.Slots,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var live []fuzzLive
	for step, op := range ops {
		switch op.kind {
		case 0: // allocate
			s, e := fuzzWindow(c, op)
			if e > c.HorizonEnd() {
				continue
			}
			want := 1 + int(op.c)%3
			feasible, _ := c.FindFeasible(s, e, want)
			idle := len(o.Feasible(s, e))
			if len(feasible) >= want && idle < want {
				t.Fatalf("%s step %d: found %d servers for [%d,%d), oracle has %d idle",
					backend, step, len(feasible), s, e, idle)
			}
			if len(feasible) < want && idle >= want {
				t.Fatalf("%s step %d: search failed (%d found) for [%d,%d), oracle has %d idle",
					backend, step, len(feasible), s, e, idle)
			}
			if len(feasible) < want {
				continue
			}
			var servers []int
			for _, p := range feasible[:want] {
				if err := c.Allocate(p, s, e); err != nil {
					t.Fatalf("%s step %d: allocate %+v: %v", backend, step, p, err)
				}
				servers = append(servers, p.Server)
				live = append(live, fuzzLive{p.Server, s, e})
			}
			if err := o.Allocate(servers, s, e); err != nil {
				t.Fatalf("%s step %d: oracle rejects granted servers: %v", backend, step, err)
			}
		case 1: // release
			if len(live) == 0 {
				continue
			}
			i := int(op.a) % len(live)
			a := live[i]
			if a.end <= c.Now() {
				continue // past holds stay history, as in the site workload
			}
			newEnd := a.start + period.Time(int64(op.b)%int64(a.end-a.start))
			if err := c.Release(a.server, a.start, a.end, newEnd); err != nil {
				t.Fatalf("%s step %d: release %+v -> %d: %v", backend, step, a, newEnd, err)
			}
			if err := o.Release([]int{a.server}, a.start, a.end, newEnd); err != nil {
				t.Fatalf("%s step %d: oracle release: %v", backend, step, err)
			}
			live = append(live[:i], live[i+1:]...)
		case 2: // advance
			now := c.Now() + period.Time(int64(op.a)%(3*int64(fuzzCfg.SlotSize)))
			c.Advance(now)
			o.Advance(now)
		case 3: // range-check
			s, e := fuzzWindow(c, op)
			got := serversOf(c.RangeSearch(s, e))
			want := o.Feasible(s, e)
			if want == nil {
				want = []int{}
			}
			if !equalInts(got, want) {
				t.Fatalf("%s step %d: RangeSearch[%d,%d) = %v, oracle %v", backend, step, s, e, got, want)
			}
		}
		if step%32 == 0 {
			if err := c.CheckConsistency(); err != nil {
				t.Fatalf("%s step %d: %v", backend, step, err)
			}
		}
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatalf("%s final: %v", backend, err)
	}
}

// normalizedSnapshot gob-encodes a backend's snapshot with Ops zeroed. The
// operation counter is the one field allowed to differ across backends (each
// counts its own currency of elementary work), so cross-backend byte
// comparison normalizes it away; within one backend the crash sweep in
// internal/grid checks the counter byte-for-byte.
func normalizedSnapshot(t *testing.T, c AvailabilityBackend) []byte {
	t.Helper()
	s := c.SnapshotData()
	s.Ops = 0
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func FuzzBackendEquivalence(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		names := Backends()
		if len(names) < 2 {
			t.Skip("need at least two backends")
		}
		cals := make([]AvailabilityBackend, len(names))
		for i, name := range names {
			c, err := NewBackend(name, fuzzCfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			cals[i] = c
		}
		ref := cals[0] // drives server selection; all backends must agree anyway
		var live []fuzzLive

		// agree asserts the lockstep invariants that must hold after every op,
		// and that a view cut now counts for the op's window exactly what its
		// backend lists.
		agree := func(step int, op fuzzOp) {
			s, e := fuzzWindow(ref, op)
			for i, c := range cals {
				if n, want := c.PublishView().Available(s, e), len(c.RangeSearch(s, e)); n != want {
					t.Fatalf("step %d: %s view Available[%d,%d) = %d, RangeSearch lists %d", step, names[i], s, e, n, want)
				}
			}
			for i := 1; i < len(cals); i++ {
				if a, b := ref.MutationEpoch(), cals[i].MutationEpoch(); a != b {
					t.Fatalf("step %d: epoch %s=%d %s=%d", step, names[0], a, names[i], b)
				}
				if a, b := ref.HorizonEnd(), cals[i].HorizonEnd(); a != b {
					t.Fatalf("step %d: horizon %s=%d %s=%d", step, names[0], a, names[i], b)
				}
				if a, b := ref.Now(), cals[i].Now(); a != b {
					t.Fatalf("step %d: now %s=%d %s=%d", step, names[0], a, names[i], b)
				}
			}
		}

		for step, op := range decodeFuzzOps(data) {
			switch op.kind {
			case 0: // allocate identically on every backend
				s, e := fuzzWindow(ref, op)
				if e > ref.HorizonEnd() {
					continue
				}
				want := 1 + int(op.c)%3
				// The full feasible sets must agree before anyone commits.
				chosen := serversOf(ref.RangeSearch(s, e))
				for i := 1; i < len(cals); i++ {
					got := serversOf(cals[i].RangeSearch(s, e))
					if !equalInts(got, chosen) {
						t.Fatalf("step %d: feasible set [%d,%d): %s=%v %s=%v",
							step, s, e, names[0], chosen, names[i], got)
					}
				}
				// Candidate counts from the bounded search must agree too.
				refFeasible, refCand := ref.FindFeasible(s, e, want)
				for i := 1; i < len(cals); i++ {
					feasible, cand := cals[i].FindFeasible(s, e, want)
					if cand != refCand || len(feasible) != len(refFeasible) {
						t.Fatalf("step %d: FindFeasible[%d,%d) want %d: %s=(%d,%d) %s=(%d,%d)",
							step, s, e, want, names[0], len(refFeasible), refCand,
							names[i], len(feasible), cand)
					}
				}
				if len(chosen) < want {
					continue
				}
				for _, srv := range chosen[:want] {
					for i, c := range cals {
						p, ok := c.PeriodCovering(srv, s, e)
						if !ok {
							t.Fatalf("step %d: %s has no covering period for server %d [%d,%d)",
								step, names[i], srv, s, e)
						}
						if err := c.Allocate(p, s, e); err != nil {
							t.Fatalf("step %d: %s allocate server %d: %v", step, names[i], srv, err)
						}
					}
					live = append(live, fuzzLive{srv, s, e})
				}
			case 1: // release identically
				if len(live) == 0 {
					continue
				}
				i := int(op.a) % len(live)
				a := live[i]
				if a.end <= ref.Now() {
					continue
				}
				newEnd := a.start + period.Time(int64(op.b)%int64(a.end-a.start))
				for j, c := range cals {
					if err := c.Release(a.server, a.start, a.end, newEnd); err != nil {
						t.Fatalf("step %d: %s release %+v -> %d: %v", step, names[j], a, newEnd, err)
					}
				}
				live = append(live[:i], live[i+1:]...)
			case 2: // advance identically
				now := ref.Now() + period.Time(int64(op.a)%(3*int64(fuzzCfg.SlotSize)))
				for _, c := range cals {
					c.Advance(now)
				}
			case 3: // compare a random window
				s, e := fuzzWindow(ref, op)
				want := serversOf(ref.RangeSearch(s, e))
				for i := 1; i < len(cals); i++ {
					got := serversOf(cals[i].RangeSearch(s, e))
					if !equalInts(got, want) {
						t.Fatalf("step %d: RangeSearch[%d,%d): %s=%v %s=%v",
							step, s, e, names[0], want, names[i], got)
					}
				}
			}
			agree(step, op)
			if step%32 == 0 {
				for i, c := range cals {
					if err := c.CheckConsistency(); err != nil {
						t.Fatalf("step %d: %s: %v", step, names[i], err)
					}
				}
			}
		}
		// Final: identical ground truth, byte for byte (Ops normalized).
		wantSnap := normalizedSnapshot(t, ref)
		for i := 1; i < len(cals); i++ {
			if got := normalizedSnapshot(t, cals[i]); !bytes.Equal(got, wantSnap) {
				t.Fatalf("normalized snapshots diverge: %s vs %s", names[0], names[i])
			}
		}
		for i, c := range cals {
			if err := c.CheckConsistency(); err != nil {
				t.Fatalf("final: %s: %v", names[i], err)
			}
		}
	})
}
