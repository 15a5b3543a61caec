package calendar

// BenchmarkBackendRegimes is the decision fixture for the serving default
// (DESIGN.md §15): the regimes the reservation-structure literature uses to
// separate index designs — per operation kind × fragmentation level (de
// Assunção), dense far-future advance reservations on a long horizon (Brodnik
// & Nilsson's static-array regime), and wide requests (the paper's own
// O(n_r·Q·log²N) update term) beside the production-shaped KTH mix — each at
// 43, 128 and 512 servers on the shipped 672-slot horizon, for every backend.
// One iteration replays a whole seeded stream the way core.Scheduler and
// grid.Site drive a backend (advance, Δt-laddered two-phase search, one
// Allocate per server, a view per mutation batch, early releases) and the
// reported metrics are mean nanoseconds per call of each operation kind.
//
//	go test ./internal/calendar -run '^$' -bench BackendRegimes -benchtime 3x

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"coalloc/internal/period"
	"coalloc/internal/workload"
)

const (
	regimeSlot     = 15 * period.Minute
	regimeSlots    = 672
	regimeRequests = 1000
	regimeLadder   = 16 // Δt retries per request, the broker's default R_max
)

// regimeReq is one request of a stream; release, when nonzero, is the
// fraction of the reservation kept before an early release.
type regimeReq struct {
	submit, start period.Time
	dur           period.Duration
	width         int
	release       float64
}

// regimes maps a name to its stream generator for n servers.
var regimes = []struct {
	name string
	gen  func(n int, rng *rand.Rand) []regimeReq
}{
	// The KTH mixture with 30 % advance reservations, offered load held at
	// the trace's by scaling arrivals with the server count; a third of the
	// jobs finish early.
	{"kth", func(n int, rng *rand.Rand) []regimeReq {
		m := workload.KTH()
		m.MeanInterarrival = m.MeanInterarrival * period.Duration(m.Servers) / period.Duration(n)
		m.Servers = n
		for m.MaxPow2 > n {
			m.MaxPow2 /= 2
		}
		m.UniformMaxWidth = min(m.UniformMaxWidth, n)
		jobs := workload.WithAdvanceReservations(m.Generate(regimeRequests, rng.Int63()), 0.3, 3*period.Hour, rng.Int63())
		out := make([]regimeReq, len(jobs))
		for i, j := range jobs {
			out[i] = regimeReq{submit: j.Submit, start: j.Start, dur: j.Duration, width: j.Servers}
			if rng.Intn(3) == 0 {
				out[i].release = 0.25 + 0.5*rng.Float64()
			}
		}
		return out
	}},
	// High fragmentation: one-server reservations of one or two slots
	// scattered over a window sized so every server carries one per two
	// hours, half of them cut short: each slot's index holds a short idle
	// period or two per server instead of one long one.
	{"fragmented", func(n int, rng *rand.Rand) []regimeReq {
		out := make([]regimeReq, regimeRequests)
		window := int64(regimeRequests) * int64(2*period.Hour) / int64(n)
		now := period.Time(0)
		for i := range out {
			now += period.Time(rng.Int63n(window / regimeRequests))
			out[i] = regimeReq{
				submit: now,
				start:  now + period.Time(rng.Int63n(window)),
				dur:    regimeSlot * period.Duration(1+rng.Intn(2)),
				width:  1,
			}
			if rng.Intn(2) == 0 {
				out[i].release = 0.1 + 0.8*rng.Float64()
			}
		}
		return out
	}},
	// Dense advance reservations across the whole horizon: starts uniform
	// over the week ahead while the clock barely moves, so nearly every
	// allocation splits an idle period that spans hundreds of slots.
	{"far-future", func(n int, rng *rand.Rand) []regimeReq {
		out := make([]regimeReq, regimeRequests)
		now := period.Time(0)
		horizon := int64(regimeSlot) * regimeSlots
		for i := range out {
			now += period.Time(rng.Int63n(int64(2 * period.Minute)))
			dur := period.Duration(1+rng.Intn(8)) * period.Hour
			out[i] = regimeReq{
				submit: now,
				start:  now + period.Time(rng.Int63n(horizon-int64(dur)-int64(regimeLadder*regimeSlot)-int64(period.Day))),
				dur:    dur,
				width:  1 + rng.Intn(4),
			}
		}
		return out
	}},
	// Wide requests, n_r >= N/2, on demand: the update term of the paper's
	// bound with the largest n_r the system admits.
	{"wide", func(n int, rng *rand.Rand) []regimeReq {
		out := make([]regimeReq, regimeRequests)
		now := period.Time(0)
		for i := range out {
			now += period.Time(rng.Int63n(int64(2 * period.Hour)))
			out[i] = regimeReq{
				submit: now,
				start:  now,
				dur:    period.Duration(1+rng.Intn(4)) * period.Hour,
				width:  n/2 + rng.Intn(n-n/2+1),
			}
			if rng.Intn(3) == 0 {
				out[i].release = 0.25 + 0.5*rng.Float64()
			}
		}
		return out
	}},
}

// regimeRelease is a granted reservation waiting for its early release.
type regimeRelease struct {
	at, start, end period.Time
	servers        []int
}

type releaseHeap []regimeRelease

func (h releaseHeap) Len() int           { return len(h) }
func (h releaseHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h releaseHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *releaseHeap) Push(x any)        { *h = append(*h, x.(regimeRelease)) }
func (h *releaseHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// opClock accumulates the time and call count of one operation kind.
type opClock struct {
	ns    time.Duration
	calls int
}

func (c *opClock) since(t0 time.Time) { c.ns += time.Since(t0); c.calls++ }

func (c opClock) mean() float64 {
	if c.calls == 0 {
		return 0
	}
	return float64(c.ns) / float64(c.calls)
}

type regimeClocks struct{ find, allocate, release, rotate, publish opClock }

// replayRegime drives one stream through a fresh backend.
func replayRegime(b *testing.B, backend string, n int, stream []regimeReq, clk *regimeClocks) {
	c, err := NewBackend(backend, Config{Servers: n, SlotSize: regimeSlot, Slots: regimeSlots}, 0)
	if err != nil {
		b.Fatal(err)
	}
	var due releaseHeap
	advance := func(now period.Time) {
		if now <= c.Now() {
			return
		}
		before := c.WindowStart()
		t0 := time.Now()
		c.Advance(now)
		if c.WindowStart() != before { // the rest only move the clock
			clk.rotate.since(t0)
		}
	}
	publish := func() {
		t0 := time.Now()
		c.PublishView()
		clk.publish.since(t0)
	}
	for _, r := range stream {
		for len(due) > 0 && due[0].at <= r.submit {
			rel := heap.Pop(&due).(regimeRelease)
			advance(rel.at)
			for _, srv := range rel.servers {
				t0 := time.Now()
				err := c.Release(srv, rel.start, rel.end, rel.at)
				clk.release.since(t0)
				if err != nil {
					b.Fatalf("%s: release: %v", backend, err)
				}
			}
			publish()
		}
		advance(r.submit)
		start := max(r.start, c.Now())
		for try := 0; try < regimeLadder; try, start = try+1, start.Add(regimeSlot) {
			end := start.Add(r.dur)
			if end > c.HorizonEnd() {
				break
			}
			t0 := time.Now()
			feasible, _ := c.FindFeasible(start, end, r.width)
			clk.find.since(t0)
			if len(feasible) < r.width {
				continue
			}
			servers := make([]int, r.width)
			for k, p := range feasible[:r.width] {
				t0 := time.Now()
				err := c.Allocate(p, start, end)
				clk.allocate.since(t0)
				if err != nil {
					b.Fatalf("%s: allocate searched period: %v", backend, err)
				}
				servers[k] = p.Server
			}
			publish()
			if at := start.Add(period.Duration(float64(r.dur) * r.release)); r.release > 0 && at > start {
				heap.Push(&due, regimeRelease{at: at, start: start, end: end, servers: servers})
			}
			break
		}
	}
}

func BenchmarkBackendRegimes(b *testing.B) {
	for _, reg := range regimes {
		for _, n := range []int{43, 128, 512} {
			stream := reg.gen(n, rand.New(rand.NewSource(int64(n))))
			for _, backend := range Backends() {
				b.Run(fmt.Sprintf("%s/N=%d/%s", reg.name, n, backend), func(b *testing.B) {
					var clk regimeClocks
					for i := 0; i < b.N; i++ {
						replayRegime(b, backend, n, stream, &clk)
					}
					b.ReportMetric(clk.find.mean(), "find-ns")
					b.ReportMetric(clk.allocate.mean(), "allocate-ns")
					b.ReportMetric(clk.release.mean(), "release-ns")
					b.ReportMetric(clk.rotate.mean(), "rotate-ns")
					b.ReportMetric(clk.publish.mean(), "publish-ns")
				})
			}
		}
	}
}
