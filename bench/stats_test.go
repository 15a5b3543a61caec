package main

import (
	"sync"
	"testing"
	"time"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{50, 0, false},        // p90 would have 5 samples beyond it
		{100, 90, true},       // exactly 10 beyond p90
		{999, 90, true},       // p99 would have 9.99
		{1000, 99, true},      // exactly 10 beyond p99
		{25000, 99.9, true},   // 25 beyond p99.9, 2.5 beyond p99.99
		{100000, 99.99, true}, // exactly 10 beyond p99.99
	} {
		got, ok := highestPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i+1) * 1000 // 1..100 µs
	}
	if got := percentile(s, 50); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := percentile(s, 99); got != 99 {
		t.Errorf("p99 = %v, want 99", got)
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("p99 of nothing = %v", got)
	}
	sum := summarize(s)
	if sum.Samples != 100 || sum.TailP != 90 || sum.TailUs != 90 {
		t.Errorf("summary %+v: with 100 samples the reportable tail is p90", sum)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{
		{Start: 10, End: 40},
		{Start: 30, End: 60},  // overlaps the first: [10,60) counts once
		{Start: 35, End: 38},  // nested in both
		{Start: 80, End: 120}, // runs past the parent: clipped to [80,100)
		{Start: -5, End: 5},   // starts before it: clipped to [0,5)
	}
	// Covered: [0,5) + [10,60) + [80,100) = 75.
	if got := selfTime(parent, kids); got != 25 {
		t.Errorf("self time = %d, want 25", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
}

// TestLinkSpansNestedOps: with two clients in flight an op can lie wholly
// inside the other's interval; the conn spans go to the tighter fit.
func TestLinkSpansNestedOps(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spCoalloc, Start: 0, End: 1000, site: -1},
		{ID: 2, Name: spProbeAll, Start: 400, End: 500, site: -1},
		{ID: 3, Name: spProbe, Start: 10, End: 90, trace: 11},
		{ID: 4, Name: spPrepare, Start: 100, End: 900, trace: 11, site: 1},
		{ID: 5, Name: spProbe, Start: 410, End: 480, trace: 22},
		{ID: 6, Name: spWALBatch, Start: 200, End: 800, site: 1},
		{ID: 7, Name: spWALBatch, Start: 300, End: 400, site: 2}, // another site: no parent here
	}
	linkSpans(spans)
	for _, c := range []struct{ id, parent, op uint64 }{{3, 1, 1}, {4, 1, 1}, {5, 2, 2}, {6, 4, 1}, {7, 0, 0}} {
		s := spans[c.id-1]
		if s.Parent != c.parent || s.Op != c.op {
			t.Errorf("span %d: parent %d op %d, want parent %d op %d", c.id, s.Parent, s.Op, c.parent, c.op)
		}
	}
	a := analyse(spans)
	var co opAnalysis
	for _, op := range a.ops {
		if op.name == spCoalloc {
			co = op
		}
	}
	// The coalloc's conn spans cover [10,90) and [100,900): 880 of 1000.
	if co.broker != 120 || co.wal != 600 || co.below != 280 || co.calls != 2 {
		t.Errorf("coalloc attribution %+v", co)
	}
}

// TestOpenLoopChargesAStallToLaterOps injects a 50 ms stall into one
// operation of a one-worker open loop. Every operation that fell due during
// the stall must show it in its latency (timed from the due time) and the
// generator must report that it ran late.
func TestOpenLoopChargesAStallToLaterOps(t *testing.T) {
	const n, gap, stallAt, stall = 40, 5 * time.Millisecond, 10, 50 * time.Millisecond
	ops := make([]openOp, n)
	for i := range ops {
		ops[i] = openOp{due: time.Duration(i) * gap, rung: i}
	}
	var mu sync.Mutex
	latency := make([]time.Duration, n)
	tr := runSchedule(ops, 1, time.Sleep, func(_ int, op openOp, due time.Time) {
		if op.rung == stallAt {
			time.Sleep(stall)
		}
		mu.Lock()
		latency[op.rung] = time.Since(due)
		mu.Unlock()
	})
	if latency[stallAt] < stall {
		t.Errorf("stalled op latency %v, want >= %v", latency[stallAt], stall)
	}
	// The op due one gap after the stall began waited for the rest of it.
	if want := stall - gap - 2*time.Millisecond; latency[stallAt+1] < want {
		t.Errorf("op after the stall: latency %v from its due time, want >= %v (a closed loop would report ~0)", latency[stallAt+1], want)
	}
	if latency[stallAt-1] > 20*time.Millisecond {
		t.Errorf("op before the stall: latency %v", latency[stallAt-1])
	}
	if lag := p99Us(tr.lag); lag < 30000 {
		t.Errorf("lag p99 = %.0f us, want the stall (>= 30000) reported", lag)
	}
	maxBacklog := 0
	for _, b := range tr.backlog {
		maxBacklog = max(maxBacklog, b)
	}
	if maxBacklog < 5 {
		t.Errorf("max backlog %d: the ops that fell due during the stall were not counted", maxBacklog)
	}
	if backlogGrew(tr.backlog) {
		t.Error("a drained stall is not a growing backlog")
	}
	growing := make([]int, 400)
	for i := range growing {
		growing[i] = i
	}
	if !backlogGrew(growing) {
		t.Error("a backlog that rises through the window must be reported")
	}
}

func TestOpenScheduleMix(t *testing.T) {
	ops := openSchedule(100, time.Second, 1)
	co, pr := 0, 0
	for i, op := range ops {
		if i > 0 && op.due < ops[i-1].due {
			t.Fatal("schedule not in due order")
		}
		if op.coalloc {
			co++
		} else {
			pr++
			if op.rung < 0 || op.rung >= hotWindows {
				t.Fatalf("rung %d outside the hot set", op.rung)
			}
		}
	}
	if co != 100 || pr != 400 {
		t.Errorf("%d co-allocations and %d probes in 1 s at R=100, want 100 and 400", co, pr)
	}
}

func TestVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		change []float64
		better string
		bound  float64
		want   string
	}{
		{[]float64{104, 105, 103}, "lower", 0.10, "ok"},
		{[]float64{115, 116, 114}, "lower", 0.10, "worse"},
		{[]float64{85, 86, 84}, "lower", 0.10, "ok"}, // better is never worse
		{[]float64{85, 86, 84}, "higher", 0.10, "worse"},
		{[]float64{115, 116, 114}, "lower", 0.01, "unresolved"}, // base spread 2% > 1% bound
	} {
		if got, _, _ := verdictFor(base, c.change, c.better, c.bound); got != c.want {
			t.Errorf("change %v (%s better, bound %v): %s, want %s", c.change, c.better, c.bound, got, c.want)
		}
	}
	// Same numbers as Python's statistics.quantiles(range(1, 11), n=4).
	q1, med, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}
