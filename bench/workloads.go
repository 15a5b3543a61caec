package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"coalloc/internal/period"
)

// Workload names are fixed; later issues cite them.
const (
	wlSWFLocal = "swf_local"
	wlProbeTCP = "probe_tcp"
	wlCoalloc  = "coalloc_tcp_wal"
	wlMixed    = "mixed_open_cached"
)

// workloadSpec is what distinguishes one workload from the next: what sits
// between broker and calendars, how many clients, and which loop drives it.
type workloadSpec struct {
	name    string
	why     string
	clients int
	fixture fixtureConfig
	// streamRate bounds how many jobs per second of window the stream must
	// hold beyond the warm-up; a stream that runs dry ends the run as a
	// failure.
	streamRate int
	// probes: the workload's main operation — the one the end-to-end
	// metrics describe — is the probe, not the co-allocation.
	probes bool
	// fixedCount: a phase co-allocates swfRate × its nominal length jobs
	// however long that takes, so a seed's counts repeat exactly.
	fixedCount bool
	openLoop   bool
	run        func(fx *fixture, p phase) phaseResult
}

// phase is one stretch of load: a warm-up, a measured window or a traced
// window. jobs > 0 makes it a fixed-count phase (swf_local), otherwise it
// runs for d.
type phase struct {
	d       time.Duration
	jobs    int
	clients int
	rate    float64 // open loop: co-allocations per second
	seed    int64
}

// phaseResult is what one phase measured.
type phaseResult struct {
	tally
	elapsed    time.Duration
	cpu        []cpuMark // process CPU at regular marks through the phase
	coallocLat []sample
	probeLat   []sample
	releaseLat []sample
	open       *openTrace // open loop only
	firstErr   error
}

// cpuMark is the process's CPU time at one instant.
type cpuMark struct {
	at  time.Time
	cpu time.Duration
}

// markCPU samples process CPU every interval until stop is closed, and once
// more at the end.
func markCPU(interval time.Duration, stop <-chan struct{}, out *[]cpuMark, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(interval)
	defer t.Stop()
	*out = append(*out, cpuMark{time.Now(), cpuTime()})
	for {
		select {
		case <-t.C:
			*out = append(*out, cpuMark{time.Now(), cpuTime()})
		case <-stop:
			*out = append(*out, cpuMark{time.Now(), cpuTime()})
			return
		}
	}
}

// slicesPerWindow is how many equal slices a window is cut into. Every
// end-to-end rate and percentile is taken per slice (see secondBest): a
// neighbour's burst or a stretch of slow fsyncs disturbs some slices, not
// the run.
const slicesPerWindow = 5

// timed runs f between CPU marks, one per slice of the phase's nominal
// length d, and fills in the phase's timing.
func timed(res *phaseResult, d time.Duration, f func()) {
	stop, done := make(chan struct{}), make(chan struct{})
	start := time.Now()
	go markCPU(d/slicesPerWindow, stop, &res.cpu, done)
	f()
	res.elapsed = time.Since(start)
	close(stop)
	<-done
}

func (r *phaseResult) merge(w *worker) {
	r.tally.add(w.tally)
	r.coallocLat = append(r.coallocLat, w.coallocLat...)
	r.probeLat = append(r.probeLat, w.probeLat...)
	r.releaseLat = append(r.releaseLat, w.releaseLat...)
	if r.firstErr == nil {
		r.firstErr = w.firstErr
	}
}

// runClients runs body on n workers sharing the fixture's broker and times
// the stretch from the first start to the last return.
func runClients(fx *fixture, p phase, body func(w *worker, id int)) phaseResult {
	n := p.clients
	workers := make([]*worker, n)
	for i := range workers {
		workers[i] = &worker{fx: fx, broker: fx.broker}
	}
	var res phaseResult
	timed(&res, p.d, func() {
		var wg sync.WaitGroup
		for i, w := range workers {
			wg.Add(1)
			go func(w *worker, id int) {
				defer wg.Done()
				body(w, id)
			}(w, i)
		}
		wg.Wait()
	})
	for _, w := range workers {
		res.merge(w)
	}
	return res
}

// runJobStream is the closed loop of swf_local and coalloc_tcp_wal: clients
// pull jobs from one cursor, which also hands out the clock, so calendars
// rotate as the stream advances.
func runJobStream(fx *fixture, p phase) phaseResult {
	if p.jobs > 0 {
		fx.cur.limit = fx.cur.next + p.jobs
	} else {
		fx.cur.limit = len(fx.cur.jobs)
	}
	deadline := time.Now().Add(p.d)
	res := runClients(fx, p, func(w *worker, _ int) {
		for p.jobs > 0 || time.Now().Before(deadline) {
			j, due, now, ok := fx.cur.take()
			if !ok {
				if p.jobs == 0 {
					w.fail(fmt.Errorf("job stream of %d ran dry before the window closed", len(fx.cur.jobs)))
				}
				return
			}
			w.releaseDue(now, due)
			if a, ok := w.coalloc(now, j, time.Time{}); ok {
				fx.cur.noteGrant(a)
			}
			fx.cur.done(j)
		}
	})
	return res
}

// rangeEvery: every 8th op of probe_tcp is RangeAll, the rest ProbeAll.
const rangeEvery = 8

// runProbes is the closed loop of probe_tcp: a static clock, so every probe
// is answered lock-free from the sites' published views, and the wire does
// the work (3 RPCs per op).
func runProbes(fx *fixture, p phase) phaseResult {
	wins := probeWindows(1<<15, fx.clock, p.seed+2)
	now := fx.clock
	var next atomic.Int64
	deadline := time.Now().Add(p.d)
	return runClients(fx, p, func(w *worker, _ int) {
		for time.Now().Before(deadline) {
			i := next.Add(1)
			if i%rangeEvery == 0 {
				w.rangeAll(now, wins[int(i)%len(wins)], time.Time{})
			} else {
				w.probeAll(now, wins[int(i)%len(wins)], time.Time{})
			}
		}
	})
}

// Open-loop shape of mixed_open_cached.
const (
	probesPerCoalloc = 4  // 4R ProbeAll/s beside R co-allocations/s
	hotWindows       = 16 // the hot set: the Δt ladder of the job submitted last
)

// hotSet is what the probes of mixed_open_cached ask about: the windows the
// broker considered for the most recent job, at that job's clock. Users
// re-checking the alternatives around a request that was just placed are the
// repeat traffic an availability cache exists for; virtual time moves ~12
// minutes per job, so any hot set not tied to the stream's clock would be
// retired by slot rotation before its second probe.
type hotSet struct {
	now   period.Time
	start period.Time
	dur   period.Duration
}

// openOp is one scheduled operation of the open loop.
type openOp struct {
	due     time.Duration // offset from the phase start
	coalloc bool
	rung    int // probe: which of the hot windows
}

// openSchedule lays out d of ops: rate co-allocations/s plus
// probesPerCoalloc times as many probes, interleaved by due time.
func openSchedule(rate float64, d time.Duration, seed int64) []openOp {
	var ops []openOp
	gap := time.Duration(float64(time.Second) / rate)
	pgap := gap / probesPerCoalloc
	rung := uint64(seed)
	for t := time.Duration(0); t < d; t += gap {
		ops = append(ops, openOp{due: t, coalloc: true})
	}
	for t := pgap / 2; t < d; t += pgap {
		rung = rung*6364136223846793005 + 1442695040888963407
		ops = append(ops, openOp{due: t, rung: int(rung>>33) % hotWindows})
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops
}

// calibrateRate is a rate no federation keeps up with: at or above it every
// op is overdue the moment it is scheduled, the two workers run flat out,
// and the co-allocations they complete per second are the configuration's
// closed-loop capacity. -open-rate is frozen at half of that.
const calibrateRate = 1e5

// openTrace is how the open-loop generator itself behaved.
type openTrace struct {
	lag     []int64 // per op: start − due, ns; how late the generator ran
	backlog []int   // per op, in schedule order: ops due but not yet started
}

// runSchedule is the open-loop scheduler: ops fall due on a fixed schedule
// whatever the system does, workers take them in order as they fall due,
// and exec is told the due time so latency can be timed from it — a stall
// is then charged to every operation it delayed, not just the one that hit
// it. sleep is time.Sleep outside tests.
func runSchedule(ops []openOp, workers int, sleep func(time.Duration), exec func(worker int, op openOp, due time.Time)) openTrace {
	tr := openTrace{lag: make([]int64, len(ops)), backlog: make([]int, len(ops))}
	var next, started atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// A sleeping goroutine wakes late (hundreds of µs on a virtual
			// machine). bias tracks by how much, the sleep is cut short by
			// it, and the remainder is yielded away — otherwise every
			// latency timed from the due time would mostly measure the
			// generator's own alarm clock.
			var bias time.Duration
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				due := t0.Add(ops[i].due)
				if wait := time.Until(due) - bias; wait > 0 {
					wake := time.Now().Add(wait)
					sleep(wait)
					if over := time.Since(wake); over < maxSleepBias {
						bias += (over - bias) / 8
					}
				}
				for time.Now().Before(due) {
					runtime.Gosched()
				}
				late := time.Since(t0)
				tr.lag[i] = int64(late - ops[i].due)
				dueBy := sort.Search(len(ops), func(k int) bool { return ops[k].due > late })
				tr.backlog[i] = dueBy - int(started.Add(1))
				exec(w, ops[i], due)
			}
		}(w)
	}
	wg.Wait()
	return tr
}

// maxSleepBias bounds what one late wake-up may teach the generator: a
// stall is not the alarm clock's habit.
const maxSleepBias = 2 * time.Millisecond

// backlogGrew reports whether the backlog kept growing through the window:
// the mean of the last quarter far above the first quarter's. A stable queue
// has spikes (an fsync stall lets a few dozen ops fall due) but drains them.
func backlogGrew(backlog []int) bool {
	q := len(backlog) / 4
	if q == 0 {
		return false
	}
	mean := func(b []int) float64 {
		s := 0
		for _, x := range b {
			s += x
		}
		return float64(s) / float64(len(b))
	}
	return mean(backlog[len(backlog)-q:]) > 4*mean(backlog[:q])+16
}

// runOpen is mixed_open_cached's loop: the job stream time-compressed to
// p.rate co-allocations/s, interleaved with 4× as many ProbeAll over the hot
// set.
func runOpen(fx *fixture, p phase) phaseResult {
	fx.cur.limit = len(fx.cur.jobs)
	ops := openSchedule(p.rate, p.d, p.seed)
	calibrating := p.rate >= calibrateRate
	start := time.Now()
	var hot atomic.Pointer[hotSet]
	hot.Store(&hotSet{now: fx.clock, start: fx.clock, dur: period.Hour})
	workers := make([]*worker, p.clients)
	for i := range workers {
		workers[i] = &worker{fx: fx, broker: fx.broker}
	}
	var res phaseResult
	var tr openTrace
	timed(&res, p.d, func() {
		tr = runSchedule(ops, p.clients, time.Sleep, func(id int, op openOp, due time.Time) {
			w := workers[id]
			if calibrating && time.Since(start) > p.d {
				return // the closed-loop capacity run ends on time, not on the schedule
			}
			if !op.coalloc {
				h := hot.Load()
				s := h.start.Add(15 * period.Minute * period.Duration(op.rung))
				w.probeAll(h.now, window{start: s, end: s.Add(h.dur)}, due)
				return
			}
			j, rel, now, ok := fx.cur.take()
			if !ok {
				w.fail(fmt.Errorf("job stream of %d ran dry before the window closed", len(fx.cur.jobs)))
				return
			}
			hot.Store(&hotSet{now: now, start: j.Start, dur: j.Duration})
			w.releaseDue(now, rel)
			if a, ok := w.coalloc(now, j, due); ok {
				fx.cur.noteGrant(a)
			}
			fx.cur.done(j)
		})
	})
	res.open = &tr
	for _, w := range workers {
		res.merge(w)
	}
	return res
}
