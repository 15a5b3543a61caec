package main

import (
	"errors"
	"fmt"
	"time"

	"coalloc/internal/grid"
	"coalloc/internal/job"
	"coalloc/internal/period"
)

// tally counts what one worker did in one phase.
type tally struct {
	attempted int // user operations: co-allocations, probes, range searches, releases
	failed    int // ended in anything but a grant, an answer or a capacity refusal
	coallocs  int
	granted   int
	rejected  int // capacity refusals
	probes    int // ProbeAll and RangeAll
	releases  int
	attempts  int   // Δt rungs used by granted co-allocations
	shiftSum  int64 // Σ granted start − requested start, virtual seconds
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.coallocs += o.coallocs
	t.granted += o.granted
	t.rejected += o.rejected
	t.probes += o.probes
	t.releases += o.releases
	t.attempts += o.attempts
	t.shiftSum += o.shiftSum
}

// worker is one load-generating goroutine's state. Workers of one workload
// share the fixture's broker, cursor and mirror and nothing else.
type worker struct {
	fx     *fixture
	broker *grid.Broker

	tally
	firstErr   error
	coallocLat []sample
	probeLat   []sample
	releaseLat []sample
}

// sample is one operation's latency and when it completed (ns since the
// process's epoch; no pointers, so the garbage collector never scans the
// hundreds of thousands a run collects).
type sample struct {
	end int64
	ns  int64
}

var processEpoch = time.Now()

func stamp(t time.Time) int64 { return int64(t.Sub(processEpoch)) }

func (w *worker) fail(err error) {
	w.failed++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

func (w *worker) spans() *spanStore {
	if st := w.fx.cfg.spans; st.enabled() {
		return st
	}
	return nil
}

// since is an operation's latency: from its due time in an open loop (zero
// due means closed loop: from the moment it was sent).
func since(due, t0, t1 time.Time) int64 {
	if !due.IsZero() {
		return int64(t1.Sub(due))
	}
	return int64(t1.Sub(t0))
}

// coalloc submits one job at virtual time now; granted reports whether the
// returned allocation is a grant the caller now owns.
func (w *worker) coalloc(now period.Time, j job.Request, due time.Time) (alloc grid.MultiAllocation, granted bool) {
	w.attempted++
	w.coallocs++
	t0 := time.Now()
	alloc, err := w.broker.CoAllocate(now, toRequest(j))
	t1 := time.Now()
	w.coallocLat = append(w.coallocLat, sample{stamp(t1), since(due, t0, t1)})
	if st := w.spans(); st != nil {
		st.add(span{Name: spCoalloc, site: -1, ok: err == nil}, t0, t1)
	}
	switch {
	case err == nil:
		want := j.Start
		if want < now {
			want = now
		}
		w.granted++
		w.attempts += alloc.Attempts
		w.shiftSum += int64(alloc.Start - want)
		w.fx.mirror.grant(alloc, now)
		return alloc, true
	case errors.Is(err, grid.ErrNoCapacity):
		w.rejected++
	default:
		w.fail(fmt.Errorf("co-allocate job %d: %w", j.ID, err))
	}
	return grid.MultiAllocation{}, false
}

// releaseDue gives back, at virtual time now, the allocations whose early
// release fell due.
func (w *worker) releaseDue(now period.Time, due []grid.MultiAllocation) {
	for _, a := range due {
		w.attempted++
		w.releases++
		// Logged before the call: capacity a release frees may be granted to
		// the other client's job before this call returns, and the mirror
		// must see the release first.
		w.fx.mirror.release(a, now)
		t0 := time.Now()
		err := w.broker.Release(now, a)
		t1 := time.Now()
		w.releaseLat = append(w.releaseLat, sample{stamp(t1), int64(t1.Sub(t0))})
		if st := w.spans(); st != nil {
			st.add(span{Name: spRelease, site: -1, ok: err == nil}, t0, t1)
		}
		if err != nil {
			w.fail(fmt.Errorf("release %s: %w", a.HoldID, err))
		}
	}
}

func (w *worker) probeAll(now period.Time, win window, due time.Time) {
	w.attempted++
	w.probes++
	t0 := time.Now()
	avail := w.broker.ProbeAll(now, win.start, win.end)
	t1 := time.Now()
	w.probeLat = append(w.probeLat, sample{stamp(t1), since(due, t0, t1)})
	var err error
	for _, a := range avail {
		if a.Err != nil {
			err = fmt.Errorf("probe %s [%d,%d): %w", a.Conn.Name(), win.start, win.end, a.Err)
			break
		}
	}
	if st := w.spans(); st != nil {
		st.add(span{Name: spProbeAll, site: -1, ok: err == nil}, t0, t1)
	}
	if err != nil {
		w.fail(err)
	}
}

func (w *worker) rangeAll(now period.Time, win window, due time.Time) {
	w.attempted++
	w.probes++
	t0 := time.Now()
	ranges := w.broker.RangeAll(now, win.start, win.end)
	t1 := time.Now()
	w.probeLat = append(w.probeLat, sample{stamp(t1), since(due, t0, t1)})
	var err error
	for _, r := range ranges {
		if r.Err != nil {
			err = fmt.Errorf("range %s [%d,%d): %w", r.Conn.Name(), win.start, win.end, r.Err)
			break
		}
	}
	if st := w.spans(); st != nil {
		st.add(span{Name: spRangeAll, site: -1, ok: err == nil}, t0, t1)
	}
	if err != nil {
		w.fail(err)
	}
}
