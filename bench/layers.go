package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"coalloc/internal/calendar"
	"coalloc/internal/core"
	"coalloc/internal/grid"
	"coalloc/internal/job"
	"coalloc/internal/period"
	"coalloc/internal/wire"
)

// Direct layer drivers. Each replays the share stream — the per-site
// operations a broker issued for the swf_local job stream, recorded at the
// Conn seam — straight into one layer, with nothing above it: a *grid.Site,
// a core.Scheduler, and each registered calendar backend. The first
// warmShare operations rebuild the warmed state un-timed; the rest are
// timed one call at a time.

// shareStream is a recorded stream plus where its warm-up ends.
type shareStream struct {
	ops  []shareOp
	warm int // ops[:warm] came from the warm-up replay
}

// recordShares boots an in-process fixture with the share log on from the
// first warm-up job and runs extra jobs of the stream past the warm-up.
func recordShares(o options, extra int) (shareStream, error) {
	log := &shareLog{}
	jobs := genJobs(warmJobs+extra, o.seed)
	fx, err := buildFixture(fixtureConfig{spans: newSpanStore(), shares: log}, jobs)
	if err != nil {
		return shareStream{}, err
	}
	defer fx.close()
	log.mu.Lock()
	warm := len(log.ops)
	log.mu.Unlock()
	res := runJobStream(fx, phase{d: time.Second, jobs: extra, clients: 1})
	if res.failed > 0 {
		return shareStream{}, fmt.Errorf("share stream: %d operations failed: %v", res.failed, res.firstErr)
	}
	return shareStream{ops: log.ops, warm: warm}, nil
}

// lat collects one call kind's timings.
type lat []int64

func (l *lat) time(timed bool, f func()) {
	if !timed {
		f()
		return
	}
	t0 := time.Now()
	f()
	*l = append(*l, int64(time.Since(t0)))
}

// siteTimes is what the site driver measured.
type siteTimes struct {
	probeAdvancing, probeView, prepare, commit, abort lat
}

// driveSite replays the stream into one fresh site per recorded site. Probes
// arrive with the clock of their request, which is past the published view
// (the non-lock-free branch); after each, the same window is probed again at
// the now-published clock, which is the lock-free view read.
func driveSite(ss shareStream) (siteTimes, error) {
	var st siteTimes
	sites := make([]*grid.Site, len(siteServers))
	for i := range sites {
		s, err := newSite(i, "")
		if err != nil {
			return st, err
		}
		sites[i] = s
	}
	for k, op := range ss.ops {
		timed := k >= ss.warm
		s := sites[op.site]
		switch op.kind {
		case spProbe:
			st.probeAdvancing.time(timed, func() { s.ProbeView(op.now, op.start, op.end) })
			st.probeView.time(timed, func() { s.ProbeView(op.now, op.start, op.end) })
		case spPrepare:
			st.prepare.time(timed, func() { s.Prepare(op.now, op.hold, op.start, op.end, op.servers, 24*period.Hour) })
		case spCommit:
			st.commit.time(timed, func() { s.Commit(op.now, op.hold) })
		case spAbort:
			st.abort.time(timed, func() { s.Abort(op.now, op.hold) })
		}
	}
	return st, nil
}

// coreTimes is what the scheduler driver measured.
type coreTimes struct {
	submit, release lat
}

// heldShare is what a driver remembers about a prepared hold so it can
// release it the way the site would.
type heldShare struct {
	alloc     job.Allocation
	committed bool
}

// driveCore replays the stream into one core.Scheduler per recorded site,
// translating site operations the way grid.Site does: a prepare is a Submit
// pinned to its window by a deadline, an abort is a Release (from the start
// for an undecided hold, from now for a committed one).
func driveCore(ss shareStream) (coreTimes, error) {
	var ct coreTimes
	scheds := make([]*core.Scheduler, len(siteServers))
	for i := range scheds {
		s, err := core.New(core.Config{Servers: siteServers[i], SlotSize: slotSize, Slots: slots}, 0)
		if err != nil {
			return ct, err
		}
		scheds[i] = s
	}
	held := make(map[string]*heldShare)
	key := func(op shareOp) string { return fmt.Sprintf("%d/%s", op.site, op.hold) }
	for k, op := range ss.ops {
		timed := k >= ss.warm
		s := scheds[op.site]
		switch op.kind {
		case spProbe:
			s.Advance(op.now)
		case spPrepare:
			if op.start < op.now {
				continue
			}
			var alloc job.Allocation
			var err error
			ct.submit.time(timed, func() {
				alloc, err = s.Submit(job.Request{ID: int64(k + 1), Submit: op.now, Start: op.start,
					Duration: period.Duration(op.end - op.start), Servers: op.servers, Deadline: op.end})
			})
			if err == nil {
				held[key(op)] = &heldShare{alloc: alloc}
			}
		case spCommit:
			if h := held[key(op)]; h != nil {
				h.committed = true
			}
		case spAbort:
			h := held[key(op)]
			if h == nil {
				continue
			}
			delete(held, key(op))
			s.Advance(op.now)
			at := h.alloc.Start
			if h.committed {
				at = op.now
			}
			if at >= h.alloc.End {
				continue
			}
			ct.release.time(timed, func() { s.Release(h.alloc, at) })
		}
	}
	return ct, nil
}

// calTimes is what a calendar backend driver measured.
type calTimes struct {
	find, allocate, release, rotate, publish lat
	allocations                              int
	allocOps                                 uint64
	freshUs                                  float64
}

// driveCalendar replays the stream into one backend instance per recorded
// site, making the calls core.Scheduler makes: Advance, the two-phase
// FindFeasible, one Allocate per chosen period, one Release per server, and
// the PublishView a site cuts after each mutation batch.
func driveCalendar(backend string, ss shareStream) (calTimes, error) {
	var ct calTimes
	cals := make([]calendar.AvailabilityBackend, len(siteServers))
	for i := range cals {
		c, err := calendar.NewBackend(backend, calendar.Config{Servers: siteServers[i], SlotSize: slotSize, Slots: slots}, 0)
		if err != nil {
			return ct, err
		}
		cals[i] = c
	}
	type held struct {
		servers    []int
		start, end period.Time
		committed  bool
	}
	holds := make(map[string]*held)
	key := func(op shareOp) string { return fmt.Sprintf("%d/%s", op.site, op.hold) }
	advance := func(c calendar.AvailabilityBackend, now period.Time, timed bool) {
		if now <= c.Now() {
			return
		}
		before := c.WindowStart()
		t0 := time.Now()
		c.Advance(now)
		// Only an advance that moved the base slot is a rotation; the rest
		// just move the clock.
		if timed && c.WindowStart() != before {
			ct.rotate = append(ct.rotate, int64(time.Since(t0)))
		}
	}
	for k, op := range ss.ops {
		timed := k >= ss.warm
		c := cals[op.site]
		switch op.kind {
		case spProbe:
			advance(c, op.now, timed)
		case spPrepare:
			advance(c, op.now, timed)
			if op.start < c.Now() || op.end > c.HorizonEnd() {
				continue
			}
			var feasible []period.Period
			ct.find.time(timed, func() { feasible, _ = c.FindFeasible(op.start, op.end, op.servers) })
			if len(feasible) < op.servers {
				continue
			}
			h := &held{start: op.start, end: op.end}
			ops0 := c.Ops()
			for _, p := range (core.PaperOrder{}).Select(feasible, op.start, op.end, op.servers) {
				var err error
				ct.allocate.time(timed, func() { err = c.Allocate(p, op.start, op.end) })
				if err != nil {
					return ct, fmt.Errorf("calendar %s: allocate searched period: %w", backend, err)
				}
				h.servers = append(h.servers, p.Server)
			}
			if timed {
				ct.allocations += len(h.servers)
				ct.allocOps += c.Ops() - ops0
			}
			holds[key(op)] = h
			ct.publish.time(timed, func() { c.PublishView() })
		case spCommit:
			if h := holds[key(op)]; h != nil {
				h.committed = true
			}
		case spAbort:
			h := holds[key(op)]
			if h == nil {
				continue
			}
			delete(holds, key(op))
			advance(c, op.now, timed)
			at := h.start
			if h.committed {
				at = op.now
			}
			if at >= h.end {
				continue
			}
			for _, srv := range h.servers {
				var err error
				ct.release.time(timed, func() { err = c.Release(srv, h.start, h.end, at) })
				if err != nil {
					return ct, fmt.Errorf("calendar %s: release: %w", backend, err)
				}
			}
			ct.publish.time(timed, func() { c.PublishView() })
		}
	}
	fresh, err := allocateFresh(backend)
	ct.freshUs = fresh
	return ct, err
}

// allocateFresh reserves every server of an empty 672-slot calendar for an
// hour at the far end of the horizon and returns the mean time of one
// Allocate. Each idle period it cuts covers the whole horizon, and the
// bounded remainder in front of the reservation has to be indexed in every
// slot it spans: the O(Q) case behind a first wide reservation on a fresh
// site taking tens to hundreds of milliseconds, and the base for the
// adversarial fixtures of ROADMAP item 4.
func allocateFresh(backend string) (float64, error) {
	n := siteServers[0]
	c, err := calendar.NewBackend(backend, calendar.Config{Servers: n, SlotSize: slotSize, Slots: slots}, 0)
	if err != nil {
		return 0, err
	}
	start := period.Time(slotSize * (slots - 8))
	end := start.Add(period.Hour)
	feasible, _ := c.FindFeasible(start, end, n)
	if len(feasible) < n {
		return 0, fmt.Errorf("calendar %s: empty calendar offers %d of %d servers", backend, len(feasible), n)
	}
	t0 := time.Now()
	for _, p := range feasible[:n] {
		if err := c.Allocate(p, start, end); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0)) / 1e3 / float64(n), nil
}

// codecTimes is the gob cost of one request/reply pair on warm streams.
type codecTimes struct {
	probeNs, prepareNs       float64
	probeBytes, prepareBytes float64
}

// gobRoundTrip encodes and decodes args then reply on one long-lived
// encoder/decoder pair (type descriptors already sent, as on a live
// connection) and returns ns and bytes per pair.
func gobRoundTrip(args, reply interface{}, argsOut, replyOut interface{}, n int) (ns, bytesPer float64, err error) {
	var buf bytes.Buffer
	enc, dec := gob.NewEncoder(&buf), gob.NewDecoder(&buf)
	// pair sends one request and one reply through the stream and returns
	// the bytes they took on it.
	pair := func() (int, error) {
		size := 0
		for _, m := range [][2]interface{}{{args, argsOut}, {reply, replyOut}} {
			if err := enc.Encode(m[0]); err != nil {
				return 0, err
			}
			size += buf.Len()
			if err := dec.Decode(m[1]); err != nil {
				return 0, err
			}
		}
		return size, nil
	}
	if _, err := pair(); err != nil { // sends the type descriptors
		return 0, 0, err
	}
	total := 0
	t0 := time.Now()
	for i := 0; i < n; i++ {
		size, err := pair()
		if err != nil {
			return 0, 0, err
		}
		total += size
	}
	return float64(time.Since(t0)) / float64(n), float64(total) / float64(n), nil
}

func driveCodec(now period.Time) (codecTimes, error) {
	const n = 20000
	var ct codecTimes
	var err error
	start := now.Add(period.Hour)
	ct.probeNs, ct.probeBytes, err = gobRoundTrip(
		wire.ProbeArgs{Now: now, Start: start, End: start.Add(2 * period.Hour), TraceID: 1 << 40, SpanID: 1 << 41},
		wire.ProbeReply{Available: 17, Capacity: 43, Epoch: 1 << 50, SiteNow: now},
		&wire.ProbeArgs{}, &wire.ProbeReply{}, n)
	if err != nil {
		return ct, err
	}
	ct.prepareNs, ct.prepareBytes, err = gobRoundTrip(
		wire.PrepareArgs{Now: now, HoldID: "bench-0123456789ab-12345", Start: start, End: start.Add(2 * period.Hour),
			Servers: 8, Lease: 5 * period.Minute, TraceID: 1 << 40, SpanID: 1 << 41, ProbedEpoch: 1 << 50},
		wire.PrepareReply{Servers: []int{3, 5, 8, 13, 21, 34, 40, 41}, Epoch: 1 << 50},
		&wire.PrepareArgs{}, &wire.PrepareReply{}, n)
	return ct, err
}

// allocsPerProbeRPC counts heap allocations per probe RPC, both ends of the
// loopback connection included, on an otherwise idle process.
func allocsPerProbeRPC(c grid.Conn, now period.Time) (float64, error) {
	const n = 2000
	start := now.Add(period.Hour)
	probe := func() error {
		_, err := c.Probe(now, start, start.Add(period.Hour))
		return err
	}
	for i := 0; i < 100; i++ {
		if err := probe(); err != nil {
			return 0, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		if err := probe(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / n, nil
}

// fsyncProbe writes and fsyncs 4 KiB a hundred times in dir and returns the
// median, so a reader knows whether the WAL's fsyncs were real.
func fsyncProbe(dir string) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	var l lat
	for i := 0; i < 100; i++ {
		t0 := time.Now()
		if _, err := f.Write(block); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		l = append(l, int64(time.Since(t0)))
	}
	return medianUs(l), nil
}

// dirBytes sums the file sizes under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
