package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"coalloc/internal/calendar"
	"coalloc/internal/grid"
	"coalloc/internal/obs"
	"coalloc/internal/period"
	"coalloc/internal/workload"
)

// counters is everything the traced run reads as a before/after delta.
type counters struct {
	broker                          grid.BrokerStats
	cache                           grid.CacheStats
	walFlushes, walRecords, walSize uint64
	repBatches, repRecords          uint64
	submitted                       int
	schedAttempts                   uint64
	diskBytes                       int64
}

func (fx *fixture) counters() (counters, error) {
	c := counters{broker: fx.broker.Stats(), cache: fx.broker.CacheStats()}
	for _, tw := range fx.twals {
		c.walFlushes += tw.flushes.Load()
		c.walRecords += tw.records.Load()
		c.walSize += tw.bytes.Load()
	}
	if fx.treplica != nil {
		c.repBatches, c.repRecords = fx.treplica.batches.Load(), fx.treplica.records.Load()
	}
	for _, s := range fx.sites {
		st := s.Status().Sched
		c.submitted += st.Submitted
		c.schedAttempts += st.TotalAttempts
	}
	for _, dir := range fx.walDirs {
		n, err := dirBytes(dir)
		if err != nil {
			return c, err
		}
		c.diskBytes += n
	}
	return c, nil
}

// opAnalysis is one operation with its time attributed to the layers
// beneath it. All times are ns.
type opAnalysis struct {
	name    string
	ok      bool
	total   int64
	broker  int64 // self time: total minus what the conn spans cover
	wal     int64 // journal time inside the op's write calls, replica wait excluded
	replica int64 // standby round trips inside the journal time
	below   int64 // what is left of the conn time: wire + site + core + calendar
	calls   int   // conn calls made for the op
	writes  int   // of which prepare/commit/abort
}

// analysis is what one traced window's spans say.
type analysis struct {
	ops      []opAnalysis
	byName   map[string][]int64 // span durations by name
	prepSelf []int64            // prepare spans minus the journal time inside them
	prepares int
	commits  int
}

// analyse links the spans and attributes every op's time. WAL spans on
// replicated are the sites whose journal is a replica.Primary: there the
// wal span contains the standby round trip, which is split out.
func analyse(spans []span) analysis {
	linkSpans(spans)
	a := analysis{byName: make(map[string][]int64)}
	children := make(map[uint64][]span)
	walBySite := make(map[int][]span)
	var reps []span
	for _, s := range spans {
		a.byName[s.Name] = append(a.byName[s.Name], s.dur())
		switch s.Name {
		case spWALOne, spWALBatch:
			walBySite[s.site] = append(walBySite[s.site], s)
		case spReplica:
			reps = append(reps, s)
		case spCoalloc, spProbeAll, spRangeAll, spRelease:
		default:
			if s.Parent != 0 {
				children[s.Parent] = append(children[s.Parent], s)
			}
		}
	}
	for _, w := range walBySite {
		sort.Slice(w, func(i, j int) bool { return w[i].Start < w[j].Start })
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i].Start < reps[j].Start })
	// within returns how much of s the given spans (sorted by start) cover.
	within := func(s span, sorted []span) int64 {
		first := sort.Search(len(sorted), func(k int) bool { return sorted[k].End > s.Start })
		var ivs []interval
		for k := first; k < len(sorted) && sorted[k].Start < s.End; k++ {
			ivs = append(ivs, interval{sorted[k].Start, sorted[k].End})
		}
		return covered(s.Start, s.End, ivs)
	}
	for _, s := range spans {
		switch s.Name {
		case spCoalloc, spProbeAll, spRangeAll, spRelease:
		default:
			continue
		}
		kids := children[s.ID]
		op := opAnalysis{name: s.Name, ok: s.ok, total: s.dur(), broker: selfTime(s, kids), calls: len(kids)}
		for _, k := range kids {
			switch k.Name {
			case spPrepare, spCommit, spAbort:
			default:
				continue
			}
			op.writes++
			j := within(k, walBySite[k.site])
			r := int64(0)
			if k.site == 0 {
				r = within(k, reps)
				if r > j {
					r = j
				}
			}
			op.wal += j - r
			op.replica += r
			if k.Name == spPrepare {
				a.prepares++
				a.prepSelf = append(a.prepSelf, k.dur()-j)
			}
			if k.Name == spCommit && k.ok {
				a.commits++
			}
		}
		op.below = op.total - op.broker - op.wal - op.replica
		a.ops = append(a.ops, op)
	}
	return a
}

// pick returns one field of the ops that match.
func (a analysis) pick(name string, onlyOK bool, f func(opAnalysis) int64) []int64 {
	var out []int64
	for _, op := range a.ops {
		if op.name == name && (op.ok || !onlyOK) {
			out = append(out, f(op))
		}
	}
	return out
}

func meanUs(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s int64
	for _, x := range v {
		s += x
	}
	return float64(s) / float64(len(v)) / 1e3
}

func p99Us(v []int64) float64 { return summarize(v).P99us }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// budgetRow is one line of a workload's latency budget: a layer, the time
// the median operation spends in it, and that as a share of the end-to-end
// median.
type budgetRow struct {
	Layer string  `json:"layer"`
	Us    float64 `json:"median_op_us"`
	Share float64 `json:"share"`
	// MeanUs is the same split over every operation: tails included, and a
	// layer only some operations reach (the replica sits behind one site of
	// three) weighted by how often it is reached.
	MeanUs float64 `json:"mean_us"`
}

// budgetOp is the operation a workload's budget is drawn for: its main one.
func budgetOp(spec workloadSpec) string {
	if spec.probes {
		return spProbeAll
	}
	return spCoalloc
}

// layerTimes is one operation's time, or an average of several, by layer.
type layerTimes struct{ total, broker, below, wal, replica float64 }

// medianOp describes the median operation: the operations between the 45th
// and the 55th percentile of end-to-end latency, averaged layer by layer.
// Medians of the parts taken separately would not add up to the median of
// the whole (an operation that touches the replicated site and one that does
// not are different operations); the parts of the operations in the middle
// do, up to the width of the band.
func medianOp(ops []opAnalysis) (mid, mean layerTimes) {
	if len(ops) == 0 {
		return mid, mean
	}
	sorted := append([]opAnalysis(nil), ops...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].total < sorted[j].total })
	avg := func(part []opAnalysis) layerTimes {
		var t layerTimes
		for _, o := range part {
			t.total += float64(o.total)
			t.broker += float64(o.broker)
			t.below += float64(o.below)
			t.wal += float64(o.wal)
			t.replica += float64(o.replica)
		}
		n := float64(len(part)) * 1e3 // ns → µs
		return layerTimes{t.total / n, t.broker / n, t.below / n, t.wal / n, t.replica / n}
	}
	lo, hi := len(sorted)*45/100, len(sorted)*55/100+1
	return avg(sorted[lo:min(hi, len(sorted))]), avg(sorted)
}

// budget splits the end-to-end median of the workload's main operation over
// the layers. below is what the conn spans cover minus journal time; over
// TCP it is split into wire and site by difference against the same
// operations run over LocalConn (local; nil when the workload is in-process
// already). The residual row is the end-to-end median minus the rows' sum.
func budget(a analysis, local *analysis, opName string) []budgetRow {
	matching := func(a analysis) []opAnalysis {
		var out []opAnalysis
		for _, op := range a.ops {
			if op.name == opName && op.ok {
				out = append(out, op)
			}
		}
		return out
	}
	mid, mean := medianOp(matching(a))
	site, siteMean := mid.below, mean.below
	if local != nil {
		lmid, lmean := medianOp(matching(*local))
		site, siteMean = min(lmid.below, mid.below), min(lmean.below, mean.below)
	}
	rows := []budgetRow{
		{Layer: "broker", Us: mid.broker, MeanUs: mean.broker},
		{Layer: "wire", Us: mid.below - site, MeanUs: mean.below - siteMean},
		{Layer: "site+core+calendar", Us: site, MeanUs: siteMean},
		{Layer: "wal", Us: mid.wal, MeanUs: mean.wal},
		{Layer: "replica", Us: mid.replica, MeanUs: mean.replica},
	}
	total := medianUs(a.pick(opName, true, func(o opAnalysis) int64 { return o.total }))
	sum := 0.0
	for _, r := range rows {
		sum += r.Us
	}
	rows = append(rows, budgetRow{Layer: "residual", Us: total - sum}, budgetRow{Layer: "end-to-end", Us: total, MeanUs: mean.total})
	for i := range rows {
		rows[i].Share = ratio(rows[i].Us, total)
	}
	return rows
}

// perLayerNames lists every per-layer metric with its unit. A traced run
// reports all of them on every workload; a layer a workload does not use
// reports 0, which is itself the claim (cache.* outside mixed_open_cached,
// wire.* on swf_local).
var perLayerNames = func() map[string]string {
	m := map[string]string{
		"broker.self_us_per_coalloc": "us", "broker.release_us_p50": "us", "broker.windows_per_coalloc": "count",
		"broker.rpcs_per_coalloc": "count", "broker.prepare_useful_ratio": "ratio",
		"broker.conflicts_per_kop": "count", "broker.aborts_per_kop": "count",
		"cache.hit_ratio": "ratio", "cache.hit_us_p50": "us", "cache.miss_us_p50": "us",
		"cache.invalidations_per_grant": "count", "cache.stale_per_kop": "count",
		"cache.watch_events_per_grant": "count", "cache.watch_gaps": "count", "cache.batch_probes_per_coalloc": "count",
		"wire.probe_rpc_us_p50": "us", "wire.probe_rpc_us_p99": "us", "wire.probe_overhead_us": "us",
		"wire.allocs_per_probe_rpc": "count", "wire.prepare_rpc_us_p50": "us", "wire.commit_rpc_us_p50": "us",
		"wire.prepare_overhead_us": "us", "wire.codec_probe_ns": "ns", "wire.codec_prepare_ns": "ns",
		"wire.probe_bytes": "B", "wire.prepare_bytes": "B",
		"site.probe_view_us_p50": "us", "site.probe_advancing_us_p50": "us", "site.prepare_us_p50": "us",
		"site.commit_us_p50": "us", "site.abort_us_p50": "us", "site.prepare_self_us": "us",
		"site.records_per_wal_batch": "count",
		"core.submit_us_p50":         "us", "core.release_us_p50": "us", "core.attempts_per_submit": "count",
		"wal.append_batch_us_p50": "us", "wal.append_batch_us_p99": "us", "wal.flushes_per_grant": "count",
		"wal.records_per_grant": "count", "wal.bytes_per_grant": "B", "wal.disk_bytes_per_grant": "B",
		"wal.fsync_probe_us": "us", "wal.checkpoint_ms": "ms", "wal.recover_ms": "ms",
		"replica.append_ack_us_p50": "us", "replica.append_ack_us_p99": "us", "replica.records_per_batch": "count",
		"replica.lag_records_end": "count", "replica.degraded_to_async": "count",
		"obs.recorder_overhead_ratio": "ratio",
		"workload.generate_s":         "s", "workload.mean_width": "count", "workload.mean_duration_s": "s",
		"loadgen.lag_p99_us": "us", "loadgen.backlog_max": "count", "loadgen.trace_overhead_ratio": "ratio",
		"loadgen.residual_us": "us", "loadgen.fail_ratio": "ratio", "loadgen.reject_ratio": "ratio",
		"loadgen.mean_shift_s": "s", "loadgen.open_loop_valid": "count",
		"loadgen.coalloc_per_s": "1/s", "loadgen.coalloc_p50_us": "us", "loadgen.coalloc_p99_us": "us",
		"loadgen.probe_per_s": "1/s", "loadgen.probe_p50_us": "us", "loadgen.probe_p99_us": "us",
		"loadgen.main_p95_us": "us",
	}
	for _, b := range calendar.Backends() {
		for _, k := range []string{"find_us_p50", "allocate_us_p50", "release_us_p50", "rotate_us_p50", "publish_view_us_p50", "allocate_fresh_us"} {
			m["calendar."+b+"."+k] = "us"
		}
		m["calendar."+b+".ops_per_allocate"] = "count"
	}
	return m
}()

// opsPerSecond is a phase's user-operation rate.
func opsPerSecond(res phaseResult) float64 {
	return ratio(float64(res.coallocs+res.probes), res.elapsed.Seconds())
}

// defaultMaxAttempts is BrokerConfig's R_max default: the rungs a rejected
// co-allocation walked.
const defaultMaxAttempts = 16

// shareJobs is how many jobs past the warm-up the direct drivers replay.
func shareJobs(o options) int {
	if o.smoke {
		return 500
	}
	return 10000
}

// rows is where a traced run puts its per-layer metrics.
type rows map[string]metric

func newRows() rows {
	m := make(rows, len(perLayerNames))
	for name, unit := range perLayerNames {
		m[name] = metric{0, unit}
	}
	return m
}

func (m rows) set(name string, v float64) {
	unit, ok := perLayerNames[name]
	if !ok {
		panic("bench: unregistered per-layer metric " + name)
	}
	m[name] = metric{v, unit}
}

// sideRun boots the workload on a variant of its fixture, warms it up for
// half the usual time, runs it for a quarter window (traced when st is
// set), and tears it down: the LocalConn replay and the NoTrace rerun.
func sideRun(spec workloadSpec, o options, cfg fixtureConfig, n int, st *spanStore, what string) (phaseResult, error) {
	cfg.spans = st
	fx, _, _, _, err := setUp(o, cfg, n)
	if err != nil {
		return phaseResult{}, err
	}
	warm := spec.run(fx, spec.phase(o, o.warmup()/2))
	st.enable(true)
	res := spec.run(fx, spec.phase(o, o.window()/4))
	st.enable(false)
	err = fx.close()
	if failed := warm.failed + res.failed; failed > 0 {
		return res, fmt.Errorf("%s: %d operations failed: %v", what, failed, res.firstErr)
	}
	return res, err
}

// traced is the per-layer run: a traced window between two stretches with
// the decorators in place but off, then (for TCP workloads) the same seeded
// sequence over LocalConn so the wire can be attributed by difference, then
// the direct layer drivers.
func traced(spec workloadSpec, o options) (workloadReport, error) {
	wr := workloadReport{Workload: spec.name, Why: spec.why, Loop: spec.loop(), Clients: spec.clients, Traced: true}
	m := newRows()
	wr.Metrics = m

	st := newSpanStore()
	cfg := spec.fixture
	cfg.spans = st
	reg := obs.NewRegistry()
	cfg.registry = reg
	n := streamLength(spec, o.warmup()+o.window())
	fx, jobs, genSecs, _, err := setUp(o, cfg, n)
	if err != nil {
		return wr, err
	}
	defer fx.close()
	ws := workload.Measure(jobs, workload.KTH().Servers)
	m.set("workload.generate_s", genSecs)
	m.set("workload.mean_width", ws.AvgWidth)
	m.set("workload.mean_duration_s", ws.AvgDurHours*3600)

	// Untraced, traced, untraced: the rate tracing is compared with is the
	// mean of the stretch before and the stretch after, so a workload that
	// slows down as it runs is not mistaken for tracing overhead.
	warm := spec.run(fx, spec.phase(o, o.warmup()))
	plain := spec.run(fx, spec.phase(o, o.window()/8))
	c0, err := fx.counters()
	if err != nil {
		return wr, err
	}
	st.enable(true)
	res := spec.run(fx, spec.phase(o, o.window()/2))
	st.enable(false)
	c1, err := fx.counters()
	if err != nil {
		return wr, err
	}
	after := spec.run(fx, spec.phase(o, o.window()/8))
	plainRate := (opsPerSecond(plain) + opsPerSecond(after)) / 2
	if err := m.probeIdleFixture(fx, reg); err != nil {
		return wr, err
	}
	if err := fx.stop(); err != nil {
		return wr, err
	}
	for _, other := range []phaseResult{warm, plain, after} {
		res.tally.failed += other.failed
		if res.firstErr == nil {
			res.firstErr = other.firstErr
		}
	}
	wr.fill(res)
	m.set("wal.recover_ms", wr.verify(fx, res))

	spans := st.snapshot()
	a := analyse(spans)
	if err := writeSpans(filepath.Join(filepath.Dir(o.out), spec.name+".spans.jsonl"), spans); err != nil {
		return wr, err
	}

	// Over TCP, the same seeded sequence over LocalConn: what the conn spans
	// cost there is the site's part, the rest of the TCP conn time is wire.
	local := a
	var replay *analysis
	if cfg.tcp {
		lst := newSpanStore()
		lcfg := spec.fixture
		lcfg.tcp = false
		if _, err := sideRun(spec, o, lcfg, n, lst, "LocalConn replay"); err != nil {
			return wr, err
		}
		local = analyse(lst.snapshot())
		replay = &local
		m.set("wire.probe_rpc_us_p50", medianUs(a.byName[spProbe]))
		m.set("wire.probe_rpc_us_p99", p99Us(a.byName[spProbe]))
		m.set("wire.probe_overhead_us", medianUs(a.byName[spProbe])-medianUs(local.byName[spProbe]))
		m.set("wire.prepare_rpc_us_p50", medianUs(a.byName[spPrepare]))
		m.set("wire.commit_rpc_us_p50", medianUs(a.byName[spCommit]))
		m.set("wire.prepare_overhead_us", medianUs(a.byName[spPrepare])-medianUs(local.byName[spPrepare]))
	}
	wr.Budget = budget(a, replay, budgetOp(spec))
	for _, row := range wr.Budget {
		if row.Layer == "residual" {
			m.set("loadgen.residual_us", row.Us)
		}
	}
	m.set("site.prepare_self_us", medianUs(local.prepSelf))
	m.brokerAndCache(a, res, c0, c1, cfg.broker.ProbeCache)
	m.journal(a, spans, res, c0, c1, cfg.standby)
	m.loadgen(spec, res, plainRate)

	if spec.name == wlProbeTCP {
		// The always-on flight recorder's cost (ROADMAP: ≤3 %): the workload
		// with tracing off end to end — NoTrace broker, recorder-less sites
		// — over the default configuration.
		ncfg := spec.fixture
		ncfg.noRecorder, ncfg.broker.NoTrace = true, true
		quiet, err := sideRun(spec, o, ncfg, n, nil, "NoTrace rerun")
		if err != nil {
			return wr, err
		}
		m.set("obs.recorder_overhead_ratio", ratio(opsPerSecond(quiet), plainRate))
	}
	if err := m.layerDrivers(o, fx.clock); err != nil {
		return wr, err
	}
	fmt.Fprintf(os.Stderr, "%s: traced %d ops in %.2fs (%d spans), %d failed, correct=%v\n",
		spec.name, res.attempted, res.elapsed.Seconds(), len(spans), res.failed, wr.Correct)
	return wr, nil
}

// probeIdleFixture takes the measurements that want the federation up but
// idle: replication state, allocations per RPC, raw fsync and checkpoint
// cost.
func (m rows) probeIdleFixture(fx *fixture, reg *obs.Registry) error {
	if fx.primary != nil {
		if reps := fx.sites[0].Status().Replication.Replicas; len(reps) > 0 {
			m.set("replica.lag_records_end", float64(reps[0].RecordsBehind))
		}
		m.set("replica.degraded_to_async", float64(reg.Counter("replica.semisync.degraded").Value()))
	}
	if fx.cfg.tcp {
		allocs, err := allocsPerProbeRPC(fx.conns[0], fx.clock)
		if err != nil {
			return err
		}
		m.set("wire.allocs_per_probe_rpc", allocs)
	}
	if fx.cfg.wal {
		last := len(fx.sites) - 1
		us, err := fsyncProbe(fx.walDirs[last])
		if err != nil {
			return err
		}
		m.set("wal.fsync_probe_us", us)
		t0 := time.Now()
		if err := fx.sites[last].Checkpoint(); err != nil {
			return err
		}
		m.set("wal.checkpoint_ms", sinceMS(t0))
	}
	return nil
}

// brokerAndCache: counts from Stats()/CacheStats() deltas, times from the op
// spans.
func (m rows) brokerAndCache(a analysis, res phaseResult, c0, c1 counters, cached bool) {
	coallocs := float64(max(res.coallocs, 1))
	granted := float64(max(res.granted, 1))
	m.set("broker.self_us_per_coalloc", meanUs(a.pick(spCoalloc, false, func(o opAnalysis) int64 { return o.broker })))
	m.set("broker.release_us_p50", medianUs(a.byName[spRelease]))
	m.set("broker.windows_per_coalloc", float64(res.attempts+defaultMaxAttempts*res.rejected)/coallocs)
	var rpcs int64
	for _, c := range a.pick(spCoalloc, false, func(o opAnalysis) int64 { return int64(o.calls) }) {
		rpcs += c
	}
	m.set("broker.rpcs_per_coalloc", float64(rpcs)/coallocs)
	m.set("broker.prepare_useful_ratio", ratio(float64(a.commits), float64(a.prepares)))
	m.set("broker.conflicts_per_kop", 1000*float64(c1.broker.Conflicts-c0.broker.Conflicts)/coallocs)
	m.set("broker.aborts_per_kop", 1000*float64(c1.broker.Aborts-c0.broker.Aborts)/coallocs)
	if !cached {
		return
	}
	hits, misses := float64(c1.cache.Hits-c0.cache.Hits), float64(c1.cache.Misses-c0.cache.Misses)
	m.set("cache.hit_ratio", ratio(hits, hits+misses))
	// A ProbeAll with no conn span under it was answered from the cache.
	var hitNs, missNs []int64
	for _, op := range a.ops {
		switch {
		case op.name != spProbeAll:
		case op.calls == 0:
			hitNs = append(hitNs, op.total)
		default:
			missNs = append(missNs, op.total)
		}
	}
	m.set("cache.hit_us_p50", medianUs(hitNs))
	m.set("cache.miss_us_p50", medianUs(missNs))
	m.set("cache.invalidations_per_grant", float64(c1.cache.Invalidations-c0.cache.Invalidations)/granted)
	m.set("cache.stale_per_kop", 1000*ratio(float64(c1.cache.Stale-c0.cache.Stale), float64(res.coallocs+res.probes)))
	m.set("cache.watch_events_per_grant", float64(c1.cache.WatchEvents-c0.cache.WatchEvents)/granted)
	m.set("cache.watch_gaps", float64(c1.cache.WatchGaps-c0.cache.WatchGaps))
	m.set("cache.batch_probes_per_coalloc", float64(c1.cache.BatchProbes-c0.cache.BatchProbes)/coallocs)
}

// journal: site, WAL and replica rows from the traced window's spans and
// the decorators' counters.
func (m rows) journal(a analysis, spans []span, res phaseResult, c0, c1 counters, standby bool) {
	granted := float64(max(res.granted, 1))
	m.set("site.records_per_wal_batch", ratio(float64(c1.walRecords-c0.walRecords), float64(c1.walFlushes-c0.walFlushes)))
	m.set("core.attempts_per_submit", ratio(float64(c1.schedAttempts-c0.schedAttempts), float64(c1.submitted-c0.submitted)))
	var walNs []int64
	for _, s := range spans {
		// A replicated site's journal span contains the standby round trip;
		// the plain sites' spans are the log alone.
		if (s.Name == spWALOne || s.Name == spWALBatch) && !(standby && s.site == 0) {
			walNs = append(walNs, s.dur())
		}
	}
	m.set("wal.append_batch_us_p50", medianUs(walNs))
	m.set("wal.append_batch_us_p99", p99Us(walNs))
	m.set("wal.flushes_per_grant", float64(c1.walFlushes-c0.walFlushes)/granted)
	m.set("wal.records_per_grant", float64(c1.walRecords-c0.walRecords)/granted)
	m.set("wal.bytes_per_grant", float64(c1.walSize-c0.walSize)/granted)
	m.set("wal.disk_bytes_per_grant", float64(c1.diskBytes-c0.diskBytes)/granted)
	m.set("replica.append_ack_us_p50", medianUs(a.byName[spReplica]))
	m.set("replica.append_ack_us_p99", p99Us(a.byName[spReplica]))
	m.set("replica.records_per_batch", ratio(float64(c1.repRecords-c0.repRecords), float64(c1.repBatches-c0.repBatches)))
}

// loadgen: the load generator's own conduct, and per class what the
// end-to-end list reports for the main operation only, with the tails that
// did not repeat well enough to be gated.
func (m rows) loadgen(spec workloadSpec, res phaseResult, plainRate float64) {
	m.set("loadgen.trace_overhead_ratio", ratio(opsPerSecond(res), plainRate))
	m.set("loadgen.fail_ratio", ratio(float64(res.failed), float64(res.attempted)))
	rr, ms := quality(res)
	m.set("loadgen.reject_ratio", rr)
	m.set("loadgen.mean_shift_s", ms)
	co, pr := nsOf(res.coallocLat), nsOf(res.probeLat)
	m.set("loadgen.coalloc_per_s", ratio(float64(res.granted+res.rejected), res.elapsed.Seconds()))
	m.set("loadgen.coalloc_p50_us", medianUs(co))
	m.set("loadgen.coalloc_p99_us", p99Us(co))
	m.set("loadgen.probe_per_s", ratio(float64(res.probes), res.elapsed.Seconds()))
	m.set("loadgen.probe_p50_us", medianUs(pr))
	m.set("loadgen.probe_p99_us", p99Us(pr))
	if spec.probes {
		co = pr
	}
	m.set("loadgen.main_p95_us", percentile(sortedNs(co), 95))
	m.set("loadgen.open_loop_valid", 1)
	if res.open != nil {
		lag := p99Us(res.open.lag)
		backlog := 0
		for _, b := range res.open.backlog {
			backlog = max(backlog, b)
		}
		m.set("loadgen.lag_p99_us", lag)
		m.set("loadgen.backlog_max", float64(backlog))
		if lag > 1000 || backlogGrew(res.open.backlog) {
			m.set("loadgen.open_loop_valid", 0)
		}
	}
}

// layerDrivers runs the direct drivers and the micro-probes that need no
// federation, and reports their rows.
func (m rows) layerDrivers(o options, clock period.Time) error {
	ss, err := recordShares(o, shareJobs(o))
	if err != nil {
		return err
	}
	sites, err := driveSite(ss)
	if err != nil {
		return err
	}
	m.set("site.probe_view_us_p50", medianUs(sites.probeView))
	m.set("site.probe_advancing_us_p50", medianUs(sites.probeAdvancing))
	m.set("site.prepare_us_p50", medianUs(sites.prepare))
	m.set("site.commit_us_p50", medianUs(sites.commit))
	m.set("site.abort_us_p50", medianUs(sites.abort))
	cores, err := driveCore(ss)
	if err != nil {
		return err
	}
	m.set("core.submit_us_p50", medianUs(cores.submit))
	m.set("core.release_us_p50", medianUs(cores.release))
	for _, b := range calendar.Backends() {
		ct, err := driveCalendar(b, ss)
		if err != nil {
			return err
		}
		p := "calendar." + b + "."
		m.set(p+"find_us_p50", medianUs(ct.find))
		m.set(p+"allocate_us_p50", medianUs(ct.allocate))
		m.set(p+"release_us_p50", medianUs(ct.release))
		m.set(p+"rotate_us_p50", medianUs(ct.rotate))
		m.set(p+"publish_view_us_p50", medianUs(ct.publish))
		m.set(p+"ops_per_allocate", ratio(float64(ct.allocOps), float64(ct.allocations)))
		m.set(p+"allocate_fresh_us", ct.freshUs)
	}
	codec, err := driveCodec(clock)
	if err != nil {
		return err
	}
	m.set("wire.codec_probe_ns", codec.probeNs)
	m.set("wire.codec_prepare_ns", codec.prepareNs)
	m.set("wire.probe_bytes", codec.probeBytes)
	m.set("wire.prepare_bytes", codec.prepareBytes)
	return nil
}
