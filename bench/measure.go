package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"coalloc/internal/job"
)

// workloadReport is one workload's entry in the detailed result file.
type workloadReport struct {
	Workload  string            `json:"workload"`
	Why       string            `json:"why"`
	Loop      string            `json:"loop"`
	Clients   int               `json:"clients"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Checks    []string          `json:"failed_checks,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FirstErr  string            `json:"first_error,omitempty"`
	Seconds   float64           `json:"measured_seconds"`
	Metrics   map[string]metric `json:"metrics"`
	// Latency carries the full summaries behind the p50/p99 metrics,
	// including the highest percentile the sample count supports.
	Latency map[string]latencySummary `json:"latency,omitempty"`
	Setups  []float64                 `json:"setup_seconds,omitempty"`
	// Slices carries each end-to-end metric's value in every slice of the
	// measured window; the metric itself is the second-best of them.
	Slices map[string][]float64 `json:"slices,omitempty"`
	Budget []budgetRow          `json:"budget,omitempty"`
}

// streamLength is how many jobs a run of spec needs at most: the warm-up
// replay plus what the load phases can consume.
func streamLength(spec workloadSpec, windows time.Duration) int {
	return warmJobs + int(float64(spec.streamRate)*windows.Seconds()) + 1000
}

// setUp generates an n-job stream and boots a warmed fixture over it. secs
// is what setup_s reports: both together.
func setUp(o options, cfg fixtureConfig, n int) (fx *fixture, jobs []job.Request, genSecs, secs float64, err error) {
	t0 := time.Now()
	jobs = genJobs(n, o.seed)
	genSecs = time.Since(t0).Seconds()
	if cfg.wal {
		if cfg.dir, err = os.MkdirTemp(filepath.Dir(o.out), "wal-"); err != nil {
			return nil, nil, 0, 0, err
		}
	}
	fx, err = buildFixture(cfg, jobs)
	return fx, jobs, genSecs, time.Since(t0).Seconds(), err
}

func (spec workloadSpec) phase(o options, d time.Duration) phase {
	p := phase{d: d, clients: spec.clients, rate: o.openRate, seed: o.seed}
	if spec.fixedCount {
		p.jobs = int(float64(o.swfRate) * d.Seconds())
	}
	return p
}

func (spec workloadSpec) loop() string {
	if spec.openLoop {
		return "open"
	}
	return "closed"
}

// measure is the untraced run: set up (several times, for a steady
// setup_s), warm up, measure one window with nothing of the harness in the
// way, then run the correctness checks.
func measure(spec workloadSpec, o options) (workloadReport, error) {
	wr := workloadReport{Workload: spec.name, Why: spec.why, Loop: spec.loop(), Clients: spec.clients}
	n := streamLength(spec, o.warmup()+o.window())
	var fx *fixture
	for i := 0; i < o.setupReps(); i++ {
		if fx != nil {
			if err := fx.close(); err != nil {
				return wr, err
			}
		}
		f, _, _, secs, err := setUp(o, spec.fixture, n)
		if err != nil {
			return wr, err
		}
		fx = f
		wr.Setups = append(wr.Setups, secs)
	}
	defer fx.close()

	warm := spec.run(fx, spec.phase(o, o.warmup()))
	res := spec.run(fx, spec.phase(o, o.window()))
	// Before the checks: the oracle replay is the harness's memory, not the
	// federation's.
	rss := peakRSSMB()
	if err := fx.stop(); err != nil {
		return wr, err
	}
	res.tally.failed += warm.failed
	if res.firstErr == nil {
		res.firstErr = warm.firstErr
	}
	wr.fill(res)
	wr.Metrics, wr.Slices = endToEnd(spec, res, medianFloat(wr.Setups), rss)
	wr.verify(fx, res)
	if res.open != nil {
		fmt.Fprintf(os.Stderr, "%s: generator lag p99 %.0f us, backlog grew: %v\n", spec.name, p99Us(res.open.lag), backlogGrew(res.open.backlog))
	}
	fmt.Fprintf(os.Stderr, "%s: %d ops in %.2fs, %d failed, correct=%v\n", spec.name, res.attempted, res.elapsed.Seconds(), res.failed, wr.Correct)
	return wr, nil
}

func (wr *workloadReport) fill(res phaseResult) {
	wr.Attempted = res.attempted
	wr.Failed = res.failed
	wr.Seconds = res.elapsed.Seconds()
	if res.firstErr != nil {
		wr.FirstErr = res.firstErr.Error()
	}
	wr.Latency = map[string]latencySummary{
		"coalloc": summarize(nsOf(res.coallocLat)),
		"probe":   summarize(nsOf(res.probeLat)),
		"release": summarize(nsOf(res.releaseLat)),
	}
}

// verify runs the correctness checks of ISSUE 11 and records the ones that
// failed; recoverMS is how long reopening and replaying the WALs took (0
// without a WAL). Call after fx.stop().
func (wr *workloadReport) verify(fx *fixture, res phaseResult) (recoverMS float64) {
	check := func(name string, err error) {
		if err != nil {
			wr.Checks = append(wr.Checks, fmt.Sprintf("%s: %v", name, err))
		}
	}
	if res.failed > 0 {
		check("operations", fmt.Errorf("%d of %d failed, first: %v", res.failed, res.attempted, res.firstErr))
	}
	check("oracle", fx.mirror.check())
	check("holds", fx.checkDrained())
	if fx.cfg.wal {
		var err error
		recoverMS, err = fx.checkRecovery()
		check("recovery", err)
	}
	if fx.cfg.broker.ProbeCache {
		cs := fx.cacheStats
		if cs.BatchProbes == 0 {
			check("cache", fmt.Errorf("BatchProbes == 0: the batched ladder probe never ran"))
		}
		if cs.WatchEvents == 0 {
			check("cache", fmt.Errorf("WatchEvents == 0: the epoch watch never delivered"))
		}
	}
	wr.Correct = len(wr.Checks) == 0
	return recoverMS
}

// sliceStats is one slice of a measured window.
type sliceStats struct {
	secs   float64
	cpuMS  float64
	ops    int     // co-allocations + probes completed in the slice
	mainNs []int64 // latencies of the workload's main operation
}

// cutSlices cuts a phase at its CPU marks. A trailing slice much shorter than
// the rest (the phase ended between marks) is dropped.
func cutSlices(spec workloadSpec, res phaseResult) []sliceStats {
	if len(res.cpu) < 2 {
		return nil
	}
	main, other := res.coallocLat, res.probeLat
	if spec.probes {
		main, other = other, main
	}
	full := res.cpu[1].at.Sub(res.cpu[0].at)
	var out []sliceStats
	for i := 0; i+1 < len(res.cpu); i++ {
		a, b := res.cpu[i], res.cpu[i+1]
		if i > 0 && b.at.Sub(a.at) < full*8/10 {
			continue
		}
		sl := sliceStats{secs: b.at.Sub(a.at).Seconds(), cpuMS: float64(b.cpu-a.cpu) / float64(time.Millisecond)}
		lo, hi := stamp(a.at), stamp(b.at)
		for _, smp := range main {
			if smp.end >= lo && smp.end < hi {
				sl.mainNs = append(sl.mainNs, smp.ns)
			}
		}
		sl.ops = len(sl.mainNs)
		for _, smp := range other {
			if smp.end >= lo && smp.end < hi {
				sl.ops++
			}
		}
		out = append(out, sl)
	}
	return out
}

func nsOf(samples []sample) []int64 {
	out := make([]int64, len(samples))
	for i, s := range samples {
		out[i] = s.ns
	}
	return out
}

// endToEnd derives the end-to-end metrics from a measured window: each rate
// and percentile is computed per slice and reported as secondBest of them.
// The latency and the rate are the workload's main operation's — the
// co-allocation, on probe_tcp the probe; CPU is per user operation of either
// kind.
func endToEnd(spec workloadSpec, res phaseResult, setup, rss float64) (map[string]metric, map[string][]float64) {
	var rate, p50, cpu []float64
	for _, sl := range cutSlices(spec, res) {
		rate = append(rate, float64(len(sl.mainNs))/sl.secs)
		p50 = append(p50, percentile(sortedNs(sl.mainNs), 50))
		cpu = append(cpu, sl.cpuMS/float64(max(sl.ops, 1)))
	}
	perSlice := map[string][]float64{"main_per_s": rate, "main_p50_us": p50, "cpu_ms_per_op": cpu}
	return map[string]metric{
		"setup_s":       {setup, "s"},
		"main_per_s":    {secondBest(rate, true), "1/s"},
		"main_p50_us":   {secondBest(p50, false), "us"},
		"cpu_ms_per_op": {secondBest(cpu, false), "ms"},
		"peak_rss_mb":   {rss, "MB"},
	}, perSlice
}

func sortedNs(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// secondBest is the statistic every sliced metric reports: the second-best
// of the window's slices (the lower quartile of five). What disturbs a run on
// a shared host — a neighbour's burst, a stretch of slow fsyncs — only ever
// makes a slice slower, so the better slices are the ones that measured the
// program; the very best one is left out as the lucky outlier. Over ten
// seeds it repeated better than the median of the slices where the host
// disturbs most: the rates and the main latency of the WAL workloads
// (README, "Steadiness").
func secondBest(v []float64, higherIsBetter bool) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if higherIsBetter {
		return s[max(len(s)-2, 0)]
	}
	return s[min(1, len(s)-1)]
}

// quality is the scheduling-quality pair: they hold a change to granting
// what the seed grants, so "faster by granting less" cannot pass.
func quality(res phaseResult) (rejectRatio, meanShift float64) {
	if res.coallocs > 0 {
		rejectRatio = float64(res.rejected) / float64(res.coallocs)
	}
	if res.granted > 0 {
		meanShift = float64(res.shiftSum) / float64(res.granted)
	}
	return rejectRatio, meanShift
}

// report is the detailed result file.
type report struct {
	Header    header           `json:"header"`
	Workloads []workloadReport `json:"workloads"`
}

func (r report) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
