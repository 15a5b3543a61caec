package main

import (
	"sort"
	"syscall"
	"time"
)

func sinceMS(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Millisecond) }

// percentile returns the p-th percentile (0 < p < 100) of sorted ns samples
// by the nearest-rank rule, in microseconds. Zero samples give 0.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return float64(sorted[rank]) / 1e3
}

// tailLadder is the percentiles a latency summary may report beyond the
// median, lowest first, each with the sample count at which ten samples lie
// beyond it.
var tailLadder = []struct {
	p    float64
	need int
}{{90, 100}, {99, 1000}, {99.9, 10000}, {99.99, 100000}}

// highestPercentile picks the highest percentile of the ladder that still
// has at least ten samples beyond it: a p99 read off 300 samples is three
// samples' worth of noise, and the summary says so by reporting p90 beside
// it. ok is false when not even p90 qualifies.
func highestPercentile(n int) (p float64, ok bool) {
	for _, rung := range tailLadder {
		if n >= rung.need {
			p, ok = rung.p, true
		}
	}
	return p, ok
}

// latencySummary is one operation class's latency report.
type latencySummary struct {
	Samples int     `json:"samples"`
	P50us   float64 `json:"p50_us"`
	P99us   float64 `json:"p99_us"`
	// TailP is the highest percentile with ≥10 samples beyond it, and TailUs
	// its value; a p99 with fewer than 1000 samples should be read as TailP.
	TailP  float64 `json:"tail_percentile"`
	TailUs float64 `json:"tail_us"`
}

func summarize(samples []int64) latencySummary {
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := latencySummary{Samples: len(s), P50us: percentile(s, 50), P99us: percentile(s, 99)}
	if p, ok := highestPercentile(len(s)); ok {
		out.TailP, out.TailUs = p, percentile(s, p)
	}
	return out
}

func medianUs(samples []int64) float64 { return summarize(samples).P50us }

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
