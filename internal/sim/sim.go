// Package sim drives workloads through the schedulers and collects the
// evaluation metrics of §5: per-job waiting time, temporal penalty,
// scheduling attempts, operation counts, acceptance, and utilization. It is
// the shared engine behind cmd/coallocsim, cmd/benchtables, and the
// bench_test.go harness.
package sim

import (
	"container/heap"
	"fmt"
	"sort"

	"coalloc/internal/batch"
	"coalloc/internal/core"
	"coalloc/internal/job"
	"coalloc/internal/period"
)

// JobResult records one job's fate under the online scheduler.
type JobResult struct {
	Job      job.Request
	Accepted bool
	Start    period.Time
	Wait     period.Duration // W_r = Start - Job.Start (the §5 definition)
	Attempts int
	Ops      uint64 // elementary operations spent on this request (Fig. 7(b))
}

// WaitFromSubmit returns Start - Job.Submit: for advance reservations this
// includes the requested lead time. Figures 6 and 7(a) plot this quantity —
// the paper's peak "around 3 hours" is the AR lead window showing up, which
// only happens when waits are measured from submission.
func (r JobResult) WaitFromSubmit() period.Duration {
	return period.Duration(r.Start - r.Job.Submit)
}

// TemporalPenalty returns W_r / l_r.
func (r JobResult) TemporalPenalty() float64 {
	if r.Job.Duration == 0 {
		return 0
	}
	return float64(r.Wait) / float64(r.Job.Duration)
}

// OnlineResult aggregates an online-scheduler run.
type OnlineResult struct {
	Results     []JobResult
	Accepted    int
	Rejected    int
	TotalOps    uint64
	Utilization float64 // committed capacity over the busy span
	Span        period.Duration
}

// MeanWait returns the mean waiting time of accepted jobs, in seconds.
func (r *OnlineResult) MeanWait() float64 {
	n, sum := 0, 0.0
	for _, jr := range r.Results {
		if jr.Accepted {
			sum += float64(jr.Wait)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanOpsPerJob returns the mean operation count per request.
func (r *OnlineResult) MeanOpsPerJob() float64 {
	if len(r.Results) == 0 {
		return 0
	}
	return float64(r.TotalOps) / float64(len(r.Results))
}

// AcceptanceRate returns the fraction of jobs accepted.
func (r *OnlineResult) AcceptanceRate() float64 {
	if len(r.Results) == 0 {
		return 0
	}
	return float64(r.Accepted) / float64(len(r.Results))
}

// OnlineOptions tunes RunOnlineWith.
type OnlineOptions struct {
	// EarlyRelease frees each allocation at Start+RunTime when the job's
	// actual run time is below its estimate, exercising the scheduler's
	// early-release extension. Jobs with RunTime == 0 or RunTime ==
	// Duration run for their full estimate.
	EarlyRelease bool
}

// pendingRelease is a scheduled early release of one allocation.
type pendingRelease struct {
	at    period.Time
	alloc job.Allocation
}

type releaseHeap []pendingRelease

func (h releaseHeap) Len() int           { return len(h) }
func (h releaseHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h releaseHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *releaseHeap) Push(x any)        { *h = append(*h, x.(pendingRelease)) }
func (h *releaseHeap) Pop() any          { o := *h; n := len(o); x := o[n-1]; *h = o[:n-1]; return x }

// RunOnline replays the workload through the paper's online co-allocation
// scheduler with default options. Jobs are submitted in submission order
// (the scheduler clock advances with them); each job's operation count is
// the delta of the scheduler's elementary-operation counter around its
// submission.
func RunOnline(cfg core.Config, jobs []job.Request) (*OnlineResult, error) {
	return RunOnlineWith(cfg, jobs, OnlineOptions{})
}

// RunOnlineWith is RunOnline with options.
func RunOnlineWith(cfg core.Config, jobs []job.Request, opts OnlineOptions) (*OnlineResult, error) {
	if len(jobs) == 0 {
		return &OnlineResult{}, nil
	}
	ordered := make([]job.Request, len(jobs))
	copy(ordered, jobs)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Submit < ordered[j].Submit })

	s, err := core.New(cfg, ordered[0].Submit)
	if err != nil {
		return nil, err
	}
	res := &OnlineResult{Results: make([]JobResult, 0, len(ordered))}
	var releases releaseHeap
	var firstStart, lastEnd period.Time
	haveSpan := false
	for _, r := range ordered {
		// Apply early releases that fall due before this submission, so
		// the reclaimed capacity is visible to the new request.
		for len(releases) > 0 && releases[0].at <= r.Submit {
			pr := heap.Pop(&releases).(pendingRelease)
			if err := s.Release(pr.alloc, pr.at); err != nil {
				return nil, fmt.Errorf("sim: early release of job %d: %w", pr.alloc.Job.ID, err)
			}
		}
		before := s.Ops()
		a, err := s.Submit(r)
		opsDelta := s.Ops() - before
		res.TotalOps += opsDelta
		jr := JobResult{Job: r, Ops: opsDelta}
		if err != nil {
			var rej *core.RejectionError
			if !asRejection(err, &rej) {
				return nil, fmt.Errorf("sim: job %d: %w", r.ID, err)
			}
			jr.Attempts = rej.Attempts
			res.Rejected++
		} else {
			jr.Accepted = true
			jr.Start = a.Start
			jr.Wait = a.Wait
			jr.Attempts = a.Attempts
			res.Accepted++
			if !haveSpan || a.Start < firstStart {
				firstStart = a.Start
			}
			if !haveSpan || a.End > lastEnd {
				lastEnd = a.End
			}
			haveSpan = true
			if opts.EarlyRelease && r.RunTime > 0 && r.RunTime < r.Duration {
				heap.Push(&releases, pendingRelease{at: a.Start.Add(r.RunTime), alloc: a})
			}
		}
		res.Results = append(res.Results, jr)
	}
	if haveSpan && lastEnd > firstStart {
		res.Span = period.Duration(lastEnd - firstStart)
		res.Utilization = s.Utilization(firstStart, lastEnd)
	}
	return res, nil
}

func asRejection(err error, out **core.RejectionError) bool {
	re, ok := err.(*core.RejectionError)
	if ok {
		*out = re
	}
	return ok
}

// BatchResult aggregates a batch-discipline run.
type BatchResult struct {
	Outcomes []batch.Outcome
	TotalOps uint64
}

// MeanWait returns the mean wait of non-rejected jobs, in seconds.
func (r *BatchResult) MeanWait() float64 {
	n, sum := 0, 0.0
	for _, o := range r.Outcomes {
		if !o.Rejected {
			sum += float64(o.Wait)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// RunBatch replays the workload under a batch discipline.
func RunBatch(capacity int, disc batch.Discipline, jobs []job.Request) *BatchResult {
	s := batch.New(capacity, disc)
	out := s.Run(jobs)
	return &BatchResult{Outcomes: out, TotalOps: s.Ops()}
}

// DefaultCoreConfig returns the paper's scheduler parameterization for a
// machine of n servers: τ = Δt = 15 minutes, horizon H = 7 days
// (Q = 672 slots), R_max = Q/2.
func DefaultCoreConfig(n int) core.Config {
	slot := 15 * period.Minute
	slots := int(7 * period.Day / slot)
	return core.Config{
		Servers:  n,
		SlotSize: slot,
		Slots:    slots,
		DeltaT:   slot,
		// The reproduction counts the paper's tree operations (Fig. 7b,
		// Table 2), so it names the 2-D tree whatever the serving default is.
		Backend: "dtree",
		// MaxAttempts defaults to Slots/2 inside core.
	}
}
