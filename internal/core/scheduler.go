// Package core implements the paper's primary contribution: the online
// resource co-allocation algorithm of Castillo, Rouskas, and Harfoush
// (HPDC'09, §4). Requests are scheduled the moment they arrive; a two-phase
// range search over the slot calendar locates all n_r required servers
// simultaneously, and failed attempts are retried at increments of Δt up to
// R_max times. The scheduler supports on-demand jobs, advance reservations,
// deadlines (§5.2), non-committing range searches, alternative-time
// suggestions (§3.1), and early release of over-estimated jobs.
package core

import (
	"errors"
	"fmt"

	"coalloc/internal/calendar"
	"coalloc/internal/job"
	"coalloc/internal/period"
)

// Config parameterizes a Scheduler. Zero fields take the documented
// defaults.
type Config struct {
	// Servers is N, the number of servers managed by this scheduler.
	Servers int
	// SlotSize is τ, the calendar slot length and the minimum temporal size
	// of a request. The paper uses 15 minutes.
	SlotSize period.Duration
	// Slots is Q: the horizon is H = Slots × SlotSize.
	Slots int
	// DeltaT is Δt, the increment applied to a request's start time on each
	// failed scheduling attempt. Defaults to SlotSize (the paper's 15 min).
	DeltaT period.Duration
	// MaxAttempts is R_max, the total number of scheduling attempts per
	// request. Defaults to Slots/2, the paper's setting.
	MaxAttempts int
	// Policy selects among feasible idle periods. Defaults to PaperOrder.
	Policy SelectionPolicy
	// Backend names the availability backend holding the slot calendar:
	// "dtree" (the paper's 2-D tree) or "flat" (contiguous slot profiles);
	// see calendar.Backends. Empty selects calendar.DefaultBackend.
	Backend string
}

func (c *Config) applyDefaults() {
	if c.DeltaT <= 0 {
		c.DeltaT = c.SlotSize
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = c.Slots / 2
		if c.MaxAttempts == 0 {
			c.MaxAttempts = 1
		}
	}
	if c.Policy == nil {
		c.Policy = PaperOrder{}
	}
	if c.Backend == "" {
		c.Backend = calendar.DefaultBackend
	}
}

// Horizon returns H.
func (c Config) Horizon() period.Duration { return c.SlotSize * period.Duration(c.Slots) }

// Rejection reasons reported by RejectionError.
const (
	ReasonAttemptsExhausted = "maximum scheduling attempts exhausted"
	ReasonBeyondHorizon     = "request cannot complete within the scheduling horizon"
	ReasonDeadline          = "deadline unreachable"
	ReasonTooWide           = "request needs more servers than the system has"
)

// RejectionError reports why a request could not be scheduled.
type RejectionError struct {
	Job      job.Request
	Attempts int         // scheduling attempts consumed
	LastTry  period.Time // last start time probed
	Reason   string
}

// Error implements the error interface.
func (e *RejectionError) Error() string {
	return fmt.Sprintf("coalloc: job %d rejected after %d attempts (last start %d): %s",
		e.Job.ID, e.Attempts, e.LastTry, e.Reason)
}

// ErrRejected matches any RejectionError via errors.Is.
var ErrRejected = errors.New("coalloc: request rejected")

// Is reports whether target is ErrRejected.
func (e *RejectionError) Is(target error) bool { return target == ErrRejected }

// Stats summarizes a scheduler's lifetime activity.
type Stats struct {
	Submitted     int
	Accepted      int
	Rejected      int
	TotalAttempts uint64 // scheduling attempts over all requests
	RangeSearches uint64
	Releases      uint64
}

// Scheduler is the online co-allocation scheduler. It is not safe for
// concurrent use; wrap it (as internal/grid does) to serialize access.
type Scheduler struct {
	cfg   Config
	cal   calendar.AvailabilityBackend
	stats Stats
}

// New creates a scheduler whose clock starts at now with all servers idle.
func New(cfg Config, now period.Time) (*Scheduler, error) {
	cfg.applyDefaults()
	cal, err := calendar.NewBackend(cfg.Backend, calendar.Config{
		Servers:  cfg.Servers,
		SlotSize: cfg.SlotSize,
		Slots:    cfg.Slots,
	}, now)
	if err != nil {
		return nil, err
	}
	return &Scheduler{cfg: cfg, cal: cal}, nil
}

// Config returns the scheduler's effective configuration (with defaults
// applied).
func (s *Scheduler) Config() Config { return s.cfg }

// Now returns the scheduler's current time.
func (s *Scheduler) Now() period.Time { return s.cal.Now() }

// HorizonEnd returns the latest instant the scheduler can currently commit.
func (s *Scheduler) HorizonEnd() period.Time { return s.cal.HorizonEnd() }

// Ops returns the cumulative elementary-operation count (Fig. 7(b) metric).
func (s *Scheduler) Ops() uint64 { return s.cal.Ops() }

// MutationEpoch returns the calendar's mutation epoch: a counter that
// increases whenever an availability answer may change (allocation, release,
// slot rotation). Published views carry the epoch they were cut at, so a
// broker can cache probe answers and invalidate them the moment the epoch
// moves; see calendar.(*Calendar).MutationEpoch.
func (s *Scheduler) MutationEpoch() uint64 { return s.cal.MutationEpoch() }

// OpsBreakdown attributes the operation count to search, update, and
// rotation work (see calendar.OpsBreakdown).
func (s *Scheduler) OpsBreakdown() calendar.OpsBreakdown { return s.cal.Breakdown() }

// Stats returns a snapshot of lifetime counters.
func (s *Scheduler) Stats() Stats { return s.stats }

// Advance moves the scheduler's clock forward, rotating the slot calendar.
func (s *Scheduler) Advance(now period.Time) {
	if now > s.cal.Now() {
		s.cal.Advance(now)
	}
}

// Submit handles a reservation request following §4.2: it attempts to
// schedule the job at its requested start time and, on failure, retries
// after increments of Δt, up to R_max attempts. On success it commits the
// selected idle periods and returns the allocation; on failure it returns a
// *RejectionError (errors.Is(err, ErrRejected) is true).
//
// The scheduler clock is advanced to the request's submission time first, so
// feeding requests in submission order drives the calendar rotation
// automatically.
func (s *Scheduler) Submit(r job.Request) (job.Allocation, error) {
	if err := r.Validate(); err != nil {
		return job.Allocation{}, err
	}
	s.Advance(r.Submit)
	s.stats.Submitted++
	if r.Servers > s.cfg.Servers {
		s.stats.Rejected++
		return job.Allocation{}, &RejectionError{Job: r, Reason: ReasonTooWide}
	}

	start := r.Start
	if now := s.cal.Now(); start < now {
		start = now
	}
	latest := period.Time(1<<62 - 1)
	if r.Deadline != 0 {
		latest = r.Deadline - period.Time(r.Duration)
	}

	deltaT := s.cfg.DeltaT
	if r.DeltaT > 0 {
		deltaT = r.DeltaT
	}
	maxAttempts := s.cfg.MaxAttempts
	if r.MaxAttempts > 0 {
		maxAttempts = r.MaxAttempts
	}

	attempts := 0
	for attempts < maxAttempts {
		if start > latest {
			s.stats.Rejected++
			s.stats.TotalAttempts += uint64(attempts)
			return job.Allocation{}, &RejectionError{Job: r, Attempts: attempts, LastTry: start, Reason: ReasonDeadline}
		}
		end := start.Add(r.Duration)
		if end > s.cal.HorizonEnd() {
			// Retrying only moves the job later, so this cannot recover.
			s.stats.Rejected++
			s.stats.TotalAttempts += uint64(attempts)
			return job.Allocation{}, &RejectionError{Job: r, Attempts: attempts, LastTry: start, Reason: ReasonBeyondHorizon}
		}
		attempts++

		feasible := s.findFeasible(start, end, r.Servers)
		if len(feasible) >= r.Servers {
			chosen := s.cfg.Policy.Select(feasible, start, end, r.Servers)
			servers := make([]int, 0, r.Servers)
			for _, p := range chosen {
				if err := s.cal.Allocate(p, start, end); err != nil {
					// The search and the policy operate on a consistent
					// snapshot, so this indicates an internal bug; surface
					// it loudly rather than mis-accounting.
					panic(fmt.Sprintf("core: allocation of searched period failed: %v", err))
				}
				servers = append(servers, p.Server)
			}
			s.stats.Accepted++
			s.stats.TotalAttempts += uint64(attempts)
			return job.Allocation{
				Job:      r,
				Servers:  servers,
				Start:    start,
				End:      end,
				Attempts: attempts,
				Wait:     period.Duration(start - r.Start),
			}, nil
		}
		start = start.Add(deltaT)
	}
	s.stats.Rejected++
	s.stats.TotalAttempts += uint64(attempts)
	return job.Allocation{}, &RejectionError{Job: r, Attempts: attempts, LastTry: start, Reason: ReasonAttemptsExhausted}
}

// findFeasible returns up to want feasible periods; a policy that ranks
// every feasible period gets the whole range search instead.
func (s *Scheduler) findFeasible(start, end period.Time, want int) []period.Period {
	if s.cfg.Policy.NeedsAll() {
		return s.cal.RangeSearch(start, end)
	}
	feasible, _ := s.cal.FindFeasible(start, end, want)
	return feasible
}

// RangeSearch returns every idle period available for the window
// [start, end) without committing anything — the user-driven range search of
// §4.2 that supports application-specific resource selection.
func (s *Scheduler) RangeSearch(start, end period.Time) []period.Period {
	s.stats.RangeSearches++
	return s.cal.RangeSearch(start, end)
}

// Available reports how many servers could be co-allocated over [start, end)
// right now.
func (s *Scheduler) Available(start, end period.Time) int {
	return len(s.cal.RangeSearch(start, end))
}

// PublishView captures an immutable snapshot of the calendar's searchable
// state for lock-free concurrent reads; see calendar.View for the
// copy-on-write contract. The scheduler itself stays single-threaded — the
// caller (a grid site) publishes a view after each serialized mutation batch
// and serves probes and range searches from it.
func (s *Scheduler) PublishView() calendar.View { return s.cal.PublishView() }

// SuggestAlternatives probes up to MaxAttempts candidate start times spaced
// Δt apart, beginning at the request's start, and returns up to k start
// times at which the request would currently succeed — without reserving
// anything. This implements the VCL behaviour of §3.1: "otherwise, it
// suggests alternative times at which the resources are available".
func (s *Scheduler) SuggestAlternatives(r job.Request, k int) []period.Time {
	if err := r.Validate(); err != nil || k <= 0 {
		return nil
	}
	start := r.Start
	if now := s.cal.Now(); start < now {
		start = now
	}
	var out []period.Time
	for attempt := 0; attempt < s.cfg.MaxAttempts && len(out) < k; attempt++ {
		end := start.Add(r.Duration)
		if end > s.cal.HorizonEnd() {
			break
		}
		feasible, _ := s.cal.FindFeasible(start, end, r.Servers)
		if len(feasible) >= r.Servers {
			out = append(out, start)
		}
		start = start.Add(s.cfg.DeltaT)
	}
	return out
}

// Claim commits the window [start, end) on one specific server, if it is
// idle throughout. This is the commit half of the range-search workflow of
// §4.2: the user post-processes the periods returned by RangeSearch,
// selects the resources that suit the application (e.g. a wavelength that
// is free on every link of a lightpath), and contacts the scheduler to
// commit exactly that selection.
func (s *Scheduler) Claim(server int, start, end period.Time) (job.Allocation, error) {
	now := s.cal.Now()
	if start < now {
		return job.Allocation{}, fmt.Errorf("core: claim start %d in the past (now %d)", start, now)
	}
	if end > s.cal.HorizonEnd() {
		return job.Allocation{}, fmt.Errorf("core: claim end %d past horizon %d", end, s.cal.HorizonEnd())
	}
	p, ok := s.cal.PeriodCovering(server, start, end)
	if !ok {
		return job.Allocation{}, fmt.Errorf("core: server %d not idle over [%d,%d)", server, start, end)
	}
	if err := s.cal.Allocate(p, start, end); err != nil {
		return job.Allocation{}, err
	}
	s.stats.Accepted++
	s.stats.Submitted++
	return job.Allocation{
		Job:      job.Request{Submit: now, Start: start, Duration: period.Duration(end - start), Servers: 1},
		Servers:  []int{server},
		Start:    start,
		End:      end,
		Attempts: 1,
	}, nil
}

// Release returns the tail of an allocation to the pool: every server in the
// allocation is freed from at onward (at < alloc.End). Use it when a job
// finishes before its estimated duration. at <= alloc.Start cancels the
// allocation entirely.
func (s *Scheduler) Release(alloc job.Allocation, at period.Time) error {
	if at >= alloc.End {
		return fmt.Errorf("core: release time %d not before allocation end %d", at, alloc.End)
	}
	for _, srv := range alloc.Servers {
		if err := s.cal.Release(srv, alloc.Start, alloc.End, at); err != nil {
			return err
		}
	}
	s.stats.Releases++
	return nil
}

// Utilization returns the fraction of capacity committed over [a, b).
func (s *Scheduler) Utilization(a, b period.Time) float64 { return s.cal.Utilization(a, b) }

// IdleAt reports whether the given server is uncommitted at instant t.
func (s *Scheduler) IdleAt(server int, t period.Time) bool { return s.cal.IdleAt(server, t) }

// BusyBetween returns a server's committed time within [a, b).
func (s *Scheduler) BusyBetween(server int, a, b period.Time) period.Duration {
	return s.cal.BusyBetween(server, a, b)
}
