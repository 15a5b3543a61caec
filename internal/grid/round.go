package grid

import (
	"fmt"
	"log/slog"
	"slices"
	"time"

	"coalloc/internal/obs"
	"coalloc/internal/period"
)

// A round is one window's probe / prepare / commit attempt: the cross-site
// form of §4.2's "take n_r servers atomically". The round itself is a state
// machine that talks to no site — advance takes the answer to the step it
// last asked for and returns the next step — so every row of its table
// (DESIGN.md §14) is driven in TestBrokerRoundTable from scripted answers.
// runRound is the driver that performs the steps against real connections.

// phase names a kind of step, and so where a round stands: the step it last
// asked for.
type phase uint8

const (
	phProbe   phase = iota // the window's probe round
	phPrepare              // phase 1: lease the head of the queue
	phReprobe              // a prepare lost a conflict with budget left: ask the contended site again
	phCommit               // phase 2: deliver the commit decision to a prepared site
	phAbort                // release what a failed phase 1 leased, or what a partial phase 2 committed
	phDone                 // the round is over; outcome and err say how
)

// outcome is how a finished round ended, as far as CoAllocate's ladder cares.
type outcome uint8

const (
	windowFailed   outcome = iota // this window cannot hold the job; a later one may
	windowGranted                 // committed everywhere
	windowPartial                 // the commit decision missed a site: *CommitError, no automatic retry
	allUnreachable                // no site answered the probe: an outage, not exhaustion
)

// step is what the round asks its driver to do next. site indexes the
// broker's sites.
type step struct {
	kind    phase
	site    int
	servers int    // phPrepare: the share to lease
	epoch   uint64 // phPrepare: the epoch the site's probe answer carried
	// phCommit: which delivery of the decision to this site this is (from 1),
	// whether the retry budget ends with it, and the backoff to sit out
	// first, before jitter.
	delivery int
	last     bool
	wait     time.Duration
	cause    string // phAbort: "prepare_failed" or "compensation"
}

// answer is what the driver brings back from a step.
type answer struct {
	avail   []Avail // phProbe: one per site, in site order; phReprobe: the contended site's alone
	servers []int   // phPrepare: the servers leased
	err     error   // the site's refusal or the call's failure; a probe round's errors ride in avail
}

// round is one window's state. The fields above the blank line are what the
// round is created with; advance is the only code that writes the rest. The
// zero asked step is the probe round, so a new round starts by being
// advanced with the window's probe answers.
type round struct {
	m          *brokerMetrics
	strategy   Strategy
	ids        *holdSeq
	now        period.Time   // the caller's clock, sent with every site call
	start, end period.Time   // the window
	total      int           // servers the job needs
	retries    int           // commit deliveries per site, at least 1
	backoff    time.Duration // base delay between re-deliveries; doubles

	asked      step
	budget     int     // conflict re-splits left
	hold       string  // issued once the first plan stands
	avail      []Avail // the probe round, by site; a re-probe overwrites the contended site's
	queue      []slot  // shares still to prepare; queue[0] is the one in flight
	prepared   []int   // sites holding an undecided lease, in acquisition (= site) order
	granted    []GrantedShare
	got        int          // servers leased so far
	conflicted bool         // a prepare of this window lost a conflict
	refusal    error        // the prepare error that is failing phase 1
	committed  []int        // sites that took the commit decision
	missed     *CommitError // non-nil once the decision failed to reach a site
	targets    []int        // sites still to abort
	aborted    []string

	outcome outcome
	err     error
}

// advance is the round's one transition function: the step last asked for ×
// its answer → the next step. The table is in DESIGN.md §14.
func (r *round) advance(a answer) step {
	site := r.asked.site
	switch r.asked.kind {
	case phProbe:
		r.avail = a.avail
		if !slices.ContainsFunc(a.avail, func(a Avail) bool { return a.Err == nil }) {
			// Not out of capacity — unreachable. A later window cannot help
			// when nothing answers probes, so the ladder stops here.
			r.m.inc(cAllUnreachable)
			return r.finish(allUnreachable, fmt.Errorf("probe round reached 0 of %d sites: %w", len(a.avail), ErrAllSitesUnreachable))
		}
		q, err := plan(r.strategy, r.total, a.avail)
		if err != nil {
			return r.finish(windowFailed, err)
		}
		r.hold, r.queue = r.ids.next(), q
		r.prepared, r.granted, r.committed = make([]int, 0, len(q)), make([]GrantedShare, 0, len(q)), make([]int, 0, len(q))
		return r.prepareNext()

	case phPrepare:
		if a.err == nil {
			r.queue = r.queue[1:]
			r.prepared = append(r.prepared, site)
			r.granted = append(r.granted, GrantedShare{Site: r.name(site), Servers: a.servers})
			r.got += len(a.servers)
			return r.prepareNext()
		}
		r.refusal = a.err
		if asConflict(a.err) != nil {
			r.m.inc(cConflicts)
			if !r.conflicted {
				r.conflicted = true
				r.m.inc(cConflictWindows)
			}
			if r.budget > 0 {
				// Re-probe only the contended site; the prepared prefix is kept.
				return r.ask(step{kind: phReprobe, site: site})
			}
		}
		return r.abortPrepared(site)

	case phReprobe:
		if a.err == nil {
			r.avail[site] = a.avail[0]
			if q, err := replan(r.strategy, r.total-r.got, r.avail, site); err == nil {
				r.budget--
				r.m.inc(cConflictRetries)
				r.queue = q
				return r.prepareNext()
			}
		}
		// The re-probe failed or the residual no longer fits: the conflict
		// fails the window like any other refusal.
		return r.abortPrepared(site)

	case phCommit:
		switch {
		case a.err == nil:
			r.committed = append(r.committed, site)
		case !r.asked.last:
			return r.deliver(r.asked.delivery + 1)
		default:
			r.miss(site, a.err)
		}
		r.prepared = r.prepared[1:]
		return r.commitNext()

	case phAbort:
		// Only the aborts that land count: a failed one releases nothing
		// until the lease expires (or, for a committed share, until a later
		// abort or the window closing).
		if a.err == nil {
			r.aborted = append(r.aborted, r.name(site))
		}
		r.targets = r.targets[1:]
		return r.abortNext()
	}
	panic("grid: round advanced past its end")
}

func (r *round) name(site int) string { return r.avail[site].Conn.Name() }

func (r *round) ask(st step) step {
	r.asked = st
	return st
}

func (r *round) finish(o outcome, err error) step {
	r.outcome, r.err = o, err
	return r.ask(step{kind: phDone})
}

// prepareNext asks for the head of the queue, carrying the epoch its site
// was probed at so the site can classify a refusal as a conflict; an empty
// queue means phase 1 is complete.
func (r *round) prepareNext() step {
	if len(r.queue) == 0 {
		return r.commitNext()
	}
	sh := r.queue[0]
	return r.ask(step{kind: phPrepare, site: sh.site, servers: sh.servers, epoch: r.avail[sh.site].Epoch})
}

// abortPrepared fails phase 1 at site: every lease taken so far is released.
// A timed-out prepare is ambiguous — the request may have reached the site
// and leased the servers though the reply never came — so that site is sent
// a best-effort abort too, releasing a landed hold now rather than at lease
// expiry; if the site is truly unreachable the abort fails as well and the
// lease backs us up.
func (r *round) abortPrepared(site int) step {
	r.err = fmt.Errorf("grid: prepare failed at %s: %w", r.name(site), r.refusal)
	r.targets = r.prepared
	if isTimeoutErr(r.refusal) {
		r.targets = append(r.targets, site)
	}
	return r.abortNext()
}

// miss records that the commit decision never reached site.
func (r *round) miss(site int, err error) {
	if r.missed == nil {
		r.m.inc(cPartialCommits)
		r.missed = &CommitError{HoldID: r.hold, Shares: r.granted}
	}
	r.missed.Failed, r.missed.Err = append(r.missed.Failed, r.name(site)), err
}

// commitNext moves phase 2 to the next prepared site, or ends it: granted
// when every site took the decision, otherwise compensation — without
// aborting the sites that did commit, their shares would stay allocated for
// the whole job duration though the co-allocation failed.
func (r *round) commitNext() step {
	if len(r.prepared) > 0 {
		return r.deliver(1)
	}
	if r.missed == nil {
		if r.conflicted {
			// The window survived its conflicts: the retry path turned what
			// would have been a burned Δt rung into a commit.
			r.m.inc(cConflictWindowSaved)
		}
		r.m.inc(cGranted)
		return r.finish(windowGranted, nil)
	}
	for _, site := range r.committed {
		r.missed.Committed = append(r.missed.Committed, r.name(site))
	}
	r.outcome, r.err, r.targets = windowPartial, r.missed, r.committed
	return r.abortNext()
}

// deliver asks for the n-th delivery of the commit decision to the head of
// prepared. Re-deliveries back off exponentially: a site that refused or
// timed out a moment ago rarely recovers in microseconds, and synchronized
// hammering from many brokers only prolongs the brownout.
func (r *round) deliver(n int) step {
	st := step{kind: phCommit, site: r.prepared[0], delivery: n, last: n >= r.retries}
	if n > 1 && r.backoff > 0 {
		st.wait = r.backoff << (n - 2)
	}
	return r.ask(st)
}

// abortNext asks for the next abort, or ends the round.
func (r *round) abortNext() step {
	if len(r.targets) > 0 {
		cause := "prepare_failed"
		if r.missed != nil {
			cause = "compensation"
		}
		return r.ask(step{kind: phAbort, site: r.targets[0], cause: cause})
	}
	r.m.add(cAborts, uint64(len(r.aborted)))
	if r.missed != nil {
		r.missed.Aborted = r.aborted
	}
	return r.ask(step{kind: phDone})
}

// runRound drives one round for a fixed window against the broker's sites.
// sp is the ladder-attempt span the round's per-site spans parent under.
func (b *Broker) runRound(sp *obs.ActiveSpan, now, start, end period.Time, total int) round {
	defer latency(b.m.windowLatency, sp.TraceID())()
	r := round{
		m: b.m, strategy: b.cfg.Strategy, ids: &b.ids, now: now, start: start, end: end, total: total,
		retries: b.cfg.CommitRetries, backoff: b.cfg.RetryBackoff, budget: max(b.cfg.ConflictRetries, 0),
	}
	var commit *obs.ActiveSpan // one per site, open across its re-deliveries
	for st := (step{kind: phProbe}); st.kind != phDone; {
		var a answer
		c := b.sites[st.site]
		switch st.kind {
		case phProbe:
			a.avail = b.probeSites(sp, now, start, end)
		case phPrepare:
			a.servers, a.err = b.prepare(sp, &r, st)
		case phReprobe:
			rp := sp.StartChild("broker.reprobe", slog.String("site", c.Name()))
			r, _, _, err := b.fetch(st.site, kindProbe, rp.Context(), b.clock(), now, start, end)
			rp.Fail(err)
			rp.End()
			a.avail, a.err = []Avail{availOf(c, r.probe, err)}, err
		case phCommit:
			if st.delivery == 1 {
				commit = sp.StartChild("broker.commit", slog.String("site", c.Name()), slog.String("hold", r.hold))
			}
			if wait := b.jitter(st.wait); wait > 0 {
				b.sleep(wait)
			}
			a.err = connCommit(c, commit.Context(), now, r.hold)
			b.feed(st.site, a.err)
			if a.err != nil && !st.last {
				break // the round asks for a re-delivery under the same span
			}
			if st.delivery > 1 {
				commit.Annotate(slog.Int("retries", st.delivery-1))
			}
			commit.Fail(a.err)
			commit.End()
			b.dropCached(c.Name())
		case phAbort:
			// Best effort; leases back us up.
			a.err = b.decide(sp, st.site, now, r.hold, st.cause, false)
		}
		st = r.advance(a)
	}
	return r
}

// prepare performs one phase-1 step.
func (b *Broker) prepare(sp *obs.ActiveSpan, r *round, st step) ([]int, error) {
	c, hold := b.sites[st.site], r.hold
	ps := sp.StartChild("broker.prepare",
		slog.String("site", c.Name()),
		slog.String("hold", hold),
		slog.Int("servers", st.servers))
	servers, err := connPrepare(c, ps.Context(), r.now, hold, r.start, r.end, st.servers, b.cfg.Lease, st.epoch)
	conflict := asConflict(err)
	if conflict != nil {
		ps.Annotate(slog.Uint64("epoch", conflict.Epoch))
	}
	ps.Fail(err)
	ps.End()
	// Prepare is a mutation whether it succeeded or not (a timed-out one may
	// have landed), so the site's cached availability is void either way —
	// and a prepare answered under a stale idea of the site's state is
	// exactly what the epoch protocol exists to flush.
	b.dropCached(c.Name())
	if conflict != nil {
		// The site answered; losing an optimistic-concurrency race is not an
		// outage, so the breaker sees a success.
		b.feed(st.site, nil)
		return nil, err
	}
	b.feed(st.site, err)
	return servers, err
}

// decide delivers the abort decision for hold to one site under a
// broker.abort span and voids the site's cached availability. With gate set
// (Release) an open circuit breaker is honoured — the span records the skip —
// and the outcome feeds the breaker; a round's own best-effort aborts leave
// the breaker alone.
func (b *Broker) decide(sp *obs.ActiveSpan, site int, now period.Time, hold, cause string, gate bool) error {
	c := b.sites[site]
	as := sp.StartChild("broker.abort",
		slog.String("site", c.Name()),
		slog.String("hold", hold),
		slog.String("cause", cause))
	if gate {
		if err := b.breakerOpenFor(site, b.clock()); err != nil {
			as.Fail(err)
			as.End()
			return err
		}
	}
	err := connAbort(c, as.Context(), now, hold)
	as.Fail(err)
	as.End()
	b.dropCached(c.Name())
	if gate {
		b.feed(site, err)
	}
	return err
}
