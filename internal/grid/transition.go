package grid

import (
	"errors"
	"fmt"

	"coalloc/internal/core"
	"coalloc/internal/period"
)

// siteState is everything a site mutation may touch. apply — with advance,
// its clock step — is the only code that writes it: a live operation decides
// (validates, searches, may refuse), applies the Op it produced and stages it
// for the journal; recovery and a standby apply the journaled Op alone. So
// replay matches the live path by construction.
type siteState struct {
	sched *core.Scheduler
	holds map[string]Hold // prepared, undecided
	// committedHolds remembers decided holds until their window ends, so a
	// broker can compensate a partial phase-2 failure by aborting the sites
	// that did commit (releasing their shares) — without it, Abort of a
	// committed hold would be an unknown-hold no-op and the capacity would
	// stay allocated for the full job duration.
	committedHolds map[string]Hold

	prepared, committed, aborted, expired uint64

	// due is the earliest lease deadline in holds or window end in
	// committedHolds: before it advance has nothing to find. Recomputed by
	// every walk, lowered by every insert; zero (a restored state) is unknown.
	due period.Time
}

// errReleaseRefused marks an apply error raised after the transition: the
// hold is gone but the calendar would not take its servers back, so no
// counter moved. The op is journaled and replays to the same state.
var errReleaseRefused = errors.New("calendar refused the release")

// advance is the clock step of every write. It moves the calendar clock and,
// once now has reached due, walks both maps: committed holds whose windows
// have closed are pruned (nothing is left to compensate; a memoryless
// function of now, so never journaled) and holds whose lease has lapsed are
// returned — the live path expires each with apply(OpExpire), replay meets
// them as the journal's own expire records.
func (st *siteState) advance(now period.Time) (lapsed []Hold) {
	st.sched.Advance(now)
	if st.due != 0 && now < st.due {
		return nil
	}
	due := period.Infinity
	for _, h := range st.holds {
		if h.Expires <= now {
			lapsed = append(lapsed, h)
		} else {
			due = min(due, h.Expires)
		}
	}
	for id, h := range st.committedHolds {
		if h.Alloc.End <= now {
			delete(st.committedHolds, id)
		} else {
			due = min(due, h.Alloc.End)
		}
	}
	st.due = due
	return lapsed
}

// apply is the site's one transition function: the clock step, then op kind
// × the hold's state (the table is in DESIGN.md §8), then the calendar
// release and the counter. The two callers differ in the calendar half of a
// prepare only: the live path has searched and allocated in one sched.Submit
// (§4.2), replay claims the servers the record names and reinstates the
// recorded scheduler counters (internal/core/replay.go). An error other than
// errReleaseRefused means the op did not apply.
func (st *siteState) apply(op Op, replay bool) error {
	if len(st.advance(op.Now)) > 0 {
		// Replay only (a live write has expired them already): the journal
		// expires these in the records that follow. Until it has, every
		// record walks — and so does the first write after a promotion.
		st.due = 0
	}
	var refused error
	h, pending := st.holds[op.HoldID]
	switch op.Kind {
	case OpPrepare:
		if op.HoldID == "" {
			return errors.New("prepare without hold id")
		}
		if _, decided := st.committedHolds[op.HoldID]; pending || decided {
			return fmt.Errorf("hold %q already exists", op.HoldID)
		}
		if replay {
			for _, srv := range op.Alloc.Servers {
				if _, err := st.sched.Claim(srv, op.Alloc.Start, op.Alloc.End); err != nil {
					return err
				}
			}
		}
		st.holds[op.HoldID] = Hold{ID: op.HoldID, Alloc: op.Alloc, Expires: op.Expires}
		st.prepared++
		st.due = min(st.due, op.Expires)
	case OpCommit:
		if !pending {
			return fmt.Errorf("commit of unknown or expired hold %q", op.HoldID)
		}
		delete(st.holds, op.HoldID)
		if h.Alloc.End > op.Now {
			st.committedHolds[op.HoldID] = h
			st.due = min(st.due, h.Alloc.End)
		}
		st.committed++
	case OpAbort, OpExpire:
		// A pending hold is cancelled outright. Only an abort reaches a
		// decided one, and releases it from now on: advance has pruned every
		// window that closed, so End > now and the release is legal.
		known, at, counter := pending, h.Alloc.Start, &st.aborted
		if op.Kind == OpExpire {
			counter = &st.expired
		} else if !pending {
			h, known = st.committedHolds[op.HoldID]
			at = op.Now
		}
		if !known {
			return fmt.Errorf("%s of unknown hold %q", op.Kind, op.HoldID)
		}
		delete(st.holds, op.HoldID)
		delete(st.committedHolds, op.HoldID)
		if err := st.sched.Release(h.Alloc, at); err != nil {
			refused = fmt.Errorf("%s release: %w: %v", op.Kind, errReleaseRefused, err)
		} else {
			*counter++
		}
	default:
		return fmt.Errorf("unknown op kind %d", op.Kind)
	}
	if replay {
		st.sched.RestoreStats(op.SchedStats)
		st.sched.SetOps(op.SchedOps)
	}
	return refused
}
