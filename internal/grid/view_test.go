package grid

// Tests for the read path's one predicate (Site.viewFor): which reads the
// published view answers across a clock step, and that it answers them as a
// site whose clock was moved the old way — by a write — would.

import (
	"errors"
	"testing"

	"coalloc/internal/obs"
	"coalloc/internal/period"
)

// TestViewServesAcrossClockSteps has one row per way viewFor must say yes or
// no. Each row builds a site and a twin with the same history, reads the site
// at now, and checks the answer against the twin after a write moved the
// twin's clock to twinNow and published there — the only way a read ahead of
// the view was ever answered before. fromView says whether the site's view
// may answer: if so the site publishes nothing, keeps its clock and reports
// the view's epoch; if not the read rides the write queue and publishes.
func TestViewServesAcrossClockSteps(t *testing.T) {
	const slot = period.Time(15 * period.Minute) // siteConfig: 96 of them, a 24 h horizon
	held := [2]period.Time{2 * slot, 6 * slot}   // hold "h": 2 of the 4 servers, lease due at 600
	rows := []struct {
		name            string
		commit          bool        // decide "h" before the read; otherwise its lease is running
		then            func(*Site) // done to the site alone, after the shared history
		now, start, end period.Time
		twinNow         period.Time
		fromView        bool
		siteNow         period.Time // reported beside the answer
		want            int
	}{
		{name: "window inside both horizons, three slots on", commit: true,
			now: 3*slot + 7, start: 4 * slot, end: 5 * slot, twinNow: 3*slot + 7, fromView: true, siteNow: 3*slot + 7, want: 2},
		{name: "window ending on the view's horizon", commit: true,
			now: 3 * slot, start: 90 * slot, end: 96 * slot, twinNow: 3 * slot, fromView: true, siteNow: 3 * slot, want: 4},
		{name: "lease still running", now: 599, start: held[0], end: held[1], twinNow: 599, fromView: true, siteNow: 599, want: 2},
		{name: "lease lapses between view and now", now: 600, start: held[0], end: held[1], twinNow: 600, siteNow: 600, want: 4},
		{name: "window past the view's horizon", commit: true,
			now: 3 * slot, start: 95 * slot, end: 97 * slot, twinNow: 3 * slot, siteNow: 3 * slot, want: 4},
		{name: "start before now", commit: true,
			now: 3 * slot, start: slot, end: 2 * slot, twinNow: 3 * slot, siteNow: 3 * slot, want: 0},
		{name: "poisoned site serves its last durable view", commit: true,
			then: func(s *Site) {
				s.AttachWAL(&failingWAL{})
				_, _ = s.Prepare(0, "lost", held[0], held[1], 2, 600) // in memory, never durable
			},
			now: 3 * slot, start: 4 * slot, end: 5 * slot, twinNow: 3 * slot, fromView: true, siteNow: 3 * slot, want: 2},
		{name: "standby keeps its clock and its leases",
			then: func(s *Site) { s.SetStandby(true) },
			now:  2 * slot, start: held[0], end: held[1], twinNow: 0, fromView: true, siteNow: 0, want: 2},
		{name: "fenced site keeps its clock and its leases",
			then: func(s *Site) { s.Fence("test") },
			now:  2 * slot, start: held[0], end: held[1], twinNow: 0, fromView: true, siteNow: 0, want: 2},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			forEachBackend(t, func(t *testing.T, backend string) {
				site, twin := mustSiteBackend(t, "x", 4, backend), mustSiteBackend(t, "x", 4, backend)
				for _, s := range []*Site{site, twin} {
					if _, err := s.Prepare(0, "h", held[0], held[1], 2, 600); err != nil {
						t.Fatal(err)
					}
					if row.commit {
						if err := s.Commit(0, "h"); err != nil {
							t.Fatal(err)
						}
					}
				}
				if row.then != nil {
					row.then(site)
				}

				before := site.view.Load()
				n, epoch, siteNow := site.ProbeView(row.now, row.start, row.end)
				after := site.view.Load()
				if fromView := after == before; fromView != row.fromView {
					t.Fatalf("answered from the view: %v, want %v", fromView, row.fromView)
				}
				if n != row.want || epoch != after.epoch || siteNow != row.siteNow {
					t.Fatalf("ProbeView = %d at epoch %d, site clock %d; want %d at the published epoch %d, %d",
						n, epoch, siteNow, row.want, after.epoch, row.siteNow)
				}
				feasible, repoch, rnow := site.RangeSearchView(row.now, row.start, row.end)
				if len(feasible) != n || repoch != epoch || rnow != siteNow || site.view.Load() != after {
					t.Fatalf("RangeSearchView = %d periods at epoch %d, clock %d; ProbeView said %d, %d, %d",
						len(feasible), repoch, rnow, n, epoch, siteNow)
				}
				if _, _, _, expired := site.Stats(); row.fromView && expired != 0 {
					t.Fatalf("a view-served read expired %d leases", expired)
				}

				// The old way: a write moves the twin's clock and publishes.
				if err := twin.Abort(row.twinNow, "nobody's"); err != nil {
					t.Fatal(err)
				}
				published := twin.view.Load()
				if got, _, _ := twin.ProbeView(row.twinNow, row.start, row.end); got != n || twin.view.Load() != published {
					t.Fatalf("twin at %d answers %d (from its view: %v), site answered %d",
						row.twinNow, got, twin.view.Load() == published, n)
				}
			})
		})
	}
}

// TestPrepareAfterViewServedProbe: the probe leaves the rotation to the
// prepare that follows it, the prepare lands where it would have, and an
// over-ask refused at an epoch that only that prepare's own clock step moved
// is the caller's error — not a conflict to retry in the same window. A
// refusal after somebody took servers across the same clock step still is
// one, and so is one whose clock step expired a lease.
func TestPrepareAfterViewServedProbe(t *testing.T) {
	const slot = period.Time(15 * period.Minute)
	lease := 10 * period.Minute
	s := mustSite(t, "x", 4)
	clock := func() period.Time {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.sched.Now()
	}
	overAsk := func(now period.Time, id string, probed uint64) error {
		_, err := s.PrepareConflictTraced(obs.SpanContext{}, now, id, now+slot, now+2*slot, 4, lease, probed)
		if err == nil {
			t.Fatalf("%s: prepare of 4 servers succeeded", id)
		}
		return err
	}

	// Somebody holds one server for good, so asking for 4 is an over-ask.
	if _, err := s.Prepare(0, "standing", 0, 90*slot, 1, lease); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(0, "standing"); err != nil {
		t.Fatal(err)
	}

	now := 3*slot + 1
	n, probed, _ := s.ProbeView(now, now+slot, now+2*slot)
	if n != 3 || probed != s.Epoch() || clock() != 0 {
		t.Fatalf("probe = %d at epoch %d with the site clock at %d; want 3 at %d from the view, clock unmoved", n, probed, s.Epoch(), clock())
	}
	if err := overAsk(now, "greedy", probed); errors.Is(err, ErrConflict) {
		t.Fatalf("over-ask at an epoch only its own rotation moved came back as a conflict: %v", err)
	}
	if clock() != now || s.Epoch() == probed {
		t.Fatalf("the refused prepare left the clock at %d, epoch %d (probed %d); want the rotation done", clock(), s.Epoch(), probed)
	}
	if _, err := s.PrepareConflictTraced(obs.SpanContext{}, now, "fits", now+slot, now+2*slot, 3, lease, probed); err != nil {
		t.Fatalf("prepare of what the probe promised: %v", err)
	}
	if err := s.Abort(now, "fits"); err != nil {
		t.Fatal(err)
	}

	// Servers taken between the probe and the prepare, across a rotation.
	now = 7 * slot
	_, probed, _ = s.ProbeView(now, now+slot, now+2*slot)
	if _, err := s.Prepare(now, "foreign", now+slot, now+2*slot, 2, lease); err != nil {
		t.Fatal(err)
	}
	if err := overAsk(now, "raced", probed); !errors.Is(err, ErrConflict) {
		t.Fatalf("refusal after a foreign prepare is not a conflict: %v", err)
	}

	// The prepare's own clock step expires the foreign lease: the epoch moved
	// by more than the clock, as it did when the probe did the expiring.
	_, probed, _ = s.ProbeView(now+1, now+slot, now+2*slot)
	if err := overAsk(now+period.Time(lease), "late", probed); !errors.Is(err, ErrConflict) {
		t.Fatalf("refusal after the prepare expired a lease is not a conflict: %v", err)
	}
}
