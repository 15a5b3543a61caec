package main

import (
	"fmt"
	"sync"
	"time"

	"coalloc/internal/grid"
	"coalloc/internal/oracle"
	"coalloc/internal/period"
	"coalloc/internal/wal"
)

// mirrorEvent is one share of a grant or of a release, as the load
// generator saw it acknowledged.
type mirrorEvent struct {
	release    bool
	hold       string
	site       string
	servers    []int
	start, end period.Time
	at         period.Time // the operation's clock; a release truncates the share here
}

// mirror logs every grant and release during the run; check replays the log
// into one internal/oracle per site afterwards. Replaying after the run, not
// during it, keeps the oracle's linear scans out of every timed window.
type mirror struct {
	mu     sync.Mutex
	events []mirrorEvent
}

func newMirror() *mirror { return &mirror{} }

func (m *mirror) grant(a grid.MultiAllocation, now period.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, sh := range a.Shares {
		m.events = append(m.events, mirrorEvent{hold: a.HoldID, site: sh.Site, servers: sh.Servers, start: a.Start, end: a.End, at: now})
	}
}

func (m *mirror) release(a grid.MultiAllocation, now period.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, sh := range a.Shares {
		m.events = append(m.events, mirrorEvent{release: true, hold: a.HoldID, site: sh.Site, servers: sh.Servers, start: a.Start, end: a.End, at: now})
	}
}

// liveShare is a share the oracle currently holds.
type liveShare struct {
	servers    []int
	start, end period.Time
}

// siteMirror is one site's oracle plus the bookkeeping to keep it small: the
// oracle never forgets a reservation and scans them linearly, so every
// compactEvery grants it is rebuilt from the shares that can still matter.
type siteMirror struct {
	cfg    oracle.Config
	o      *oracle.Oracle
	live   map[string]liveShare
	grants int
	clock  period.Time // latest operation clock seen
}

const compactEvery = 256

func (sm *siteMirror) compact() error {
	o, err := oracle.New(sm.cfg, 0)
	if err != nil {
		return err
	}
	// Shares that ended a day before the latest clock can neither collide
	// with a later grant nor be truncated by a later release: both happen at
	// or after the clock, give or take the skew between two clients.
	floor := sm.clock - period.Time(period.Day)
	for id, sh := range sm.live {
		if sh.end <= floor {
			delete(sm.live, id)
			continue
		}
		if err := o.Allocate(sh.servers, sh.start, sh.end); err != nil {
			return fmt.Errorf("rebuild: %w", err)
		}
	}
	sm.o = o
	return nil
}

// check replays the log and reports the first double grant or unknown
// release. A share granted on servers the oracle still has busy in an
// overlapping window is the invariant violation this exists to catch.
func (m *mirror) check() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	sites := make(map[string]*siteMirror)
	for i, name := range []string{"s0", "s1", "s2"} {
		sm := &siteMirror{cfg: oracle.Config{Servers: siteServers[i], SlotSize: slotSize, Slots: slots}, live: make(map[string]liveShare)}
		if err := sm.compact(); err != nil {
			return err
		}
		sites[name] = sm
	}
	for _, ev := range m.events {
		sm := sites[ev.site]
		if sm == nil {
			return fmt.Errorf("oracle: grant on unknown site %q", ev.site)
		}
		if !ev.release {
			if err := sm.o.Allocate(ev.servers, ev.start, ev.end); err != nil {
				return fmt.Errorf("oracle: double grant in %s on %s: %w", ev.hold, ev.site, err)
			}
			sm.live[ev.hold] = liveShare{servers: ev.servers, start: ev.start, end: ev.end}
			if ev.at > sm.clock {
				sm.clock = ev.at
			}
			if sm.grants++; sm.grants%compactEvery == 0 {
				if err := sm.compact(); err != nil {
					return fmt.Errorf("oracle %s: %w", ev.site, err)
				}
			}
			continue
		}
		if ev.at >= ev.end {
			continue // the window already closed: the site's abort is a no-op too
		}
		sh, ok := sm.live[ev.hold]
		if !ok {
			return fmt.Errorf("oracle: release of %s on %s, which holds no such share", ev.hold, ev.site)
		}
		if err := sm.o.Release(sh.servers, sh.start, sh.end, ev.at); err != nil {
			return fmt.Errorf("oracle: release of %s on %s: %w", ev.hold, ev.site, err)
		}
		if ev.at <= sh.start {
			delete(sm.live, ev.hold)
		} else {
			sh.end = ev.at
			sm.live[ev.hold] = sh
		}
	}
	return nil
}

// outstanding lists, per site, the holds that were granted and never
// released: what recovery must still know about.
func (m *mirror) outstanding() map[string]map[string]period.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]map[string]period.Time)
	for _, ev := range m.events {
		if out[ev.site] == nil {
			out[ev.site] = make(map[string]period.Time)
		}
		if ev.release {
			delete(out[ev.site], ev.hold)
		} else {
			out[ev.site][ev.hold] = ev.end
		}
	}
	return out
}

// checkDrained fails if any site still has an undecided hold: every
// co-allocation ended in commit or abort, so nothing may be left leased.
func (fx *fixture) checkDrained() error {
	for _, s := range fx.sites {
		if n := s.PendingHolds(); n != 0 {
			return fmt.Errorf("site %s: %d holds did not drain", s.Name(), n)
		}
	}
	return nil
}

// checkRecovery reopens each site's WAL directory, rebuilds the site as a
// restarted gridd would (wal.Open + grid.RecoverSite over the warm-up
// baseline), and fails if an acknowledged grant whose window is still open
// is missing. The standby's site is held to the same standard: semi-sync
// acknowledged nothing it had not persisted. It returns the time the
// recovery of all sites took. Call after stop().
func (fx *fixture) checkRecovery() (recoverMS float64, err error) {
	want := fx.mirror.outstanding()
	check := func(s *grid.Site, role string) error {
		clock := s.Status().Now
		for hold, end := range want[s.Name()] {
			if end <= clock {
				continue // pruned once its window closed
			}
			if _, committed := s.LookupHold(hold); !committed {
				return fmt.Errorf("%s %s: acknowledged grant %s (window open until %d, clock %d) is missing", role, s.Name(), hold, end, clock)
			}
		}
		return nil
	}
	for i, dir := range fx.walDirs {
		if err := fx.logs[i].Close(); err != nil {
			return 0, err
		}
		t0 := time.Now()
		log, rec, err := wal.Open(dir, walOptions)
		if err != nil {
			return 0, err
		}
		site, _, err := grid.RecoverSite(rec.Checkpoint, rec.Records, restoreFrom(fx.snaps[i]))
		recoverMS += sinceMS(t0)
		// Keep the reopened log in place of the closed one so close() has
		// one uniform job.
		fx.logs[i] = log
		if err != nil {
			return 0, fmt.Errorf("recover %s: %w", dir, err)
		}
		if err := check(site, "recovered"); err != nil {
			return 0, err
		}
	}
	if fx.standby != nil {
		if err := check(fx.standby.Site(), "standby"); err != nil {
			return 0, err
		}
	}
	return recoverMS, nil
}
