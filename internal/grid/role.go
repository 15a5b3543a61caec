package grid

import (
	"errors"
	"fmt"
	"strings"
)

// Replica roles. A site serves in one of two roles: primary (the default —
// it takes broker 2PC traffic and journals every mutation) or standby (it
// applies the primary's replicated journal via ReplayBatch and refuses direct
// mutations, so the two histories can never diverge). Promotion flips a
// standby to primary under a fresh epoch salt, so every availability answer
// the old primary handed out is retired the moment a broker sees the new
// incarnation's epochs. Fencing is the converse: a primary that learns a
// standby was promoted in its place refuses all further mutations, forever —
// in-flight 2PC traffic from brokers still dialed to it fails instead of
// split-braining reservations the promoted replica no longer knows about.

// ErrStandby is returned to direct mutations on a standby replica; only the
// replication stream may move its state.
var ErrStandby = errors.New("grid: standby replica refuses direct mutations")

// ErrFenced is returned to every mutation on a fenced site: a newer
// incarnation was promoted in its place and this one must never acknowledge
// work again.
var ErrFenced = errors.New("grid: site fenced by a newer incarnation")

// IsFencedErr reports whether err (possibly an rpc error flattened to a
// string on the wire) carries a fencing rejection.
func IsFencedErr(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrFenced) {
		return true
	}
	return strings.Contains(strings.ToLower(err.Error()), "fenced")
}

// IsStandbyErr reports whether err is a standby-role rejection, across the
// wire or in process.
func IsStandbyErr(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrStandby) {
		return true
	}
	return strings.Contains(strings.ToLower(err.Error()), "standby replica refuses")
}

// SetStandby sets or clears the standby role. A standby answers probes from
// its last applied view (never advancing its own clock — only the replicated
// stream moves standby state) and refuses Prepare/Commit/Abort with
// ErrStandby.
func (s *Site) SetStandby(on bool) { s.standbyFlag.Store(on) }

// Standby reports whether the site is serving as a standby replica.
func (s *Site) Standby() bool { return s.standbyFlag.Load() }

// Promote flips a standby to primary: direct mutations are accepted from now
// on, and the view is republished under a fresh epoch salt so no cached
// answer from the failed primary's incarnation can be mistaken for this
// one's. It returns the first epoch of the new incarnation. Promoting a
// fenced site fails — a fenced replica lost the race to a newer incarnation
// and must stay down.
func (s *Site) Promote() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fencedFlag.Load() {
		return 0, fmt.Errorf("grid %s: %w", s.name, ErrFenced)
	}
	if !s.standbyFlag.Load() {
		// Promoting a primary is a no-op (idempotent failover retries).
		return s.epochSalt + s.sched.MutationEpoch(), nil
	}
	s.standbyFlag.Store(false)
	s.epochSalt = newEpochSalt()
	s.publishLocked()
	epoch := s.epochSalt + s.sched.MutationEpoch()
	return epoch, nil
}

// Fence permanently refuses every future mutation: a newer incarnation holds
// the site's role now. Reads keep serving the last published view — brokers
// retire it as soon as they observe the new incarnation's epochs. cause is
// recorded for operators.
func (s *Site) Fence(cause string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fencedFlag.Load() {
		return
	}
	s.fencedFlag.Store(true)
	s.fenceCause = cause
}

// Fenced reports whether the site was fenced, and why.
func (s *Site) Fenced() (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fenceCause, s.fencedFlag.Load()
}

// roleOKLocked rejects direct mutations on standbys and fenced sites; the
// caller holds s.mu (or runs inside the write queue).
func (s *Site) roleOKLocked() error {
	if s.fencedFlag.Load() {
		return fmt.Errorf("grid %s: %w", s.name, ErrFenced)
	}
	if s.standbyFlag.Load() {
		return fmt.Errorf("grid %s: %w", s.name, ErrStandby)
	}
	return nil
}

// readsFrozen reports whether reads must be served from the published view
// even when the caller's clock is ahead: standbys and fenced sites never
// self-advance, because a clock advance expires leases — a mutation only the
// primary's journal may order.
func (s *Site) readsFrozen() bool {
	return s.standbyFlag.Load() || s.fencedFlag.Load()
}

// LookupHold reports whether the site currently knows holdID: pending means
// prepared and undecided, committed means decided and still inside its
// window. Failover tests use it to prove no acknowledged hold was lost.
func (s *Site) LookupHold(id string) (pending, committed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lookupLocked(id)
}

func (s *Site) lookupLocked(id string) (pending, committed bool) {
	_, pending = s.holds[id]
	_, committed = s.committedHolds[id]
	return pending, committed
}
