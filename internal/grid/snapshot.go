package grid

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"coalloc/internal/core"
)

// siteSnapshot serializes a site: identity, protocol counters, pending
// holds, and the embedded scheduler (as its own snapshot bytes, so the
// scheduler's format stays self-contained).
type siteSnapshot struct {
	Name      string
	Holds     []Hold
	Decided   []Hold // committed holds still inside their windows (abortable)
	Prepared  uint64
	Committed uint64
	Aborted   uint64
	Expired   uint64
	Scheduler []byte
}

// Snapshot serializes the site, including undecided holds, so a site daemon
// can restart without losing its commitments. Holds keep their lease
// deadlines: a hold whose lease passed while the site was down expires on
// the first operation after restore, exactly as if the site had stayed up.
func (s *Site) Snapshot(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked(w)
}

// snapshotLocked serializes the site; the caller holds s.mu. Holds are
// sorted by ID so identical logical state always yields identical bytes —
// the property the WAL crash tests assert and checkpoints rely on.
func (s *Site) snapshotLocked(w io.Writer) error {
	var sched bytes.Buffer
	if err := s.sched.Snapshot(&sched); err != nil {
		return fmt.Errorf("grid %s: snapshot: %w", s.name, err)
	}
	snap := siteSnapshot{
		Name:      s.name,
		Holds:     make([]Hold, 0, len(s.holds)),
		Decided:   make([]Hold, 0, len(s.committedHolds)),
		Prepared:  s.prepared,
		Committed: s.committed,
		Aborted:   s.aborted,
		Expired:   s.expired,
		Scheduler: sched.Bytes(),
	}
	for _, h := range s.holds {
		snap.Holds = append(snap.Holds, h)
	}
	sort.Slice(snap.Holds, func(i, j int) bool { return snap.Holds[i].ID < snap.Holds[j].ID })
	for _, h := range s.committedHolds {
		snap.Decided = append(snap.Decided, h)
	}
	sort.Slice(snap.Decided, func(i, j int) bool { return snap.Decided[i].ID < snap.Decided[j].ID })
	return gob.NewEncoder(w).Encode(snap)
}

// ResetFromSnapshot replaces the site's state in place with a Snapshot
// stream, keeping the *Site identity stable — servers and clients holding
// the pointer (wire.Server, a standby's apply loop) see the new state on
// their next operation. The replication layer uses it to bootstrap a
// standby from a primary checkpoint. Role flags are preserved; the epoch
// salt is redrawn like any restore, so no pre-reset cached answer can be
// mistaken for the new state.
func (s *Site) ResetFromSnapshot(r io.Reader) error {
	t, err := RestoreSite(r)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.name != s.name {
		return fmt.Errorf("grid %s: reset from snapshot of site %q", s.name, t.name)
	}
	s.siteState = t.siteState
	s.epochSalt = t.epochSalt
	s.staged = nil
	s.publishLocked()
	return nil
}

// RestoreSite reconstructs a site from a Snapshot stream.
func RestoreSite(r io.Reader) (*Site, error) {
	var snap siteSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("grid: restore site: %w", err)
	}
	sched, err := core.Restore(bytes.NewReader(snap.Scheduler))
	if err != nil {
		return nil, fmt.Errorf("grid: restore site %q: %w", snap.Name, err)
	}
	s := &Site{
		name: snap.Name,
		// due stays zero: the first write after a restore walks both maps.
		siteState: siteState{
			sched:          sched,
			holds:          make(map[string]Hold, len(snap.Holds)),
			committedHolds: make(map[string]Hold, len(snap.Decided)),
			prepared:       snap.Prepared,
			committed:      snap.Committed,
			aborted:        snap.Aborted,
			expired:        snap.Expired,
		},
		// A fresh salt, not a serialized one: the snapshot may be stale, so
		// the restored incarnation must not answer under epochs the previous
		// incarnation already handed to brokers.
		epochSalt: newEpochSalt(),
	}
	s.fidle.L = &s.fmu
	for _, h := range snap.Holds {
		if h.ID == "" {
			return nil, fmt.Errorf("grid: restore site %q: hold without id", snap.Name)
		}
		s.holds[h.ID] = h
	}
	for _, h := range snap.Decided {
		if h.ID == "" {
			return nil, fmt.Errorf("grid: restore site %q: committed hold without id", snap.Name)
		}
		s.committedHolds[h.ID] = h
	}
	s.publishLocked()
	return s, nil
}
