package calendar

import (
	"encoding/gob"
	"fmt"
	"io"

	"coalloc/internal/dtree"
	"coalloc/internal/period"
)

// snapshotVersion guards the wire format.
const snapshotVersion = 1

// SnapInterval mirrors a reservation with exported fields for gob.
type SnapInterval struct {
	Start, End period.Time
}

// SnapshotData is the serialized form of a calendar: configuration, clock,
// and the per-server reservation lists. The slot trees and the tail index
// are pure indexes over that ground truth, so they are rebuilt on restore
// rather than serialized — the snapshot stays small and the restore path
// reuses the same construction code the moving horizon exercises.
type SnapshotData struct {
	Version int
	Config  Config
	Now     period.Time
	Genesis period.Time
	Busy    [][]SnapInterval
	Ops     uint64
}

// makeSnapshotData captures backend ground truth in the neutral form every
// backend shares; both Calendar and Flat build their snapshots through it.
func makeSnapshotData(cfg Config, now, genesis period.Time, busy []busyList, ops uint64) SnapshotData {
	s := SnapshotData{
		Version: snapshotVersion,
		Config:  cfg,
		Now:     now,
		Genesis: genesis,
		Busy:    make([][]SnapInterval, len(busy)),
		Ops:     ops,
	}
	for i := range busy {
		ivs := make([]SnapInterval, len(busy[i].iv))
		for j, iv := range busy[i].iv {
			ivs[j] = SnapInterval{Start: iv.start, End: iv.end}
		}
		s.Busy[i] = ivs
	}
	return s
}

// restoreGround validates a snapshot and rebuilds the per-server reservation
// lists — the ground truth every backend restores its indexes from.
func restoreGround(s SnapshotData) ([]busyList, error) {
	if s.Version != snapshotVersion {
		return nil, fmt.Errorf("calendar: snapshot version %d, want %d", s.Version, snapshotVersion)
	}
	if err := s.Config.validate(); err != nil {
		return nil, err
	}
	if len(s.Busy) != s.Config.Servers {
		return nil, fmt.Errorf("calendar: snapshot has %d busy lists for %d servers", len(s.Busy), s.Config.Servers)
	}
	busy := make([]busyList, s.Config.Servers)
	for i, ivs := range s.Busy {
		list := make([]interval, len(ivs))
		for j, iv := range ivs {
			list[j] = interval{start: iv.Start, end: iv.End}
		}
		busy[i].iv = list
		if err := busy[i].check(); err != nil {
			return nil, fmt.Errorf("calendar: restore server %d: %w", i, err)
		}
	}
	return busy, nil
}

// SnapshotData captures the calendar's persistent state.
func (c *Calendar) SnapshotData() SnapshotData {
	return makeSnapshotData(c.cfg, c.now, c.genesis, c.busy, c.ops)
}

// Snapshot serializes the calendar so it can be restored after a restart.
func (c *Calendar) Snapshot(w io.Writer) error {
	return gob.NewEncoder(w).Encode(c.SnapshotData())
}

// Restore reconstructs a calendar from a Snapshot stream.
func Restore(r io.Reader) (*Calendar, error) {
	var s SnapshotData
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("calendar: restore: %w", err)
	}
	return FromSnapshotData(s)
}

// FromSnapshotData rebuilds a calendar (including every slot tree and the
// tail index) from captured state.
func FromSnapshotData(s SnapshotData) (*Calendar, error) {
	busy, err := restoreGround(s)
	if err != nil {
		return nil, err
	}
	c := &Calendar{
		cfg:     s.Config,
		ops:     s.Ops,
		now:     s.Now,
		genesis: s.Genesis,
		base:    int64(s.Now) / int64(s.Config.SlotSize),
		busy:    busy,
	}
	c.slots = newRing(s.Config.Slots, c.cloneTree)
	// Rebuild the indexes: tails from the last reservation of each server,
	// slot trees from the reservation-gap structure.
	c.tails = newTailIndex(s.Config.Servers, s.Genesis, &c.ops)
	for srv := range c.busy {
		if start := c.busy[srv].tailStart(s.Genesis); start != s.Genesis {
			c.tails.update(srv, s.Genesis, start)
		}
	}
	q := int64(s.Config.Slots)
	for abs := c.base; abs < c.base+q; abs++ {
		c.slots.set(abs, dtree.New(&c.ops))
		c.fillSlot(abs)
	}
	// Index rebuilding above counts tree insertions into c.ops; restoring a
	// snapshot must not inflate the workload metric, so reinstate the
	// captured value now that the trees share &c.ops for future work.
	c.ops = s.Ops
	return c, nil
}
