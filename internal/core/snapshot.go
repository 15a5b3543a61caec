package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"coalloc/internal/calendar"
	"coalloc/internal/period"
)

// schedSnapshot is the serialized scheduler: its own knobs plus the
// calendar's persistent state, encoded as one gob value.
type schedSnapshot struct {
	Servers     int
	SlotSize    period.Duration
	Slots       int
	DeltaT      period.Duration
	MaxAttempts int
	PolicyName  string
	Backend     string // availability backend name; "" (snapshots older than the tag) = calendar.DefaultBackend
	Stats       Stats
	Calendar    calendar.SnapshotData
}

// Snapshot serializes the scheduler (configuration, statistics, and the
// full reservation state) so it survives a process restart. The selection
// policy is recorded by name; a RandomFit policy restores with a fresh
// random stream.
func (s *Scheduler) Snapshot(w io.Writer) error {
	hdr := schedSnapshot{
		Servers:     s.cfg.Servers,
		SlotSize:    s.cfg.SlotSize,
		Slots:       s.cfg.Slots,
		DeltaT:      s.cfg.DeltaT,
		MaxAttempts: s.cfg.MaxAttempts,
		PolicyName:  s.cfg.Policy.Name(),
		Backend:     s.cfg.Backend,
		Stats:       s.stats,
		Calendar:    s.cal.SnapshotData(),
	}
	if err := gob.NewEncoder(w).Encode(hdr); err != nil {
		return fmt.Errorf("core: snapshot: %w", err)
	}
	return nil
}

// Restore reconstructs a scheduler from a Snapshot stream.
func Restore(r io.Reader) (*Scheduler, error) {
	var hdr schedSnapshot
	if err := gob.NewDecoder(r).Decode(&hdr); err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	policy := PolicyByName(hdr.PolicyName, nil)
	if policy == nil {
		return nil, fmt.Errorf("core: restore: unknown policy %q", hdr.PolicyName)
	}
	// Old snapshots predate backend selection and decode Backend as "",
	// which BackendFromSnapshot maps to the serving default: the calendar
	// state is ground truth only, so any backend rebuilds its index from it.
	cal, err := calendar.BackendFromSnapshot(hdr.Backend, hdr.Calendar)
	if err != nil {
		return nil, err
	}
	backend := hdr.Backend
	if backend == "" {
		backend = calendar.DefaultBackend
	}
	cfg := Config{
		Servers:     hdr.Servers,
		SlotSize:    hdr.SlotSize,
		Slots:       hdr.Slots,
		DeltaT:      hdr.DeltaT,
		MaxAttempts: hdr.MaxAttempts,
		Policy:      policy,
		Backend:     backend,
	}
	if got := cal.Config(); got.Servers != cfg.Servers || got.SlotSize != cfg.SlotSize || got.Slots != cfg.Slots {
		return nil, fmt.Errorf("core: restore: calendar config %+v does not match scheduler header", got)
	}
	return &Scheduler{cfg: cfg, cal: cal, stats: hdr.Stats}, nil
}
