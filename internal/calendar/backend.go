package calendar

import (
	"fmt"
	"io"
	"sort"

	"coalloc/internal/period"
)

// AvailabilityBackend is the contract every availability data structure must
// meet to sit under core.Scheduler. The paper's 2-D tree (Calendar) is one
// implementation; Flat is a second, array-based one in the spirit of Brodnik
// & Nilsson's static structure for discrete reservations. Backends are
// interchangeable: the differential oracle suite, the WAL crash sweep, and
// FuzzBackendEquivalence run against every registered backend, so a backend
// that registers itself inherits the full verification spine.
//
// Semantics a backend must honour exactly (see DESIGN.md §15):
//
//   - Search semantics: FindFeasible implements the two-phase search of
//     §4.2 — candidates are idle periods with Start <= start, feasible ones
//     additionally have End >= end; if want > 0 and fewer than want
//     candidates exist in start's slot plus the tail index, the feasibility
//     phase is skipped and (nil, candidates) is returned. RangeSearch
//     returns every feasible period. Both return nil when start's slot is
//     outside the active window or end exceeds HorizonEnd.
//   - Epoch: MutationEpoch increases on every successful Allocate, every
//     successful Release, and every Advance that moves the base slot.
//     Clock movement within the current base slot must not bump it.
//   - Views: PublishView captures an immutable snapshot whose reads are
//     side-effect free (no ops counting) and safe for any number of
//     concurrent readers while the backend keeps mutating.
//   - Replay determinism: SnapshotData captures the ground truth (the
//     per-server reservation lists) in the backend-neutral SnapshotData
//     form; restoring it and re-applying a journal via Allocate +
//     SetOps must reproduce snapshot bytes exactly (grid's crash sweep
//     proves this byte for byte).
type AvailabilityBackend interface {
	// Configuration and clock.
	Config() Config
	Now() period.Time
	Servers() int
	WindowStart() period.Time
	HorizonEnd() period.Time

	// Workload metric (Fig. 7(b)) and cache-invalidation epoch.
	Ops() uint64
	SetOps(n uint64)
	MutationEpoch() uint64
	Breakdown() OpsBreakdown

	// The §4 operations.
	Advance(now period.Time)
	FindFeasible(start, end period.Time, want int) ([]period.Period, int)
	RangeSearch(start, end period.Time) []period.Period
	Allocate(p period.Period, start, end period.Time) error
	PeriodCovering(server int, start, end period.Time) (period.Period, bool)
	Release(server int, start, end, newEnd period.Time) error

	// Accounting reads.
	IdleAt(server int, t period.Time) bool
	BusyBetween(server int, a, b period.Time) period.Duration
	Utilization(a, b period.Time) float64

	// Concurrency and durability.
	PublishView() View
	SnapshotData() SnapshotData
	Snapshot(w io.Writer) error

	// CheckConsistency validates the backend's indexes against its ground
	// truth; the randomized suites call it continuously.
	CheckConsistency() error
}

// View is an immutable snapshot of a backend's searchable state as of one
// instant. Any number of goroutines may search a View concurrently, with no
// locking, while the owning backend keeps mutating. View reads are
// side-effect free: they touch no operation counter, so a View contributes
// nothing to the Fig. 7(b) metric, exactly like any other read replica.
type View interface {
	// Now returns the instant the view was published at.
	Now() period.Time
	// Epoch returns the backend's mutation epoch at publication. Two views
	// with equal epochs answer every availability question identically.
	Epoch() uint64
	// HorizonEnd returns the right edge of the view's active window.
	HorizonEnd() period.Time
	// RangeSearch returns every idle period feasible for [start, end) as of
	// publication — the concurrent twin of the backend's RangeSearch.
	RangeSearch(start, end period.Time) []period.Period
	// Available reports how many servers could be co-allocated over
	// [start, end) as of publication.
	Available(start, end period.Time) int
}

// BackendFactory constructs one backend kind, fresh or from a snapshot.
type BackendFactory struct {
	New          func(cfg Config, now period.Time) (AvailabilityBackend, error)
	FromSnapshot func(s SnapshotData) (AvailabilityBackend, error)
}

// DefaultBackend is the backend used when none is named: the flat profiles,
// which win or tie every regime BenchmarkBackendRegimes measures (DESIGN.md
// §15). Code that reproduces the paper's operation counts names "dtree".
const DefaultBackend = "flat"

var backendRegistry = map[string]BackendFactory{
	"dtree": {
		New: func(cfg Config, now period.Time) (AvailabilityBackend, error) {
			return New(cfg, now)
		},
		FromSnapshot: func(s SnapshotData) (AvailabilityBackend, error) {
			return FromSnapshotData(s)
		},
	},
	"flat": {
		New: func(cfg Config, now period.Time) (AvailabilityBackend, error) {
			return NewFlat(cfg, now)
		},
		FromSnapshot: func(s SnapshotData) (AvailabilityBackend, error) {
			return FlatFromSnapshotData(s)
		},
	},
}

// RegisterBackend adds a backend under the given name, replacing any
// previous registration. Call it from an init function; the registry is not
// synchronized.
func RegisterBackend(name string, f BackendFactory) {
	if name == "" || f.New == nil || f.FromSnapshot == nil {
		panic("calendar: RegisterBackend needs a name and both constructors")
	}
	backendRegistry[name] = f
}

// Backends returns the registered backend names in sorted order.
func Backends() []string {
	names := make([]string, 0, len(backendRegistry))
	for name := range backendRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func backendFactory(name string) (BackendFactory, error) {
	if name == "" {
		name = DefaultBackend
	}
	f, ok := backendRegistry[name]
	if !ok {
		return BackendFactory{}, fmt.Errorf("calendar: unknown backend %q (have %v)", name, Backends())
	}
	return f, nil
}

// NewBackend creates a named backend ("" selects DefaultBackend) starting at
// now with every server idle.
func NewBackend(name string, cfg Config, now period.Time) (AvailabilityBackend, error) {
	f, err := backendFactory(name)
	if err != nil {
		return nil, err
	}
	return f.New(cfg, now)
}

// BackendFromSnapshot rebuilds a named backend ("" selects DefaultBackend)
// from captured ground truth.
func BackendFromSnapshot(name string, s SnapshotData) (AvailabilityBackend, error) {
	f, err := backendFactory(name)
	if err != nil {
		return nil, err
	}
	return f.FromSnapshot(s)
}

var (
	_ AvailabilityBackend = (*Calendar)(nil)
	_ AvailabilityBackend = (*Flat)(nil)
)
