// Package coalloc is a Go implementation of the online resource
// co-allocation system of Castillo, Rouskas, and Harfoush, "Resource
// Co-Allocation for Large-Scale Distributed Environments" (HPDC 2009).
//
// The scheduler allocates n_r servers *simultaneously* for a window of l_r
// time units starting at s_r, supports advance reservations (s_r in the
// future), and answers non-committing range searches ("which resources are
// free in this window?"). Availability is organized in Q slot-indexed
// 2-dimensional trees over server idle periods, so one two-phase range
// search finds all n_r servers in O(log² N); infeasible windows are retried
// at Δt increments up to R_max times.
//
// # Quick start
//
//	s, err := coalloc.New(coalloc.Config{
//		Servers:  64,
//		SlotSize: 15 * coalloc.Minute,
//		Slots:    672, // 7-day horizon
//	}, 0)
//	if err != nil { ... }
//	alloc, err := s.Submit(coalloc.Request{
//		ID:       1,
//		Submit:   0,
//		Start:    0,                 // on-demand; set Start > Submit for an advance reservation
//		Duration: 2 * coalloc.Hour,
//		Servers:  16,
//	})
//	// alloc.Servers lists the 16 granted servers; alloc.Start their common start time.
//
// # Layout
//
// The primary contribution lives in internal/core on top of
// internal/calendar and internal/dtree (the paper's data structure). The
// surrounding substrates — batch-scheduling baselines, workload generators
// calibrated to the paper's traces, the multi-site two-phase-commit broker,
// and the optical lambda-grid application — are re-exported here via type
// aliases, so the whole system is usable from this one import. Executables
// (cmd/coallocsim, cmd/benchtables, cmd/gridd, cmd/gridctl) and runnable
// examples (examples/) sit on top.
package coalloc

import (
	"coalloc/internal/batch"
	"coalloc/internal/calendar"
	"coalloc/internal/core"
	"coalloc/internal/grid"
	"coalloc/internal/job"
	"coalloc/internal/lambda"
	"coalloc/internal/obs"
	"coalloc/internal/period"
	"coalloc/internal/workflow"
	"coalloc/internal/workload"
)

// Time is a point in simulated time (seconds since the epoch of the
// simulation); Duration is a span of it.
type (
	Time     = period.Time
	Duration = period.Duration
)

// Common duration units.
const (
	Second = period.Second
	Minute = period.Minute
	Hour   = period.Hour
	Day    = period.Day
)

// Core request/response types.
type (
	// Request is the four-tuple (q_r, s_r, l_r, n_r) of the paper plus the
	// deadline and early-release extensions.
	Request = job.Request
	// Allocation reports where and when a granted job runs.
	Allocation = job.Allocation
	// Period is an idle period: the unit of availability returned by range
	// searches.
	Period = period.Period
)

// Scheduler is the online co-allocation scheduler (the paper's §4
// algorithm); Config parameterizes it.
type (
	Scheduler = core.Scheduler
	Config    = core.Config
)

// New creates a scheduler whose clock starts at now with all servers idle.
func New(cfg Config, now Time) (*Scheduler, error) { return core.New(cfg, now) }

// SafeScheduler is a Scheduler serialized behind a mutex for concurrent
// callers.
type SafeScheduler = core.SafeScheduler

// NewSafe creates a concurrency-safe scheduler.
func NewSafe(cfg Config, now Time) (*SafeScheduler, error) { return core.NewSafe(cfg, now) }

// Restore reconstructs a scheduler from a Scheduler.Snapshot stream,
// rebuilding the tree indexes from the persisted reservation state.
var Restore = core.Restore

// Selection policies for choosing among feasible idle periods.
type (
	SelectionPolicy = core.SelectionPolicy
	PaperOrder      = core.PaperOrder
	BestFit         = core.BestFit
	WorstFit        = core.WorstFit
	RandomFit       = core.RandomFit
)

// RejectionError describes why a request was rejected; ErrRejected matches
// any of them via errors.Is.
type RejectionError = core.RejectionError

// ErrRejected matches any rejection via errors.Is.
var ErrRejected = core.ErrRejected

// Batch baselines (FCFS, EASY and conservative backfilling).
type (
	BatchScheduler  = batch.Scheduler
	BatchDiscipline = batch.Discipline
	BatchOutcome    = batch.Outcome
)

// Batch disciplines.
const (
	FCFS         = batch.FCFS
	EASY         = batch.EASY
	Conservative = batch.Conservative
)

// NewBatch returns a batch scheduler over `capacity` fungible processors.
func NewBatch(capacity int, disc BatchDiscipline) *BatchScheduler { return batch.New(capacity, disc) }

// Workload generation and SWF trace handling.
type WorkloadModel = workload.Model

// Workload presets calibrated to the paper's Table 1 traces.
var (
	CTC      = workload.CTC
	KTH      = workload.KTH
	HPC2N    = workload.HPC2N
	ParseSWF = workload.ParseSWF
	WriteSWF = workload.WriteSWF
	// WithAdvanceReservations converts a fraction rho of a job stream into
	// advance reservations per §5.2.
	WithAdvanceReservations = workload.WithAdvanceReservations
)

// Multi-site atomic co-allocation (two-phase commit across sites).
type (
	Site            = grid.Site
	SiteConn        = grid.Conn
	LocalSite       = grid.LocalConn
	Broker          = grid.Broker
	BrokerConfig    = grid.BrokerConfig
	GridRequest     = grid.Request
	MultiAllocation = grid.MultiAllocation
	// SiteHealth reports one site's circuit-breaker state (Broker.Health).
	SiteHealth = grid.SiteHealth
	// RangeSite is the optional SiteConn extension for sites answering the
	// user-facing range search (Broker.RangeAll).
	RangeSite = grid.RangeConn
	// SiteRange is one site's answer in a cross-site range search.
	SiteRange = grid.SiteRange
)

// Broker failure signals (match via errors.Is).
var (
	// ErrCircuitOpen marks a probe skipped because the site's breaker is open.
	ErrCircuitOpen = grid.ErrCircuitOpen
	// ErrAllSitesUnreachable reports a probe round that reached no site;
	// CoAllocate fails fast with it instead of retrying later windows.
	ErrAllSitesUnreachable = grid.ErrAllSitesUnreachable
)

// NewSite creates a grid site running its own co-allocation scheduler.
func NewSite(name string, cfg Config, now Time) (*Site, error) { return grid.NewSite(name, cfg, now) }

// NewBroker federates sites behind the atomic co-allocation protocol.
func NewBroker(cfg BrokerConfig, sites ...SiteConn) (*Broker, error) {
	return grid.NewBroker(cfg, sites...)
}

// Workflow (DAG) co-scheduling: stages with completion-time dependencies
// admitted atomically via advance reservations (§1's workflow motivation).
type (
	Workflow      = workflow.Workflow
	WorkflowStage = workflow.Stage
	WorkflowPlan  = workflow.Plan
)

// ErrStageRejected matches workflow admission failures via errors.Is.
var ErrStageRejected = workflow.ErrStageRejected

// ScheduleWorkflow admits the whole DAG on the scheduler or nothing at all.
func ScheduleWorkflow(s *Scheduler, w Workflow, submit Time, baseID int64) (WorkflowPlan, error) {
	return workflow.Schedule(s, w, submit, baseID)
}

// CancelWorkflow releases every allocation of an admitted plan.
func CancelWorkflow(s *Scheduler, p WorkflowPlan) error { return workflow.Cancel(s, p) }

// Observability: zero-dependency counters, gauges, and windowed latency
// histograms in a named registry. Site.Instrument exports a site's counters
// (the scheduler's Stats among them) into a Registry; what happened to one
// request is in the flight recorder below.
type (
	Registry    = obs.Registry
	Counter     = obs.Counter
	Gauge       = obs.Gauge
	LatencyHist = obs.Histogram
)

// NewRegistry creates an empty metric registry; DefaultRegistry returns the
// shared process-wide one (what gridd -debug serves on /metrics).
func NewRegistry() *Registry     { return obs.NewRegistry() }
func DefaultRegistry() *Registry { return obs.Default() }

// Request tracing: each request's causal span tree, recorded by an
// always-on per-process flight recorder with biased retention (errored and
// slow traces outlive healthy traffic). Install a recorder with
// Site.SetRecorder / BrokerConfig, read it back with Recorder.Traces or
// gridd's /debug/traces endpoint, and render it with `gridctl trace`.
type (
	SpanContext    = obs.SpanContext
	ActiveSpan     = obs.ActiveSpan
	Span           = obs.Span
	Trace          = obs.Trace
	TraceQuery     = obs.TraceQuery
	TraceRecorder  = obs.Recorder
	RecorderConfig = obs.RecorderConfig
	RecorderStats  = obs.RecorderStats
)

// NewTraceRecorder builds a flight recorder; the zero config takes the
// defaults (256 traces, 25ms slow threshold).
func NewTraceRecorder(cfg RecorderConfig) *TraceRecorder { return obs.NewRecorder(cfg) }

// Per-layer statistics snapshots.
type (
	// SchedulerStats are the lifetime counters of one Scheduler.
	SchedulerStats = core.Stats
	// SiteStatus is the point-in-time summary served by the Stats RPC,
	// /statusz, and `gridctl stats`.
	SiteStatus = grid.SiteStatus
	// BrokerStats counts a broker's co-allocation outcomes.
	BrokerStats = grid.BrokerStats
	// CacheStats counts the broker availability cache's hits, misses,
	// coalesced probes, and invalidations (Broker.CacheStats; all zeros
	// unless BrokerConfig.ProbeCache is set).
	CacheStats = grid.CacheStats
	// OpsBreakdown attributes elementary tree operations to search, update,
	// and rotation work (the paper's Fig. 7(b) metric).
	OpsBreakdown = calendar.OpsBreakdown
)

// Optical lambda-grid scheduling (§3.2).
type (
	OpticalNetwork = lambda.Network
	OpticalConfig  = lambda.Config
	Lightpath      = lambda.Connection
)

// NewOpticalNetwork creates an empty optical topology with per-link
// wavelength calendars.
func NewOpticalNetwork(cfg OpticalConfig) (*OpticalNetwork, error) { return lambda.NewNetwork(cfg) }
