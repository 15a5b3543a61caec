// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) plus the ablations called out in DESIGN.md. Each
// experiment returns a Report — the rows/series the paper plots — which
// cmd/benchtables prints and bench_test.go drives under testing.B.
//
// The original evaluation replays full Parallel Workload Archive traces
// (Table 1); this harness replays the calibrated synthetic equivalents at a
// configurable job count (Config.Jobs, default 4000 per run) so the whole
// suite finishes in minutes. Shapes — who wins, by what factor, where the
// crossovers fall — are preserved; EXPERIMENTS.md records paper-vs-measured
// for every artifact.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"coalloc/internal/batch"
	"coalloc/internal/core"
	"coalloc/internal/job"
	"coalloc/internal/period"
	"coalloc/internal/sim"
	"coalloc/internal/workload"
)

// Config scales the experiment suite.
type Config struct {
	// Jobs is the number of jobs per workload replay. <= 0 means the
	// default of 4000.
	Jobs int
	// Seed drives workload generation and AR selection.
	Seed int64
	// BatchDiscipline is the baseline the paper's "batch" curves use.
	// Defaults to FCFS — the queueing behaviour behind the recorded waits
	// in the traces the paper compares against (§1 characterizes batch
	// schedulers as FCFS; EASY and conservative are reported by the
	// discipline ablation).
	BatchDiscipline batch.Discipline
}

func (c Config) jobs() int {
	if c.Jobs <= 0 {
		return 4000
	}
	return c.Jobs
}

// Report is a rendered experiment: a titled table of rows (the same
// rows/series the paper's artifact shows) plus free-form notes recording
// headline observations.
type Report struct {
	ID      string // e.g. "table1", "fig3"
	Title   string
	Notes   []string
	Columns []string
	Rows    [][]string
}

// RenderCSV writes the report as RFC-4180-ish CSV (one header row, one row
// per data row), for plotting tools.
func (r *Report) RenderCSV(w io.Writer) {
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, ",")
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			fmt.Fprint(w, c)
		}
		fmt.Fprintln(w)
	}
	writeRow(append([]string{"experiment"}, r.Columns...))
	for _, row := range r.Rows {
		writeRow(append([]string{r.ID}, row...))
	}
}

// Render writes the report as an aligned text table.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(r.Columns)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Runner executes experiments, memoizing workload generation and scheduler
// replays so that figures sharing a run (Fig 3/4/5, Table 2) pay for it
// once.
type Runner struct {
	cfg Config

	mu      sync.Mutex
	jobsMem map[string][]job.Request
	online  map[string]*sim.OnlineResult
	batches map[string]*sim.BatchResult
}

// NewRunner returns a Runner for the given configuration.
func NewRunner(cfg Config) *Runner {
	return &Runner{
		cfg:     cfg,
		jobsMem: make(map[string][]job.Request),
		online:  make(map[string]*sim.OnlineResult),
		batches: make(map[string]*sim.BatchResult),
	}
}

// workloadJobs returns the memoized base job stream for a model.
func (r *Runner) workloadJobs(m workload.Model) []job.Request {
	r.mu.Lock()
	defer r.mu.Unlock()
	if j, ok := r.jobsMem[m.Name]; ok {
		return j
	}
	j := m.Generate(r.cfg.jobs(), r.cfg.Seed)
	r.jobsMem[m.Name] = j
	return j
}

// arJobs returns the job stream with a fraction rho converted to advance
// reservations (§5.2: lead uniform in [0, 3 h]).
func (r *Runner) arJobs(m workload.Model, rho float64) []job.Request {
	if rho == 0 {
		return r.workloadJobs(m)
	}
	key := fmt.Sprintf("%s/rho=%.2f", m.Name, rho)
	r.mu.Lock()
	if j, ok := r.jobsMem[key]; ok {
		r.mu.Unlock()
		return j
	}
	r.mu.Unlock()
	base := r.workloadJobs(m)
	j := workload.WithAdvanceReservations(base, rho, 3*period.Hour, r.cfg.Seed+7919)
	r.mu.Lock()
	r.jobsMem[key] = j
	r.mu.Unlock()
	return j
}

// onlineRun returns the memoized online-scheduler replay for (model, rho).
func (r *Runner) onlineRun(m workload.Model, rho float64) *sim.OnlineResult {
	key := fmt.Sprintf("%s/rho=%.2f", m.Name, rho)
	r.mu.Lock()
	if res, ok := r.online[key]; ok {
		r.mu.Unlock()
		return res
	}
	r.mu.Unlock()
	jobs := r.arJobs(m, rho)
	res, err := sim.RunOnline(sim.DefaultCoreConfig(m.Servers), jobs)
	if err != nil {
		panic(fmt.Sprintf("experiments: online run %s: %v", key, err))
	}
	r.mu.Lock()
	r.online[key] = res
	r.mu.Unlock()
	return res
}

// batchRun returns the memoized batch replay for (model, discipline).
func (r *Runner) batchRun(m workload.Model, disc batch.Discipline) *sim.BatchResult {
	key := fmt.Sprintf("%s/%v", m.Name, disc)
	r.mu.Lock()
	if res, ok := r.batches[key]; ok {
		r.mu.Unlock()
		return res
	}
	r.mu.Unlock()
	res := sim.RunBatch(m.Servers, disc, r.workloadJobs(m))
	r.mu.Lock()
	r.batches[key] = res
	r.mu.Unlock()
	return res
}

// baseline returns the configured batch baseline discipline.
func (r *Runner) baseline() batch.Discipline { return r.cfg.BatchDiscipline }

// coreConfigFor mirrors sim.DefaultCoreConfig — the paper's 2-D tree
// included — but lets ablations vary knobs.
func coreConfigFor(n int, slot period.Duration, horizon period.Duration, deltaT period.Duration) core.Config {
	slots := int(horizon / slot)
	return core.Config{Servers: n, SlotSize: slot, Slots: slots, DeltaT: deltaT, Backend: "dtree"}
}

// All runs every paper artifact in order and returns the reports.
func (r *Runner) All() []*Report {
	return []*Report{
		r.Table1(),
		r.Figure3(),
		r.Figure4a(),
		r.Figure4b(),
		r.Figure5(),
		r.Table2(),
		r.Figure6(),
		r.Figure7a(),
		r.Figure7b(),
	}
}

// Ablations runs the design-choice studies from DESIGN.md.
func (r *Runner) Ablations() []*Report {
	return []*Report{
		r.AblationPolicies(),
		r.AblationSlotSize(),
		r.AblationDeltaT(),
		r.AblationDisciplines(),
		r.AblationSequential(),
		r.AblationEarlyRelease(),
		r.AblationMultisite(),
		r.AblationLambda(),
		r.AblationFairness(),
		r.AblationLoadSweep(),
		r.AblationOpSplit(),
	}
}

// ByID returns the experiment with the given id, or nil.
func (r *Runner) ByID(id string) *Report {
	switch id {
	case "table1":
		return r.Table1()
	case "fig3":
		return r.Figure3()
	case "fig4a":
		return r.Figure4a()
	case "fig4b":
		return r.Figure4b()
	case "fig5":
		return r.Figure5()
	case "table2":
		return r.Table2()
	case "fig6":
		return r.Figure6()
	case "fig7a":
		return r.Figure7a()
	case "fig7b":
		return r.Figure7b()
	case "policies":
		return r.AblationPolicies()
	case "slotsize":
		return r.AblationSlotSize()
	case "deltat":
		return r.AblationDeltaT()
	case "disciplines":
		return r.AblationDisciplines()
	case "sequential":
		return r.AblationSequential()
	case "earlyrelease":
		return r.AblationEarlyRelease()
	case "multisite":
		return r.AblationMultisite()
	case "lambda":
		return r.AblationLambda()
	case "fairness":
		return r.AblationFairness()
	case "loadsweep":
		return r.AblationLoadSweep()
	case "opsplit":
		return r.AblationOpSplit()
	}
	return nil
}

// IDs lists every experiment id.
func IDs() []string {
	return []string{
		"table1", "fig3", "fig4a", "fig4b", "fig5", "table2", "fig6", "fig7a", "fig7b",
		"policies", "slotsize", "deltat", "disciplines", "sequential",
		"earlyrelease", "multisite", "lambda", "fairness", "loadsweep", "opsplit",
	}
}
