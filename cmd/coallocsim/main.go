// Command coallocsim replays a workload — one of the paper's calibrated
// synthetic traces or a real SWF log — through a chosen scheduler and prints
// the evaluation metrics of §5.
//
// Usage examples:
//
//	coallocsim -workload KTH -jobs 5000                 # online co-allocation
//	coallocsim -workload KTH -jobs 5000 -scheduler fcfs # batch baseline
//	coallocsim -workload CTC -rho 0.4                   # 40 % advance reservations
//	coallocsim -swf trace.swf -servers 128              # replay a real SWF log
package main

import (
	"flag"
	"fmt"
	"os"

	"coalloc/internal/batch"
	"coalloc/internal/core"
	"coalloc/internal/job"
	"coalloc/internal/metrics"
	"coalloc/internal/period"
	"coalloc/internal/sim"
	"coalloc/internal/workload"
)

func main() {
	var (
		workloadName = flag.String("workload", "KTH", "workload preset: CTC, KTH, or HPC2N")
		swfPath      = flag.String("swf", "", "replay a Standard Workload Format file instead of a preset")
		servers      = flag.Int("servers", 0, "server count (required with -swf; presets carry their own)")
		jobs         = flag.Int("jobs", 5000, "number of jobs to generate (ignored with -swf)")
		seed         = flag.Int64("seed", 1, "workload generation seed")
		scheduler    = flag.String("scheduler", "online", "scheduler: online, fcfs, easy, or conservative")
		policy       = flag.String("policy", "paper", "online selection policy: paper, bestfit, worstfit, random")
		rho          = flag.Float64("rho", 0, "fraction of jobs converted to advance reservations (0..1)")
		tauMin       = flag.Int("tau", 15, "slot size tau in minutes (online)")
		horizonHours = flag.Int("horizon", 168, "scheduling horizon H in hours (online)")
		deltaMin     = flag.Int("delta", 0, "retry increment delta_t in minutes (0 = tau)")
	)
	flag.Parse()

	js, n, err := loadJobs(*workloadName, *swfPath, *servers, *jobs, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coallocsim:", err)
		os.Exit(1)
	}
	if *rho > 0 {
		js = workload.WithAdvanceReservations(js, *rho, 3*period.Hour, *seed+7919)
	}

	switch *scheduler {
	case "online":
		tau := period.Duration(*tauMin) * period.Minute
		cfg := core.Config{
			Servers:  n,
			SlotSize: tau,
			Slots:    int(period.Duration(*horizonHours) * period.Hour / tau),
			DeltaT:   period.Duration(*deltaMin) * period.Minute,
			Policy:   core.PolicyByName(*policy, nil),
			Backend:  "dtree", // the paper's structure: its op counts are what this prints
		}
		if cfg.Policy == nil {
			fmt.Fprintf(os.Stderr, "coallocsim: unknown policy %q\n", *policy)
			os.Exit(1)
		}
		res, err := sim.RunOnline(cfg, js)
		if err != nil {
			fmt.Fprintln(os.Stderr, "coallocsim:", err)
			os.Exit(1)
		}
		printOnline(res, n)
	case "fcfs", "easy", "conservative":
		disc, err := batch.ParseDiscipline(*scheduler)
		if err != nil {
			fmt.Fprintln(os.Stderr, "coallocsim:", err)
			os.Exit(1)
		}
		res := sim.RunBatch(n, disc, js)
		printBatch(res, disc)
	default:
		fmt.Fprintf(os.Stderr, "coallocsim: unknown scheduler %q\n", *scheduler)
		os.Exit(1)
	}
}

func loadJobs(preset, swfPath string, servers, jobs int, seed int64) ([]job.Request, int, error) {
	if swfPath != "" {
		if servers <= 0 {
			return nil, 0, fmt.Errorf("-swf requires -servers")
		}
		f, err := os.Open(swfPath)
		if err != nil {
			return nil, 0, err
		}
		defer f.Close()
		js, err := workload.ParseSWF(f)
		return js, servers, err
	}
	m, err := workload.ByName(preset)
	if err != nil {
		return nil, 0, err
	}
	return m.Generate(jobs, seed), m.Servers, nil
}

func printOnline(res *sim.OnlineResult, n int) {
	var wait, penalty, attempts metrics.Summary
	for _, jr := range res.Results {
		if !jr.Accepted {
			continue
		}
		wait.Add(jr.Wait.Hours())
		penalty.Add(jr.TemporalPenalty())
		attempts.Add(float64(jr.Attempts))
	}
	fmt.Printf("scheduler        online co-allocation (N=%d)\n", n)
	fmt.Printf("jobs             %d (accepted %d, rejected %d, acceptance %.3f)\n",
		len(res.Results), res.Accepted, res.Rejected, res.AcceptanceRate())
	fmt.Printf("waiting time     mean %.2f h, max %.1f h\n", wait.Mean(), wait.Max())
	fmt.Printf("temporal penalty mean %.2f, max %.1f\n", penalty.Mean(), penalty.Max())
	fmt.Printf("attempts         mean %.2f, max %.0f\n", attempts.Mean(), attempts.Max())
	fmt.Printf("operations       %d total, %.0f per request\n", res.TotalOps, res.MeanOpsPerJob())
	fmt.Printf("utilization      %.3f over %.0f h span\n", res.Utilization, res.Span.Hours())
}

func printBatch(res *sim.BatchResult, disc batch.Discipline) {
	var wait, penalty metrics.Summary
	rejected := 0
	for _, o := range res.Outcomes {
		if o.Rejected {
			rejected++
			continue
		}
		wait.Add(o.Wait.Hours())
		penalty.Add(o.TemporalPenalty())
	}
	fmt.Printf("scheduler        batch (%v)\n", disc)
	fmt.Printf("jobs             %d (rejected %d)\n", len(res.Outcomes), rejected)
	fmt.Printf("waiting time     mean %.2f h, max %.1f h\n", wait.Mean(), wait.Max())
	fmt.Printf("temporal penalty mean %.2f, max %.1f\n", penalty.Mean(), penalty.Max())
	fmt.Printf("operations       %d total\n", res.TotalOps)
}
