package experiments

import (
	"errors"
	"fmt"
	"math/rand"

	"coalloc/internal/batch"
	"coalloc/internal/core"
	"coalloc/internal/grid"
	"coalloc/internal/lambda"
	"coalloc/internal/metrics"
	"coalloc/internal/period"
	"coalloc/internal/sim"
	"coalloc/internal/workload"
)

// AblationEarlyRelease measures the early-release extension: jobs whose
// actual run time is below their estimate return the reserved tail to the
// pool, and later jobs find it. The paper replays estimates as run times
// (fraction 1.0); production estimates are notoriously loose.
func (r *Runner) AblationEarlyRelease() *Report {
	rep := &Report{
		ID:    "earlyrelease",
		Title: "Ablation: early release of over-estimated jobs (KTH)",
		Columns: []string{"min run/estimate", "online W_r (h)", "online max (h)", "acceptance",
			"utilization", "easy W_r (h)"},
	}
	m := workload.KTH()
	base := r.workloadJobs(m)
	for _, frac := range []float64{0, 0.75, 0.5, 0.25} {
		// Same job stream for every row; only the actual run times differ.
		jobs := workload.WithRunTimes(base, frac, r.cfg.Seed+31)
		res, err := sim.RunOnlineWith(sim.DefaultCoreConfig(m.Servers), jobs, sim.OnlineOptions{
			EarlyRelease: frac > 0,
		})
		if err != nil {
			panic(err)
		}
		// EASY frees processors at actual completions too (its planning
		// still uses estimates) — the natural batch comparator.
		easy := sim.RunBatch(m.Servers, batch.EASY, jobs)
		var maxW period.Duration
		for _, jr := range res.Results {
			if jr.Accepted && jr.Wait > maxW {
				maxW = jr.Wait
			}
		}
		label := "1.00 (exact, paper)"
		if frac > 0 {
			label = fmt.Sprintf("%.2f", frac)
		}
		rep.Rows = append(rep.Rows, []string{
			label,
			fmt.Sprintf("%.2f", res.MeanWait()/hourSecs),
			fmt.Sprintf("%.1f", maxW.Hours()),
			fmt.Sprintf("%.3f", res.AcceptanceRate()),
			fmt.Sprintf("%.2f", res.Utilization),
			fmt.Sprintf("%.2f", easy.MeanWait()/hourSecs),
		})
	}
	rep.Notes = append(rep.Notes,
		"looser estimates + early release reclaim reserved tails: online waits drop; committed utilization drops too because reservations shrink to actual run times",
		"EASY (which frees processors at actual completions) benefits similarly, so the online scheduler's early-release extension keeps it competitive under inexact estimates")
	return rep
}

// AblationMultisite compares the broker's site-selection strategies on a
// 4-site federation with the same total capacity as the KTH system.
func (r *Runner) AblationMultisite() *Report {
	rep := &Report{
		ID:      "multisite",
		Title:   "Ablation: multi-site strategies (4 x 32 servers, KTH jobs)",
		Columns: []string{"strategy", "granted", "rejected", "mean attempts", "mean sites/job", "aborted holds"},
	}
	m := workload.KTH()
	jobs := r.workloadJobs(m)
	if len(jobs) > 1500 {
		jobs = jobs[:1500] // RPC-shaped path is heavier; bound the replay
	}
	for _, strat := range []grid.Strategy{grid.SingleSite{}, grid.Greedy{}, grid.LoadBalance{}} {
		sites := make([]grid.Conn, 4)
		for i := range sites {
			site, err := grid.NewSite(fmt.Sprintf("s%d", i), core.Config{
				Servers:  m.Servers / 4,
				SlotSize: 15 * period.Minute,
				Slots:    672,
				Backend:  "dtree",
			}, 0)
			if err != nil {
				panic(err)
			}
			sites[i] = grid.LocalConn{Site: site}
		}
		broker, err := grid.NewBroker(grid.BrokerConfig{
			Name:     "abl-" + strat.Name(),
			Strategy: strat,
			Lease:    period.Hour,
		}, sites...)
		if err != nil {
			panic(err)
		}
		var attempts, sitesPerJob metrics.Summary
		for _, j := range jobs {
			alloc, err := broker.CoAllocate(j.Submit, grid.Request{
				ID:       j.ID,
				Start:    j.Start,
				Duration: j.Duration,
				Servers:  j.Servers,
			})
			if err != nil {
				continue
			}
			attempts.Add(float64(alloc.Attempts))
			sitesPerJob.Add(float64(len(alloc.Shares)))
		}
		st := broker.Stats()
		rep.Rows = append(rep.Rows, []string{
			strat.Name(),
			fmt.Sprintf("%d", st.Granted),
			fmt.Sprintf("%d", st.Rejected),
			fmt.Sprintf("%.2f", attempts.Mean()),
			fmt.Sprintf("%.2f", sitesPerJob.Mean()),
			fmt.Sprintf("%d", st.Aborts),
		})
	}
	rep.Notes = append(rep.Notes,
		"single-site placement must reject jobs wider than one site (32); greedy/balance split them atomically via the 2PC protocol",
		"every grant is atomic: a failed window aborts all prepared holds and retries delta_t later")
	return rep
}

// AblationLambda compares wavelength-continuity scheduling against
// wavelength conversion (§3.2), and the classic wavelength-assignment
// heuristics, on the 6-node test topology.
func (r *Runner) AblationLambda() *Report {
	rep := &Report{
		ID:      "lambda",
		Title:   "Ablation: lightpath blocking — continuity/conversion x assignment policy",
		Columns: []string{"mode", "assignment", "offered", "blocked", "blocking prob", "mean attempts"},
	}
	type combo struct {
		conv   bool
		assign string
	}
	combos := []combo{
		{false, "firstfit"}, {false, "mostused"}, {false, "random"},
		{true, "firstfit"}, {true, "mostused"}, {true, "random"},
	}
	for _, c := range combos {
		conv := c.conv
		net, err := lambda.NewNetwork(lambda.Config{
			Wavelengths: 4,
			SlotSize:    15 * period.Minute,
			Slots:       96,
			MaxAttempts: 8,
			Conversion:  conv,
			Assignment:  c.assign,
			Seed:        r.cfg.Seed,
		})
		if err != nil {
			panic(err)
		}
		for _, l := range [][2]string{{"a", "b"}, {"b", "c"}, {"a", "d"}, {"b", "e"}, {"c", "f"}, {"d", "e"}, {"e", "f"}} {
			if err := net.AddLink(l[0], l[1]); err != nil {
				panic(err)
			}
		}
		nodes := net.Nodes()
		rng := rand.New(rand.NewSource(r.cfg.Seed))
		offered, blocked := 0, 0
		var attempts metrics.Summary
		now := period.Time(0)
		for i := 0; i < 600; i++ {
			now += period.Time(rng.Int63n(int64(6 * period.Minute)))
			src := nodes[rng.Intn(len(nodes))]
			dst := nodes[rng.Intn(len(nodes))]
			if src == dst {
				continue
			}
			offered++
			conn, err := net.Reserve(now, src, dst, now, period.Duration(1+rng.Int63n(int64(2*period.Hour))), 3)
			if err != nil {
				if errors.Is(err, lambda.ErrNoLightpath) {
					blocked++
					continue
				}
				panic(err)
			}
			attempts.Add(float64(conn.Attempts))
		}
		mode := "continuity"
		if conv {
			mode = "conversion"
		}
		rep.Rows = append(rep.Rows, []string{
			mode,
			c.assign,
			fmt.Sprintf("%d", offered),
			fmt.Sprintf("%d", blocked),
			fmt.Sprintf("%.3f", float64(blocked)/float64(offered)),
			fmt.Sprintf("%.2f", attempts.Mean()),
		})
	}
	rep.Notes = append(rep.Notes,
		"per attempt, conversion is strictly more permissive (any continuity placement is also a conversion placement)",
		"end-to-end blocking is workload-dependent: greedy per-link wavelength choices change future state, so the two modes land within noise of each other at this load — the interesting knob is the per-link selection policy, which §4.2's range search leaves to the application")
	return rep
}
