package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json that compare needs: each
// end-to-end metric's direction and regression bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first quartile, median and third quartile of v by
// linear interpolation (the "exclusive" method, as Python's
// statistics.quantiles does); with fewer than two values all three are the
// value itself.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) < 2 {
		if len(s) == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(len(s)-1) {
			return s[len(s)-1]
		}
		i := int(pos)
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

// verdictFor judges one workload × metric: base and change are the runs on
// each side. worse: the change's median is worse than the base's by more
// than the bound. unresolved: the base's own run-to-run spread (distance
// between its quartiles over its median) is wider than the bound, so the
// comparison cannot tell. Otherwise ok.
func verdictFor(base, change []float64, better string, bound float64) (string, float64, float64) {
	q1, bm, q3 := quartiles(base)
	_, cm, _ := quartiles(change)
	if bm == 0 {
		return "unresolved", 0, 0
	}
	spread := (q3 - q1) / bm
	delta := (cm - bm) / bm // positive: the change's median is larger
	worse := delta
	if better == "higher" {
		worse = -delta
	}
	switch {
	case spread > bound:
		return "unresolved", delta, spread
	case worse > bound:
		return "worse", delta, spread
	}
	return "ok", delta, spread
}

func loadReport(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	return r, json.Unmarshal(b, &r)
}

// byWorkload gathers each workload × metric's values over every run in a
// result file (a file written with -sets N holds N runs of each workload).
func byWorkload(r report) map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, w := range r.Workloads {
		if out[w.Workload] == nil {
			out[w.Workload] = make(map[string][]float64)
		}
		for name, m := range w.Metrics {
			out[w.Workload][name] = append(out[w.Workload][name], m.Value)
		}
	}
	return out
}

// compareMain prints one row per workload × end-to-end metric: ok, worse or
// unresolved against the bounds in BENCHMARK.json. It returns the exit code:
// 1 if any row is worse.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare BASE.json CHANGE.json (run from the repository root)")
		return 2
	}
	var bf benchmarkFile
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &bf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare: BENCHMARK.json:", err)
		return 2
	}
	base, err := loadReport(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	change, err := loadReport(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	b, c := byWorkload(base), byWorkload(change)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median\tchange median\tdelta\tbase spread\tbound\tverdict")
	code := 0
	for _, w := range []string{wlSWFLocal, wlProbeTCP, wlCoalloc, wlMixed} {
		for _, m := range bf.EndToEnd {
			bv, cv := b[w][m.Name], c[w][m.Name]
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			v, delta, spread := verdictFor(bv, cv, m.Better, m.Bound)
			if v == "worse" {
				code = 1
			}
			_, bm, _ := quartiles(bv)
			_, cm, _ := quartiles(cv)
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\n", w, m.Name, bm, cm, 100*delta, 100*spread, 100*m.Bound, v)
		}
	}
	tw.Flush()
	return code
}
