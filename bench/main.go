// Command bench is this repository's benchmark: one process boots the whole
// federation (sites, wire servers, standby, broker), generates the load, and
// checks the outcome. See README.md for the workloads and metrics, and
// ../BENCHMARK.json for the contract a change is held to.
//
//	go run . --workload probe_tcp --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics. Everything else goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"coalloc/internal/grid"
	"coalloc/internal/period"
)

// options are the command line. swfRate and openRate are the two constants
// sized once at the seed commit and frozen in BENCHMARK.json's command.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool
	out      string
	sets     int     // run the selection this many times into one result file
	swfRate  int     // swf_local co-allocates swfRate × seconds jobs
	openRate float64 // mixed_open_cached co-allocations per second (R)
}

// Durations derived from --seconds.
func (o options) window() time.Duration { return time.Duration(o.seconds) * time.Second }

// warmup is load before the measured window: connections dialled, heap
// sized, caches and calendars in the state the load keeps them in.
func (o options) warmup() time.Duration {
	if o.smoke {
		return 200 * time.Millisecond
	}
	return o.window() / 5
}

// setupReps is how many times the fixture is built; setup_s is the median.
func (o options) setupReps() int {
	if o.smoke {
		return 1
	}
	return 3
}

func clientsFor(n int) int {
	if c := runtime.GOMAXPROCS(0); c < n {
		return c
	}
	return n
}

func specs(o options) []workloadSpec {
	// A day of virtual time. The default 5-minute lease assumes wall-clock
	// seconds; this stream packs ~12 virtual minutes into each millisecond,
	// so with two clients the other client's next job would expire a hold
	// between its prepare and its commit.
	lease := 24 * period.Hour
	// WatchPoll bounds how long a site's parked watch handler outlives its
	// client at teardown; with hundreds of epoch bumps a second no poll ever
	// idles that long, so it changes nothing that is measured.
	cached := grid.BrokerConfig{Lease: lease, ProbeCache: true, CacheWatch: true, BatchProbe: true, WatchPoll: time.Second}
	return []workloadSpec{
		{
			name:    wlSWFLocal,
			why:     "closed loop, 1 client, LocalConn, no WAL, no cache: the paper's online algorithm alone; calendar/core/site/broker do all the work",
			clients: 1, streamRate: o.swfRate, run: runJobStream, fixedCount: true,
		},
		{
			name:    wlProbeTCP,
			why:     "closed loop, 2 clients, loopback TCP, static clock: lock-free view reads, so the wire (3 RPCs per op) does the work",
			clients: clientsFor(2), run: runProbes, probes: true,
			fixture: fixtureConfig{tcp: true},
		},
		{
			name:    wlCoalloc,
			why:     "closed loop, 2 clients, TCP, WAL SyncAlways, s0 semi-sync to a standby: the write path; fsync, group commit and replica ack dominate",
			clients: clientsFor(2), streamRate: 2000, run: runJobStream,
			fixture: fixtureConfig{tcp: true, wal: true, standby: true, broker: grid.BrokerConfig{Lease: lease}},
		},
		{
			name:    wlMixed,
			why:     "open loop at a fixed rate, TCP, WAL, cache+watch+batch: independent users; the only workload with cache hits beside invalidations",
			clients: clientsFor(2), streamRate: min(int(o.openRate*1.2)+1, 4000), run: runOpen, openLoop: true,
			fixture: fixtureConfig{tcp: true, wal: true, broker: cached},
		},
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the contract's result line.
type verdict struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "swf_local, probe_tcp, coalloc_tcp_wal, mixed_open_cached, or all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 15, "measured window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.BoolVar(&o.smoke, "smoke", false, "1 s windows and one set-up: exercises every path in seconds")
	flag.IntVar(&o.sets, "sets", 1, "run the selected workloads this many times; the result file holds every run")
	flag.StringVar(&o.out, "out", "bench/out/result.json", "detailed result file")
	flag.IntVar(&o.swfRate, "swf-rate", 8000, "swf_local job budget per second of window (frozen in BENCHMARK.json)")
	flag.Float64Var(&o.openRate, "open-rate", 300, "mixed_open_cached co-allocations per second (frozen in BENCHMARK.json)")
	flag.Parse()
	o.trace = *trace != 0
	if o.smoke {
		o.seconds = 1
	}
	if flag.NArg() > 0 && flag.Arg(0) == "compare" {
		os.Exit(compareMain(flag.Args()[1:]))
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if err := os.MkdirAll(filepath.Dir(o.out), 0o755); err != nil {
		return err
	}
	var chosen []workloadSpec
	for _, s := range specs(o) {
		if o.workload == "all" || o.workload == s.name {
			chosen = append(chosen, s)
		}
	}
	if len(chosen) == 0 {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	rep := report{Header: newHeader(o)}
	total := verdict{Correct: true, Metrics: map[string]metric{}}
	runOne := measure
	if o.trace {
		runOne = traced
	}
	for set := 0; set < o.sets; set++ {
		for _, spec := range chosen {
			wr, err := runOne(spec, o)
			if err != nil {
				return fmt.Errorf("%s: %w", spec.name, err)
			}
			rep.Workloads = append(rep.Workloads, wr)
			total.Attempted += wr.Attempted
			total.Failed += wr.Failed
			total.Correct = total.Correct && wr.Correct
			// With one workload (the contract's call) the metrics are that
			// workload's; with all of them the last line carries the last one's
			// and the file carries everything.
			total.Metrics = wr.Metrics
			for _, c := range wr.Checks {
				fmt.Fprintf(os.Stderr, "%s: check failed: %s\n", spec.name, c)
			}
		}
	}
	if err := rep.write(o.out); err != nil {
		return err
	}
	line, err := json.Marshal(total)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
