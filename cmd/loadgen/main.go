// Command loadgen runs the three closed-loop scenarios the benchmark harness
// (bench/run.sh) does not: each boots its own loopback TCP sites, drives
// them for -duration, and reports the run as JSON.
//
//	loadgen -mode failover            # replicated site losing its primary mid-run
//	loadgen -mode stale               # passive vs push-invalidated cache staleness
//	loadgen -mode federate            # N contending brokers, conflict retry on vs off
//
// -mode failover boots one replicated site — a semi-sync primary behind a
// faultnet proxy streaming its WAL to a standby — and runs -clients
// closed-loop co-allocation (write) clients twice: once undisturbed, and
// once with the primary's network hung at half time so the broker's breaker
// opens and promotes the standby automatically. The report shows the
// failover's cost (recovery gap in milliseconds, the error burst while the
// breaker counts down) and what it preserves: lostAcked audits every
// acknowledged grant against the promoted node and must be 0.
//
// -mode stale times the stale-cache window itself: a second broker mutates a
// window the first broker has cached, every -mutate-every, and the run
// reports how long the cached answer stays wrong — first with passive
// (reply-driven) invalidation, then with the epoch watch stream pushing the
// bump. It also compares the Δt ladder's probe round trips with the batched
// probe RPC off and on.
//
// -mode federate boots one shared three-site TCP federation and runs -brokers
// contending brokers against it, each a closed-loop co-allocate/release
// client with its own availability cache, drawing from a small shared window
// pool so prepares routinely lose the optimistic-concurrency race. Every
// broker count runs with the same-window conflict retry on and off; the
// report compares conflict rate, goodput, p99, and the conflict-abandonment
// rate the retry path exists to reduce without burning Δt ladder rungs.
//
// The workloads are closed-loop: every client issues its next operation as
// soon as the previous one returns, so throughput reflects service time, not
// an offered-load schedule.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"coalloc/internal/core"
	"coalloc/internal/grid"
	"coalloc/internal/period"
	"coalloc/internal/wire"
)

// sampler keeps a bounded latency sample per class; closed-loop clients can
// push hundreds of thousands of ops per point, so it records every 8th.
type sampler struct {
	mu    sync.Mutex
	n     int64
	taken []time.Duration
}

func (s *sampler) observe(d time.Duration) {
	if atomic.AddInt64(&s.n, 1)%8 != 0 {
		return
	}
	s.mu.Lock()
	s.taken = append(s.taken, d)
	s.mu.Unlock()
}

func (s *sampler) percentile(p float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.taken) == 0 {
		return 0
	}
	sort.Slice(s.taken, func(i, j int) bool { return s.taken[i] < s.taken[j] })
	i := int(p * float64(len(s.taken)-1))
	return float64(s.taken[i]) / float64(time.Microsecond)
}

// newSite builds an empty site whose clock starts at 0.
func newSite(name string, servers int, slotSize int64, slots int) (*grid.Site, error) {
	return grid.NewSite(name, core.Config{
		Servers:  servers,
		SlotSize: period.Duration(slotSize),
		Slots:    slots,
	}, 0)
}

// serveSite serves site over loopback TCP and returns its address and a
// stop func that closes the listener. A non-nil repl also answers the
// replication service, as a standby must.
func serveSite(site *grid.Site, repl wire.ReplicaHandler) (addr string, stop func(), err error) {
	srv, err := wire.NewServer(site)
	if err != nil {
		return "", nil, err
	}
	if repl != nil {
		if err := srv.EnableReplication(repl); err != nil {
			return "", nil, err
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	go srv.Serve(l)
	return l.Addr().String(), func() { l.Close() }, nil
}

// writeJSON writes v, indented, to the file out, or to stdout when out is
// empty.
func writeJSON(out string, v any) error {
	enc, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(out, enc, 0o644)
}

// parseCounts parses a comma-separated list of positive counts.
func parseCounts(list string) ([]int, error) {
	var ns []int
	for _, f := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad count %q", f)
		}
		ns = append(ns, n)
	}
	return ns, nil
}

func main() {
	servers := flag.Int("servers", 64, "servers per site")
	slotSize := flag.Int64("tau", 900, "slot size in seconds (the paper's tau)")
	slots := flag.Int("slots", 96, "calendar slots")
	dur := flag.Duration("duration", 2*time.Second, "measurement window per phase")
	mode := flag.String("mode", "failover", "workload: failover, stale, or federate")
	out := flag.String("out", "", "write JSON to this file instead of stdout")
	clients := flag.Int("clients", 8, "closed-loop broker clients for -mode failover")
	callTimeout := flag.Duration("call-timeout", 200*time.Millisecond, "per-RPC deadline")
	seed := flag.Int64("seed", 1, "fault-injection seed for -mode failover")
	mutateEvery := flag.Duration("mutate-every", 50*time.Millisecond, "interval between cache-invalidating mutations in -mode stale (also the staleness censoring cap)")
	brokersFlag := flag.String("brokers", "1,2,4,8", "comma-separated broker counts for -mode federate")
	flag.Parse()

	var run func() (any, error)
	switch *mode {
	case "failover":
		run = func() (any, error) {
			return runFailover(*servers, *slotSize, *slots, *clients, *dur, *callTimeout, *seed)
		}
	case "stale":
		run = func() (any, error) {
			return runStale(*servers, *slotSize, *slots, *dur, *mutateEvery, *callTimeout)
		}
	case "federate":
		brokers, err := parseCounts(*brokersFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: -brokers:", err)
			os.Exit(2)
		}
		run = func() (any, error) {
			return runFederate(*servers, *slotSize, *slots, brokers, *dur, *callTimeout)
		}
	default:
		fmt.Fprintf(os.Stderr, "loadgen: unknown mode %q (modes: failover, stale, federate)\n", *mode)
		os.Exit(2)
	}
	res, err := run()
	if err == nil {
		err = writeJSON(*out, res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}
