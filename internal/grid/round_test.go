package grid

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// scriptConn is a Conn that only has a name. Every other method would
// dereference the nil embedded interface, so a planner or a round that
// called a site would crash the test.
type scriptConn struct {
	Conn
	name string
}

func (c scriptConn) Name() string { return c.name }

// down marks a site as unreachable in probed(); open as skipped behind an
// open circuit breaker.
const (
	down = -1
	open = -2
)

// probed builds a probe round over sites "a", "b", "c", … with the given
// availabilities; site i answers at epoch 100+i.
func probed(available ...int) []Avail {
	out := make([]Avail, len(available))
	for i, n := range available {
		out[i] = Avail{Conn: scriptConn{name: string(rune('a' + i))}}
		switch n {
		case down:
			out[i].Err = errors.New("injected probe failure")
		case open:
			out[i].Err = fmt.Errorf("%s: %w", out[i].Conn.Name(), ErrCircuitOpen)
		default:
			out[i].Available, out[i].Capacity, out[i].Epoch = n, 8, uint64(100+i)
		}
	}
	return out
}

func leased(n int) answer { return answer{servers: make([]int, n)} }

// reprobed is site's fresh answer to a conflict re-probe.
func reprobed(site, available int) answer {
	a := probed(available)[0]
	a.Conn = scriptConn{name: string(rune('a' + site))}
	return answer{avail: []Avail{a}, err: a.Err}
}

var (
	errRefused  = errors.New("injected refusal")
	errTimedOut = fmt.Errorf("injected timeout: %w", os.ErrDeadlineExceeded)
	errConflict = &ConflictError{Site: "b", Epoch: 201, Err: errors.New("full")}
)

// TestBrokerRoundTable pins the round machine one row of DESIGN.md §14's
// table at a time. A row is a transition — the step last asked for × its
// answer — reached by feeding advance the scripted answers before it; the
// row then checks the step advance returns, the counters that moved over
// the whole script, and what the round holds afterwards. No site, socket or
// sleep is involved: the connections have names and nothing else.
func TestBrokerRoundTable(t *testing.T) {
	prepare := func(site, servers int) step {
		return step{kind: phPrepare, site: site, servers: servers, epoch: uint64(100 + site)}
	}
	commit := func(site, delivery int, last bool, wait time.Duration) step {
		return step{kind: phCommit, site: site, delivery: delivery, last: last, wait: wait}
	}
	abort := func(site int, cause string) step { return step{kind: phAbort, site: site, cause: cause} }
	done := step{kind: phDone}
	// Greedy over (4, 4, 4) for 6 servers plans a:4 then b:2; the script
	// opens with that probe round and a's lease. A fresh round per row: a
	// re-probe overwrites its answers.
	twoSites := func(more ...answer) []answer {
		return append([]answer{{avail: probed(4, 4, 4)}, leased(4)}, more...)
	}

	rows := []struct {
		name    string
		budget  int // conflict re-splits allowed
		retries int // commit deliveries per site; 0 means 3
		script  []answer
		want    step // returned for the script's last answer
		moved   map[counter]uint64
		after   func(t *testing.T, r *round)
	}{
		{name: "probe/all-unreachable",
			script: []answer{{avail: probed(down, open, down)}},
			want:   done, moved: map[counter]uint64{cAllUnreachable: 1},
			after: func(t *testing.T, r *round) {
				if r.outcome != allUnreachable || !errors.Is(r.err, ErrAllSitesUnreachable) || r.hold != "" {
					t.Errorf("outcome %d, err %v, hold %q; want the outage outcome and no hold ID issued", r.outcome, r.err, r.hold)
				}
			}},
		{name: "probe/breaker-open",
			script: []answer{{avail: probed(open, 4, 4)}},
			want:   prepare(1, 4),
			after: func(t *testing.T, r *round) {
				if r.hold != "t-1" || !slices.Equal(r.queue, []slot{{1, 4}, {2, 2}}) {
					t.Errorf("hold %q, queue %v; want t-1 and the job planned around the skipped site", r.hold, r.queue)
				}
			}},
		{name: "probe/no-fit",
			script: []answer{{avail: probed(2, down, 3)}},
			want:   done,
			after: func(t *testing.T, r *round) {
				if r.outcome != windowFailed || r.err == nil || r.hold != "" {
					t.Errorf("outcome %d, err %v, hold %q; want a failed window and no hold ID issued", r.outcome, r.err, r.hold)
				}
			}},
		{name: "prepare/ok",
			script: twoSites(),
			want:   prepare(1, 2),
			after: func(t *testing.T, r *round) {
				if !slices.Equal(r.prepared, []int{0}) || r.got != 4 || r.granted[0].Site != "a" {
					t.Errorf("prepared %v, got %d, granted %+v", r.prepared, r.got, r.granted)
				}
			}},
		{name: "prepare/refused",
			script: twoSites(answer{err: errRefused}),
			want:   abort(0, "prepare_failed"),
			after: func(t *testing.T, r *round) {
				if r.outcome != windowFailed || !errors.Is(r.err, errRefused) || !strings.HasPrefix(r.err.Error(), "grid: prepare failed at b: ") {
					t.Errorf("outcome %d, err %v", r.outcome, r.err)
				}
			}},
		{name: "prepare/timed-out",
			script: twoSites(answer{err: errTimedOut}),
			want:   abort(0, "prepare_failed"),
			after: func(t *testing.T, r *round) {
				if !slices.Equal(r.targets, []int{0, 1}) {
					t.Errorf("abort targets %v, want the prepared site and the ambiguous one", r.targets)
				}
			}},
		{name: "prepare/conflict", budget: 2,
			script: twoSites(answer{err: errConflict}),
			want:   step{kind: phReprobe, site: 1},
			moved:  map[counter]uint64{cConflicts: 1, cConflictWindows: 1}},
		{name: "prepare/conflict-no-budget", budget: 0,
			script: twoSites(answer{err: errConflict}),
			want:   abort(0, "prepare_failed"),
			moved:  map[counter]uint64{cConflicts: 1, cConflictWindows: 1},
			after: func(t *testing.T, r *round) {
				if !errors.Is(r.err, ErrConflict) {
					t.Errorf("err %v, want the conflict", r.err)
				}
			}},
		{name: "reprobe/ok", budget: 2,
			script: twoSites(answer{err: errConflict}, reprobed(1, 1)),
			want:   step{kind: phPrepare, site: 2, servers: 2, epoch: 102},
			moved:  map[counter]uint64{cConflicts: 1, cConflictWindows: 1, cConflictRetries: 1},
			after: func(t *testing.T, r *round) {
				if r.budget != 1 || r.avail[1].Available != 1 || !slices.Equal(r.prepared, []int{0}) {
					t.Errorf("budget %d, b's answer %+v, prepared %v; want one retry spent, the fresh answer kept and the prefix untouched", r.budget, r.avail[1], r.prepared)
				}
			}},
		{name: "reprobe/no-fit", budget: 2,
			script: append([]answer{{avail: probed(4, 4, down)}, leased(4)}, answer{err: errConflict}, reprobed(1, 1)),
			want:   abort(0, "prepare_failed"),
			moved:  map[counter]uint64{cConflicts: 1, cConflictWindows: 1},
			after: func(t *testing.T, r *round) {
				if !errors.Is(r.err, ErrConflict) || r.budget != 2 {
					t.Errorf("err %v, budget %d; want the conflict as the window's failure and no retry spent", r.err, r.budget)
				}
			}},
		{name: "reprobe/failed", budget: 2,
			script: twoSites(answer{err: errConflict}, reprobed(1, down)),
			want:   abort(0, "prepare_failed"),
			moved:  map[counter]uint64{cConflicts: 1, cConflictWindows: 1}},
		{name: "abort/ok",
			script: twoSites(answer{err: errRefused}, answer{}),
			want:   done, moved: map[counter]uint64{cAborts: 1}},
		{name: "abort/failed",
			script: twoSites(answer{err: errTimedOut}, answer{}, answer{err: errRefused}),
			want:   done, moved: map[counter]uint64{cAborts: 1},
			after: func(t *testing.T, r *round) {
				if !slices.Equal(r.aborted, []string{"a"}) {
					t.Errorf("aborted %v, want only the abort that landed", r.aborted)
				}
			}},
		{name: "commit/ok",
			script: twoSites(leased(2), answer{}, answer{}),
			want:   done, moved: map[counter]uint64{cGranted: 1},
			after: func(t *testing.T, r *round) {
				if r.outcome != windowGranted || r.err != nil || len(r.granted) != 2 {
					t.Errorf("outcome %d, err %v, granted %+v", r.outcome, r.err, r.granted)
				}
			}},
		{name: "commit/conflicted-window-saved", budget: 2,
			script: twoSites(answer{err: errConflict}, reprobed(1, 1), leased(2), answer{}, answer{}),
			want:   done,
			moved:  map[counter]uint64{cConflicts: 1, cConflictWindows: 1, cConflictRetries: 1, cConflictWindowSaved: 1, cGranted: 1}},
		{name: "commit/transient-then-ok",
			script: twoSites(leased(2), answer{err: errRefused}, answer{err: errTimedOut}, answer{}),
			want:   commit(1, 1, false, 0), moved: map[counter]uint64{},
			after: func(t *testing.T, r *round) {
				if !slices.Equal(r.committed, []int{0}) || r.missed != nil {
					t.Errorf("committed %v, missed %v", r.committed, r.missed)
				}
			}},
		{name: "commit/redelivery-backs-off",
			script: twoSites(leased(2), answer{err: errRefused}, answer{err: errRefused}),
			want:   commit(0, 3, true, 20*time.Millisecond)},
		{name: "commit/failed", retries: 1,
			script: twoSites(leased(2), answer{}, answer{err: errRefused}),
			want:   abort(0, "compensation"), moved: map[counter]uint64{cPartialCommits: 1},
			after: func(t *testing.T, r *round) {
				ce := r.missed
				if r.outcome != windowPartial || r.err != error(ce) || ce.HoldID != "t-1" || !slices.Equal(ce.Committed, []string{"a"}) ||
					!slices.Equal(ce.Failed, []string{"b"}) || ce.Err != errRefused || len(ce.Shares) != 2 {
					t.Errorf("outcome %d, commit error %+v", r.outcome, ce)
				}
			}},
		{name: "compensation/ok", retries: 1,
			script: twoSites(leased(2), answer{}, answer{err: errRefused}, answer{}),
			want:   done, moved: map[counter]uint64{cPartialCommits: 1, cAborts: 1},
			after: func(t *testing.T, r *round) {
				if !slices.Equal(r.missed.Aborted, []string{"a"}) {
					t.Errorf("aborted %v, want [a]", r.missed.Aborted)
				}
			}},
		{name: "compensation/failed", retries: 1,
			script: twoSites(leased(2), answer{}, answer{err: errRefused}, answer{err: errRefused}),
			want:   done, moved: map[counter]uint64{cPartialCommits: 1},
			after: func(t *testing.T, r *round) {
				if r.outcome != windowPartial || len(r.missed.Aborted) != 0 {
					t.Errorf("outcome %d, aborted %v; want the partial outcome with nothing released", r.outcome, r.missed.Aborted)
				}
			}},
	}

	var names []string
	for _, row := range rows {
		names = append(names, row.name)
		t.Run(row.name, func(t *testing.T) {
			r := &round{
				m: newBrokerMetrics(nil), strategy: Greedy{}, ids: &holdSeq{prefix: "t-"}, total: 6,
				budget: row.budget, retries: row.retries, backoff: 10 * time.Millisecond,
			}
			if r.retries == 0 {
				r.retries = 3
			}
			var got step
			for _, a := range row.script {
				got = r.advance(a)
			}
			if got != row.want || r.asked != got {
				t.Fatalf("step %+v (round remembers %+v), want %+v", got, r.asked, row.want)
			}
			for c := counter(0); c < numCounters; c++ {
				if n := r.m.c[c].Value(); n != row.moved[c] {
					t.Errorf("%s moved by %d, want %d", brokerCounters[c].name, n, row.moved[c])
				}
			}
			if row.after != nil {
				row.after(t, r)
			}
		})
	}

	// The table in DESIGN.md and the rows above name the same transitions.
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var documented []string
	for _, m := range regexp.MustCompile("(?m)^\\| `((?:probe|prepare|reprobe|commit|abort|compensation)/[a-z-]+)` \\|").FindAllStringSubmatch(string(doc), -1) {
		documented = append(documented, m[1])
	}
	slices.Sort(names)
	slices.Sort(documented)
	if !slices.Equal(names, documented) {
		t.Errorf("round table rows differ:\n  tested:     %v\n  DESIGN.md:  %v", names, documented)
	}
}

// TestBrokerRoundRandomScripts drives whole rounds from random answers and
// checks what every script must preserve: acquisition order is strictly
// increasing in site index across conflict re-splits (the no-deadlock
// invariant), every site asked to commit or abort is one that was prepared
// (or timed out), and the round ends.
func TestBrokerRoundRandomScripts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(6)
		available := make([]int, n)
		for i := range available {
			available[i] = rng.Intn(6) - 1 // down, or 0..4
		}
		strategies := []Strategy{Greedy{}, LoadBalance{}, SingleSite{}, Affinity{S: Greedy{}, Offset: rng.Intn(7)}}
		r := &round{
			m: newBrokerMetrics(nil), strategy: strategies[rng.Intn(len(strategies))], ids: &holdSeq{prefix: "t-"},
			total: 1 + rng.Intn(8), budget: rng.Intn(3), retries: 1 + rng.Intn(3),
		}
		st := r.advance(answer{avail: probed(available...)})
		lastPrepared, touched := -1, map[int]bool{}
		for steps := 0; st.kind != phDone; steps++ {
			if steps > 200 {
				t.Fatalf("trial %d: round did not end", trial)
			}
			var a answer
			switch st.kind {
			case phPrepare:
				if st.site <= lastPrepared {
					t.Fatalf("trial %d: prepare at site %d after site %d was acquired", trial, st.site, lastPrepared)
				}
				switch rng.Intn(6) {
				case 0:
					a.err = errRefused
				case 1:
					a.err, touched[st.site] = errTimedOut, true
				case 2:
					a.err = errConflict
				default:
					a, lastPrepared, touched[st.site] = leased(st.servers), st.site, true
				}
			case phReprobe:
				a = reprobed(st.site, rng.Intn(6)-1)
			case phCommit, phAbort:
				if !touched[st.site] {
					t.Fatalf("trial %d: %+v at a site that holds nothing", trial, st)
				}
				if rng.Intn(3) == 0 {
					a.err = errRefused
				}
			}
			st = r.advance(a)
		}
		if granted := r.outcome == windowGranted; granted != (r.err == nil) || granted && r.got != r.total {
			t.Fatalf("trial %d: outcome %d, err %v, %d of %d servers", trial, r.outcome, r.err, r.got, r.total)
		}
	}
}

// TestPlannerProperties checks, over random probe rounds that include
// unreachable and empty sites, what every strategy's plan must satisfy —
// shares sum to the request, none exceeds its site's availability, order is
// canonical, the same input gives the same plan — and the re-split's
// candidate rule: every share lands at or after the contended site, on a
// site that answered.
func TestPlannerProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(t *testing.T, what string, q []slot, avail []Avail, total, from int) {
		t.Helper()
		sum := 0
		for k, sl := range q {
			sum += sl.servers
			switch {
			case sl.site < from:
				t.Fatalf("%s: share at site %d, before site %d", what, sl.site, from)
			case k > 0 && sl.site <= q[k-1].site:
				t.Fatalf("%s: not in site order: %v", what, q)
			case avail[sl.site].Err != nil:
				t.Fatalf("%s: share on a site that did not answer: %v", what, q)
			case sl.servers <= 0 || sl.servers > avail[sl.site].Available:
				t.Fatalf("%s: %d servers on a site with %d free", what, sl.servers, avail[sl.site].Available)
			}
		}
		if sum != total {
			t.Fatalf("%s: shares sum to %d, want %d: %v", what, sum, total, q)
		}
	}
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(8)
		available := make([]int, n)
		free := 0
		for i := range available {
			available[i] = rng.Intn(7) - 1 // down, or 0..5
			free += max(available[i], 0)
		}
		total := 1 + rng.Intn(12)
		for _, s := range []Strategy{SingleSite{}, Greedy{}, LoadBalance{}, Affinity{S: Greedy{}, Offset: rng.Intn(9)}, Affinity{S: LoadBalance{}, Offset: rng.Intn(9)}} {
			avail := probed(available...)
			q, err := plan(s, total, avail)
			if _, single := s.(SingleSite); !single && (err == nil) != (free >= total) {
				t.Fatalf("%s: %d of %d servers free, err %v", s.Name(), free, total, err)
			}
			if err == nil {
				check(t, s.Name(), q, avail, total, 0)
				again, _ := plan(s, total, probed(available...))
				if !slices.Equal(q, again) {
					t.Fatalf("%s: same input, different plans: %v then %v", s.Name(), q, again)
				}
			}
			contended := rng.Intn(n)
			avail[contended] = Avail{Conn: avail[contended].Conn, Available: rng.Intn(6), Capacity: 8, Epoch: 999}
			if q, err := replan(s, total, avail, contended); err == nil {
				check(t, s.Name()+" re-split", q, avail, total, contended)
			}
		}
	}
}

// TestPlannerSourceIsPure holds plan.go to its contract by its imports: no
// telemetry, no clock, nothing through which a site could be reached.
func TestPlannerSourceIsPure(t *testing.T) {
	src, err := os.ReadFile("plan.go")
	if err != nil {
		t.Fatal(err)
	}
	block := regexp.MustCompile(`(?s)import \((.*?)\)`).FindSubmatch(src)
	if block == nil {
		t.Fatal("plan.go has no import block")
	}
	for _, imp := range strings.Fields(string(block[1])) {
		if imp != `"fmt"` && imp != `"slices"` && imp != `"strings"` {
			t.Errorf("plan.go imports %s", imp)
		}
	}
}

// TestBrokerStatsFieldsHaveOneCounter: every BrokerStats and CacheStats
// field but the live-entry gauge is reported by exactly one counter.
func TestBrokerStatsFieldsHaveOneCounter(t *testing.T) {
	rows := map[string]int{}
	for _, row := range brokerCounters {
		if row.name == "" || row.help == "" {
			t.Fatalf("counter row %+v is incomplete", row)
		}
		rows[row.field]++
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(BrokerStats{}), reflect.TypeOf(CacheStats{})} {
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i).Name; f != "Entries" && rows[f] != 1 {
				t.Errorf("%s.%s is reported by %d counters", typ.Name(), f, rows[f])
			}
		}
	}
}
