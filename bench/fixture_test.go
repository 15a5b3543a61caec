package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"coalloc/internal/grid"
	"coalloc/internal/period"
)

// snapshotShape mirrors grid's (unexported) site snapshot field for field;
// gob matches by name, so it decodes Site.Snapshot bytes.
type snapshotShape struct {
	Name      string
	Holds     []grid.Hold
	Decided   []grid.Hold
	Prepared  uint64
	Committed uint64
	Aborted   uint64
	Expired   uint64
	Scheduler []byte
}

// snapshotHash hashes a site snapshot with the hold ids blanked: they carry
// the broker's random per-process token (and the job id derived from it),
// the only part of a warmed site that is not a function of the seed.
func snapshotHash(t *testing.T, snap []byte) [32]byte {
	t.Helper()
	var s snapshotShape
	if err := gob.NewDecoder(bytes.NewReader(snap)).Decode(&s); err != nil {
		t.Fatal(err)
	}
	blank := func(hs []grid.Hold) {
		sort.Slice(hs, func(i, j int) bool {
			a, b := hs[i].Alloc, hs[j].Alloc
			if a.Start != b.Start {
				return a.Start < b.Start
			}
			return a.Servers[0] < b.Servers[0]
		})
		for i := range hs {
			hs[i].ID = ""
			hs[i].Alloc.Job.ID = 0
		}
	}
	blank(s.Holds)
	blank(s.Decided)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(buf.Bytes())
}

func TestWarmedFixtureIsAFunctionOfTheSeed(t *testing.T) {
	build := func(seed int64) [][32]byte {
		fx, err := buildFixture(fixtureConfig{}, genJobs(warmJobs, seed))
		if err != nil {
			t.Fatal(err)
		}
		defer fx.close()
		var out [][32]byte
		for _, snap := range fx.snaps {
			out = append(out, snapshotHash(t, snap))
		}
		return out
	}
	a, b, other := build(7), build(7), build(8)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("site s%d: two fixtures from seed 7 differ", i)
		}
	}
	same := true
	for i := range a {
		same = same && a[i] == other[i]
	}
	if same {
		t.Error("seeds 7 and 8 gave the same fixture: the hash is blind")
	}
}

func smokeOptions(t *testing.T, workload string, trace bool) options {
	t.Helper()
	return options{workload: workload, seed: 3, seconds: 1, smoke: true, trace: trace, sets: 1,
		out: filepath.Join(t.TempDir(), "result.json"), swfRate: 3000, openRate: 100}
}

// TestSWFLocalRepeatsExactly: single-client and seeded, so the counts and the
// scheduling-quality numbers of swf_local must be identical run to run.
func TestSWFLocalRepeatsExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs swf_local twice")
	}
	o := smokeOptions(t, wlSWFLocal, true)
	exact := []string{"loadgen.reject_ratio", "loadgen.mean_shift_s", "broker.rpcs_per_coalloc",
		"core.attempts_per_submit", "broker.windows_per_coalloc", "workload.mean_width"}
	var runs [2]workloadReport
	for i := range runs {
		wr, err := traced(specs(o)[0], o)
		if err != nil {
			t.Fatal(err)
		}
		if !wr.Correct {
			t.Fatalf("run %d incorrect: %v", i, wr.Checks)
		}
		runs[i] = wr
	}
	for _, name := range exact {
		a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value
		if a != b {
			t.Errorf("%s: %v then %v", name, a, b)
		}
		if a == 0 {
			t.Errorf("%s is 0: the run did not exercise it", name)
		}
	}
}

// TestClockSkewBetweenClients pins what a site does with out-of-order now
// values, which is why concurrent clients share the cursor's low-water
// clock instead of each job's own submit time.
func TestClockSkewBetweenClients(t *testing.T) {
	site := testSite(t)
	lease := 5 * period.Minute
	tA, tB := period.Time(1000), period.Time(1000+705) // consecutive jobs, mean gap apart

	// Client A prepares at its job's clock; client B's next job then moves
	// the site clock past A's lease before A commits: the hold is gone.
	if _, err := site.Prepare(tA, "a", tA, tA.Add(period.Hour), 1, lease); err != nil {
		t.Fatal(err)
	}
	site.ProbeView(tB, tB, tB.Add(period.Hour))
	if err := site.Commit(tA, "a"); err == nil {
		t.Error("a 5-minute lease survived a 705 s clock step; per-job clocks would be safe after all")
	}

	// An older now is accepted as such (the clock guard does not refuse
	// it), but an on-demand window that starts behind the site clock is
	// refused for capacity, which costs the job a Δt rung.
	if _, err := site.Prepare(tA, "a2", tA, tA.Add(period.Hour), 1, 24*period.Hour); err == nil {
		t.Error("a window starting behind the site clock was granted")
	}
	if _, err := site.Prepare(tA, "a3", tB, tB.Add(period.Hour), 1, 24*period.Hour); err != nil {
		t.Errorf("an older now with a window at the site clock must be accepted: %v", err)
	}

	// The cursor's clock never passes the submit time of a job in flight.
	c := &cursor{jobs: genJobs(10, 1), limit: 10}
	j0, _, now0, _ := c.take()
	j1, _, now1, _ := c.take()
	if now0 != j0.Submit || now1 != j0.Submit {
		t.Errorf("clocks %d, %d with job 0 (submit %d) in flight", now0, now1, j0.Submit)
	}
	c.done(j0)
	_, _, now2, _ := c.take()
	if now2 != j1.Submit {
		t.Errorf("clock %d after job 0 finished, want job 1's submit %d", now2, j1.Submit)
	}
}

// TestSmoke runs every workload untraced and traced with 1 s windows and
// holds the output to the contract in ../BENCHMARK.json: every end-to-end
// metric on every workload untraced, every per-layer metric traced, all
// checks passing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the federation eight times")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.PerLayer) != len(perLayerNames) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the harness reports %d", len(bm.PerLayer), len(perLayerNames))
	}
	for _, trace := range []bool{false, true} {
		want := bm.EndToEnd
		if trace {
			want = bm.PerLayer
		}
		for _, w := range bm.Workloads {
			o := smokeOptions(t, w.Name, trace)
			if err := run(o); err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			rep, err := loadReport(o.out)
			if err != nil {
				t.Fatal(err)
			}
			wr := rep.Workloads[0]
			if !wr.Correct || wr.Failed != 0 || wr.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d checks=%v", w.Name, trace, wr.Correct, wr.Failed, wr.Attempted, wr.Checks)
			}
			if len(wr.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(wr.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := wr.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, got.Value)
				}
			}
			if trace {
				if r := wr.Metrics["cache.hit_ratio"].Value; (w.Name == wlMixed) != (r > 0) {
					t.Errorf("%s: cache.hit_ratio = %v", w.Name, r)
				}
				if r := wr.Metrics["wire.probe_rpc_us_p50"].Value; (w.Name == wlSWFLocal) != (r == 0) {
					t.Errorf("%s: wire.probe_rpc_us_p50 = %v", w.Name, r)
				}
				if _, err := os.Stat(filepath.Join(filepath.Dir(o.out), w.Name+".spans.jsonl")); err != nil {
					t.Errorf("%s: no span file: %v", w.Name, err)
				}
			}
			leftovers, _ := filepath.Glob(filepath.Join(filepath.Dir(o.out), "wal-*"))
			if len(leftovers) > 0 {
				t.Errorf("%s: WAL directories left behind: %s", w.Name, strings.Join(leftovers, " "))
			}
		}
	}
}
