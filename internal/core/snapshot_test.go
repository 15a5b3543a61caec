package core

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"coalloc/internal/calendar"
	"coalloc/internal/job"
	"coalloc/internal/period"
)

func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := mustNew(t, testConfig(8))
	var allocs []job.Allocation
	now := period.Time(0)
	for i := 0; i < 120; i++ {
		now += period.Time(rng.Int63n(int64(20 * period.Minute)))
		r := job.Request{
			ID:       int64(i),
			Submit:   now,
			Start:    now + period.Time(rng.Int63n(int64(2*period.Hour))),
			Duration: period.Duration(1+rng.Int63n(3)) * period.Hour,
			Servers:  1 + rng.Intn(4),
		}
		if a, err := s.Submit(r); err == nil {
			allocs = append(allocs, a)
		}
	}

	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Configuration, clock, and statistics survive.
	if restored.Now() != s.Now() || restored.HorizonEnd() != s.HorizonEnd() {
		t.Fatalf("clock mismatch: %d/%d vs %d/%d", restored.Now(), restored.HorizonEnd(), s.Now(), s.HorizonEnd())
	}
	if restored.Stats() != s.Stats() {
		t.Fatalf("stats mismatch: %+v vs %+v", restored.Stats(), s.Stats())
	}
	if restored.Config().Policy.Name() != s.Config().Policy.Name() {
		t.Fatal("policy lost")
	}

	// Every commitment survives: each allocation's servers are busy over
	// its window in the restored scheduler.
	for _, a := range allocs {
		for _, srv := range a.Servers {
			if restored.BusyBetween(srv, a.Start, a.End) != a.Job.Duration {
				t.Fatalf("allocation %d lost on server %d", a.Job.ID, srv)
			}
		}
	}

	// The restored index answers searches identically to the original.
	for trial := 0; trial < 50; trial++ {
		start := now + period.Time(rng.Int63n(int64(6*period.Hour)))
		end := start + period.Time(rng.Int63n(int64(2*period.Hour))) + 1
		if end > restored.HorizonEnd() {
			continue
		}
		a := s.RangeSearch(start, end)
		b := restored.RangeSearch(start, end)
		if len(a) != len(b) {
			t.Fatalf("search divergence at [%d,%d): %d vs %d results", start, end, len(a), len(b))
		}
	}

	// The restored scheduler behaves identically to the original for the
	// next submission (the system may be saturated; both must then reject
	// identically).
	probe := job.Request{ID: 999, Submit: now, Start: now, Duration: period.Hour, Servers: 2}
	aOrig, errOrig := s.Submit(probe)
	aRest, errRest := restored.Submit(probe)
	if (errOrig == nil) != (errRest == nil) {
		t.Fatalf("divergent outcomes: %v vs %v", errOrig, errRest)
	}
	if errOrig == nil {
		if aOrig.Start != aRest.Start || aOrig.Attempts != aRest.Attempts {
			t.Fatalf("divergent allocations: %+v vs %+v", aOrig, aRest)
		}
		if err := restored.Release(aRest, aRest.Start); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSnapshotEmptyScheduler(t *testing.T) {
	s := mustNew(t, testConfig(4))
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Available(0, period.Time(period.Hour)); got != 4 {
		t.Fatalf("restored empty scheduler has %d free servers", got)
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := Restore(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage restored")
	}
	if _, err := Restore(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream restored")
	}
}

// TestUntaggedSnapshotRestoresIntoDefault: a snapshot written before the
// backend tag existed decodes Backend as "" and — the snapshot being ground
// truth only — restores into whatever the serving default is now, answering
// every search like the scheduler it was taken from.
func TestUntaggedSnapshotRestoresIntoDefault(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := testConfig(8)
	cfg.Backend = "dtree" // what every pre-tag scheduler ran on
	s := mustNew(t, cfg)
	now := period.Time(0)
	for i := 0; i < 120; i++ {
		now += period.Time(rng.Int63n(int64(20 * period.Minute)))
		_, _ = s.Submit(job.Request{
			ID:       int64(i),
			Submit:   now,
			Start:    now + period.Time(rng.Int63n(int64(2*period.Hour))),
			Duration: period.Duration(1+rng.Int63n(3)) * period.Hour,
			Servers:  1 + rng.Intn(4),
		}) // rejections are part of the state
	}
	var tagged bytes.Buffer
	if err := s.Snapshot(&tagged); err != nil {
		t.Fatal(err)
	}
	var hdr schedSnapshot
	if err := gob.NewDecoder(&tagged).Decode(&hdr); err != nil {
		t.Fatal(err)
	}
	hdr.Backend = "" // gob omits zero fields: byte for byte a pre-tag header
	var untagged bytes.Buffer
	if err := gob.NewEncoder(&untagged).Encode(hdr); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&untagged)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Config().Backend; got != calendar.DefaultBackend {
		t.Fatalf("untagged snapshot restored into %q, want the default %q", got, calendar.DefaultBackend)
	}
	if restored.Now() != s.Now() || restored.HorizonEnd() != s.HorizonEnd() || restored.Stats() != s.Stats() || restored.Ops() != s.Ops() {
		t.Fatal("clock, statistics or operation counter lost")
	}
	serverSet := func(ps []period.Period) []int {
		out := make([]int, 0, len(ps))
		for _, p := range ps {
			out = append(out, p.Server)
		}
		sort.Ints(out)
		return out
	}
	for start := now; start < now+period.Time(8*period.Hour); start += period.Time(7 * period.Minute) {
		for _, d := range []period.Duration{period.Minute, 90 * period.Minute} {
			a, b := serverSet(s.RangeSearch(start, start.Add(d))), serverSet(restored.RangeSearch(start, start.Add(d)))
			if !slices.Equal(a, b) {
				t.Fatalf("RangeSearch[%d,+%d): taken from %v, restored %v", start, d, a, b)
			}
		}
	}
	probe := job.Request{ID: 999, Submit: now, Start: now, Duration: period.Hour, Servers: 2}
	aOrig, errOrig := s.Submit(probe)
	aRest, errRest := restored.Submit(probe)
	if (errOrig == nil) != (errRest == nil) || aOrig.Start != aRest.Start || aOrig.Attempts != aRest.Attempts {
		t.Fatalf("next submission diverges: %+v (%v) vs %+v (%v)", aOrig, errOrig, aRest, errRest)
	}
}
