package main

import (
	"bytes"
	"encoding/gob"
	"path/filepath"
	"testing"

	"coalloc/internal/calendar"
	"coalloc/internal/core"
	"coalloc/internal/grid"
	"coalloc/internal/period"
)

// snapshotBackend reads the availability backend a site's snapshot records.
func snapshotBackend(t *testing.T, s *grid.Site) string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var snap struct{ Scheduler []byte }
	if err := gob.NewDecoder(&buf).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	sched, err := core.Restore(bytes.NewReader(snap.Scheduler))
	if err != nil {
		t.Fatal(err)
	}
	return sched.Config().Backend
}

// TestLoadOrCreateSiteKeepsSnapshotBackend pins that gridd builds new sites
// on the default backend, while a snapshot written by a dtree site restores
// onto dtree, reservations included.
func TestLoadOrCreateSiteKeepsSnapshotBackend(t *testing.T) {
	dir := t.TempDir()
	fresh, err := loadOrCreateSite(filepath.Join(dir, "absent.gob"), "fresh", 8, 15, 24, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshotBackend(t, fresh); got != calendar.DefaultBackend {
		t.Errorf("new site backend = %q, want %q", got, calendar.DefaultBackend)
	}

	tree, err := grid.NewSite("tree", core.Config{
		Servers: 8, Backend: "dtree", SlotSize: 15 * period.Minute, Slots: 96,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Prepare(0, "h1", 0, period.Time(period.Hour), 3, period.Hour); err != nil {
		t.Fatal(err)
	}
	if err := tree.Commit(0, "h1"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "tree.gob")
	if err := saveSite(path, tree); err != nil {
		t.Fatal(err)
	}

	site, err := loadOrCreateSite(path, "other", 64, 15, 168, 0)
	if err != nil {
		t.Fatal(err)
	}
	if site.Name() != "tree" {
		t.Errorf("restored name = %q, want the snapshot's %q", site.Name(), "tree")
	}
	if got := snapshotBackend(t, site); got != "dtree" {
		t.Errorf("restored backend = %q, want dtree", got)
	}
	if _, committed := site.LookupHold("h1"); !committed {
		t.Error("committed hold h1 lost across the restore")
	}
}
