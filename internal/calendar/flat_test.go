package calendar

import (
	"testing"

	"coalloc/internal/period"
)

// TestFlatFillSlotVisitsTailSuffix: a slot is filled from the servers whose
// trailing idle period starts after the slot's left edge w0, and only from
// them. The fixture's last reservations end before, exactly at and inside a
// slot's left edge, both at the horizon (where rotation fills) and inside
// the window (where a snapshot restore fills every slot); CheckConsistency
// rebuilds each profile from every server's reservations and so holds the
// start > w0 boundary. A rotation into a slot no server reaches costs the
// tail index's binary search, whatever the number of servers.
func TestFlatFillSlotVisitsTailSuffix(t *testing.T) {
	const size = 100
	cfg := Config{Servers: 64, SlotSize: size, Slots: 8}
	f, err := NewFlat(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	reserve := func(srv int, start, end period.Time) {
		t.Helper()
		p, ok := f.PeriodCovering(srv, start, end)
		if !ok {
			t.Fatalf("server %d is not idle over [%d,%d)", srv, start, end)
		}
		if err := f.Allocate(p, start, end); err != nil {
			t.Fatal(err)
		}
	}
	reserve(0, 100, 250) // last reservation ends inside slot 2
	reserve(1, 300, 500) // a finite gap [500,600), then ...
	reserve(1, 600, 800) // ... the last reservation ends at the horizon
	reserve(2, 0, 100)   // a finite gap [100,150), then ...
	reserve(2, 150, 400) // ... the last reservation ends at slot 4's left edge
	reserve(3, 330, 370) // ends inside slot 3, which its genesis gap overlaps
	// Servers 4..63 keep the genesis tail, before every left edge.

	check := func(what string, c *Flat) {
		t.Helper()
		if err := c.CheckConsistency(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	check("live", f)
	restored, err := FlatFromSnapshotData(f.SnapshotData())
	if err != nil {
		t.Fatal(err)
	}
	check("restored", restored)

	// One slot: the new slot's left edge is the old horizon, where server
	// 1's last reservation ends. Then three slots at once.
	for _, k := range []period.Time{1, 3} {
		before := f.Breakdown().Rotate
		f.Advance(f.Now() + k*size)
		check("after a rotation", f)
		if got := f.Breakdown().Rotate - before; got >= uint64(k)*uint64(cfg.Servers) {
			t.Fatalf("rotating %d slots cost %d ops: the fill visited servers that cannot reach the slot", k, got)
		}
	}
	// A reservation ending at the new horizon, then a one-slot rotation.
	reserve(5, f.HorizonEnd()-size/2, f.HorizonEnd())
	f.Advance(f.Now() + size)
	check("after a rotation past a reservation at the horizon", f)
}
