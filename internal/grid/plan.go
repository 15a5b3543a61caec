package grid

import (
	"fmt"
	"slices"
	"strings"
)

// The planner is the pure half of a co-allocation round: from one window's
// probe answers it decides which sites to lease how many servers from, and
// in what order. It talks to no site, reads no clock and records nothing —
// the only Conn method it uses is Name — so its rules are testable from
// tables of Avail values alone. round.go runs what it plans.
//
// avail is always the broker's probe round: one answer per site, in the
// broker's site order, which is name order. Index order is therefore the
// canonical prepare order — concurrent brokers acquiring overlapping site
// sets in it never deadlock; one of them simply fails its prepare and
// aborts.

// slot is one planned share: servers to lease at the site with this index.
type slot struct{ site, servers int }

// plan splits a job over the window's probe answers.
func plan(s Strategy, total int, avail []Avail) ([]slot, error) {
	shares, err := s.Split(total, avail)
	if err != nil {
		return nil, err
	}
	return slots(s, shares, avail, 0)
}

// replan re-splits the residual demand after the prepare at avail[contended]
// lost a conflict. The candidates are that site's fresh answer — the caller
// has stored it in avail — plus every site after it that answered the
// window's probe, including sites the first split left empty, so the
// residual can route around the contention. Every share already prepared
// sits strictly before the contended site and every candidate at or after
// it: the retried prepares extend the order already acquired, and the
// no-deadlock invariant holds across passes.
func replan(s Strategy, residual int, avail []Avail, contended int) ([]slot, error) {
	cands := make([]Avail, 1, len(avail)-contended)
	cands[0] = avail[contended]
	for _, a := range avail[contended+1:] {
		if a.Err == nil {
			cands = append(cands, a)
		}
	}
	shares, err := s.Split(residual, cands)
	if err != nil {
		return nil, err
	}
	return slots(s, shares, avail, contended)
}

// slots maps a strategy's shares onto site indexes at or after from, in
// index order.
func slots(s Strategy, shares []Share, avail []Avail, from int) ([]slot, error) {
	out := make([]slot, len(shares))
	for k, sh := range shares {
		i, ok := slices.BinarySearchFunc(avail[from:], sh.Conn.Name(), func(a Avail, name string) int {
			return strings.Compare(a.Conn.Name(), name)
		})
		if !ok {
			return nil, fmt.Errorf("grid: strategy %s placed %d servers on %q, which is not a candidate site", s.Name(), sh.Servers, sh.Conn.Name())
		}
		out[k] = slot{site: from + i, servers: sh.Servers}
	}
	slices.SortStableFunc(out, func(a, b slot) int { return a.site - b.site })
	return out, nil
}
