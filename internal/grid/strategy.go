package grid

import (
	"fmt"
	"slices"
)

// Avail is one site's probed availability for a candidate window. A site
// that could not be probed carries its error in Err with both numbers zero,
// so no strategy can mistake a stale capacity for real headroom.
type Avail struct {
	Conn      Conn
	Available int
	Capacity  int
	// Epoch is the site epoch the answer was computed at (zero when the site
	// does not report epochs). The broker threads it into each share's
	// prepare so the site can classify a refusal as a conflict — see
	// ConflictPrepareConn.
	Epoch uint64
	Err   error
}

// Share is a strategy's assignment of part of a job to a site.
type Share struct {
	Conn    Conn
	Servers int
}

// Strategy decides how to split a job's n_r servers across sites given
// their probed availability — the "adaptive selection strategies" studied
// by Zhang et al. [36], reimplemented over the online scheduler. Split
// returns an error when the job cannot be placed in this window.
type Strategy interface {
	Name() string
	Split(total int, avail []Avail) ([]Share, error)
}

// SingleSite places the whole job on one site — the site with the least
// sufficient availability (best fit), keeping larger pools free.
type SingleSite struct{}

// Name implements Strategy.
func (SingleSite) Name() string { return "single" }

// Split implements Strategy.
func (SingleSite) Split(total int, avail []Avail) ([]Share, error) {
	best := -1
	for i, a := range avail {
		if a.Available < total {
			continue
		}
		if best < 0 || a.Available < avail[best].Available {
			best = i
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("grid: no single site has %d servers free", total)
	}
	return []Share{{Conn: avail[best].Conn, Servers: total}}, nil
}

// Greedy fills the most-available site first, spilling the remainder onto
// the next, minimizing the number of sites per job (fewer prepare
// round-trips, less cross-site traffic for the application).
type Greedy struct{}

// Name implements Strategy.
func (Greedy) Name() string { return "greedy" }

// Split implements Strategy.
func (Greedy) Split(total int, avail []Avail) ([]Share, error) {
	order := append([]Avail(nil), avail...)
	slices.SortStableFunc(order, func(a, b Avail) int { return b.Available - a.Available })
	var shares []Share
	left := total
	for _, a := range order {
		if left == 0 {
			break
		}
		take := a.Available
		if take > left {
			take = left
		}
		if take <= 0 {
			continue
		}
		shares = append(shares, Share{Conn: a.Conn, Servers: take})
		left -= take
	}
	if left > 0 {
		return nil, fmt.Errorf("grid: only %d of %d servers available across sites", total-left, total)
	}
	return shares, nil
}

// LoadBalance splits the job across sites in proportion to their
// availability, spreading load — the co-allocation analogue of weighted
// fair placement.
type LoadBalance struct{}

// Name implements Strategy.
func (LoadBalance) Name() string { return "balance" }

// Split implements Strategy.
func (LoadBalance) Split(total int, avail []Avail) ([]Share, error) {
	sum := 0
	for _, a := range avail {
		sum += a.Available
	}
	if sum < total {
		return nil, fmt.Errorf("grid: only %d of %d servers available across sites", sum, total)
	}
	shares := make([]Share, 0, len(avail))
	assigned := 0
	for _, a := range avail {
		n := total * a.Available / sum
		if n > a.Available {
			n = a.Available
		}
		shares = append(shares, Share{Conn: a.Conn, Servers: n})
		assigned += n
	}
	// Distribute the rounding remainder to the sites with spare room, most
	// available first.
	order := make([]int, len(shares))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(x, y int) int {
		return (avail[y].Available - shares[y].Servers) - (avail[x].Available - shares[x].Servers)
	})
	for _, i := range order {
		if assigned == total {
			break
		}
		if room := avail[i].Available - shares[i].Servers; room > 0 {
			add := total - assigned
			if add > room {
				add = room
			}
			shares[i].Servers += add
			assigned += add
		}
	}
	out := shares[:0]
	for _, sh := range shares {
		if sh.Servers > 0 {
			out = append(out, sh)
		}
	}
	return out, nil
}

// Affinity wraps a strategy with a per-broker offset into the site order:
// Split sees the availability slice rotated by Offset, so the stable-sort
// tie-breaking inside the wrapped strategy resolves toward a different
// first-choice site per broker. A fleet of brokers with distinct names
// therefore spreads its first choices instead of piling onto the globally
// most-available site and conflicting there — the conflict-aware request
// distribution of the arktos global-scheduler design. Rotation never
// changes which sites are feasible or how much each can hold, only the
// order equal-availability ties resolve in.
type Affinity struct {
	S      Strategy
	Offset int
}

// Name implements Strategy.
func (a Affinity) Name() string { return a.S.Name() + "+affinity" }

// Split implements Strategy.
func (a Affinity) Split(total int, avail []Avail) ([]Share, error) {
	n := len(avail)
	if n == 0 {
		return a.S.Split(total, avail)
	}
	off := a.Offset % n
	if off < 0 {
		off += n
	}
	if off == 0 {
		return a.S.Split(total, avail)
	}
	rot := make([]Avail, 0, n)
	rot = append(rot, avail[off:]...)
	rot = append(rot, avail[:off]...)
	return a.S.Split(total, rot)
}

// AffinityOffset hashes a broker name over nSites site-order positions —
// the Offset a fleet member passes to Affinity so distinct broker names
// land on distinct (well-spread) first-choice sites.
func AffinityOffset(name string, nSites int) int {
	if nSites <= 0 {
		return 0
	}
	var h uint64 = 14695981039346656037 // FNV-1a
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return int(h % uint64(nSites))
}

// StrategyByName returns a registered strategy or nil.
func StrategyByName(name string) Strategy {
	switch name {
	case "", "greedy":
		return Greedy{}
	case "single":
		return SingleSite{}
	case "balance":
		return LoadBalance{}
	}
	return nil
}
