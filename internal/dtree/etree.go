package dtree

import (
	"fmt"
	"sort"

	"coalloc/internal/period"
)

// etree is a secondary tree T^e(u): a leaf-oriented weight-balanced BST over
// the periods of one primary subtree, ordered by ascending end time. Its
// internal nodes store routing keys (the paper's "median ending time") and
// subtree sizes so that Phase 2 can both count and enumerate feasible
// periods in logarithmic time.
type etree struct {
	root *enode
	ops  *uint64
	pool *pool
}

type enode struct {
	left, right *enode
	key         period.Period // routing: >= all left leaves, < all right leaves (secondary order)
	size        int
	p           period.Period // leaf payload
}

func (n *enode) leaf() bool { return n.left == nil }

func (n *enode) count() int {
	if n == nil {
		return 0
	}
	if n.leaf() {
		return 1
	}
	return n.size
}

func newEtree(ops *uint64, pl *pool) *etree { return &etree{ops: ops, pool: pl} }

func (t *etree) visit(n uint64) {
	if t.ops != nil {
		*t.ops += n
	}
}

func (t *etree) len() int { return t.root.count() }

func (t *etree) insert(p period.Period) {
	if t.root == nil {
		t.root = t.pool.enode()
		t.root.p = p
		t.visit(1)
		return
	}
	t.root = t.insertAt(t.root, p)
	t.rebalanceAlong(p)
}

func (t *etree) insertAt(n *enode, p period.Period) *enode {
	t.visit(1)
	if n.leaf() {
		leaf := t.pool.enode()
		leaf.p = p
		in := t.pool.enode()
		in.size = 2
		if p.EndLess(n.p) {
			in.left, in.right = leaf, n
		} else {
			in.left, in.right = n, leaf
		}
		in.key = in.left.p
		return in
	}
	n.size++
	if !n.key.EndLess(p) { // p <= key in secondary order
		n.left = t.insertAt(n.left, p)
	} else {
		n.right = t.insertAt(n.right, p)
	}
	return n
}

func (t *etree) rebalanceAlong(p period.Period) {
	parent := (*enode)(nil)
	fromLeft := false
	n := t.root
	for n != nil && !n.leaf() {
		l, r := n.left.count(), n.right.count()
		if l+r >= minRebuildSize && balanceDen*max(l, r) > balanceNum*(l+r) {
			rebuilt := t.rebuildNode(n)
			switch {
			case parent == nil:
				t.root = rebuilt
			case fromLeft:
				parent.left = rebuilt
			default:
				parent.right = rebuilt
			}
			return
		}
		parent = n
		if !n.key.EndLess(p) {
			n, fromLeft = n.left, true
		} else {
			n, fromLeft = n.right, false
		}
	}
}

func (t *etree) delete(p period.Period) bool {
	if t.root == nil {
		return false
	}
	if t.root.leaf() {
		t.visit(1)
		if !t.root.p.Equal(p) {
			return false
		}
		t.pool.putEnode(t.root)
		t.root = nil
		return true
	}
	if !t.contains(t.root, p) {
		return false
	}
	t.root = t.deleteAt(t.root, p)
	t.rebalanceAlong(p)
	return true
}

func (t *etree) contains(n *enode, p period.Period) bool {
	for {
		t.visit(1)
		if n.leaf() {
			return n.p.Equal(p)
		}
		if !n.key.EndLess(p) {
			n = n.left
		} else {
			n = n.right
		}
	}
}

func (t *etree) deleteAt(n *enode, p period.Period) *enode {
	t.visit(1)
	if n.leaf() {
		t.pool.putEnode(n)
		return nil
	}
	n.size--
	if !n.key.EndLess(p) {
		n.left = t.deleteAt(n.left, p)
		if n.left == nil {
			sib := n.right
			t.pool.putEnode(n)
			return sib
		}
	} else {
		n.right = t.deleteAt(n.right, p)
		if n.right == nil {
			sib := n.left
			t.pool.putEnode(n)
			return sib
		}
	}
	return n
}

func (t *etree) rebuildNode(n *enode) *enode {
	leaves := make([]period.Period, 0, n.count())
	collectE(n, &leaves)
	t.pool.releaseEtree(n)
	t.visit(uint64(len(leaves)))
	return buildEnode(t.pool, leaves)
}

func collectE(n *enode, out *[]period.Period) {
	if n.leaf() {
		*out = append(*out, n.p)
		return
	}
	collectE(n.left, out)
	collectE(n.right, out)
}

// buildEtree constructs a perfectly balanced secondary tree from periods
// already sorted in secondary (end-ascending) order.
func buildEtree(ops *uint64, pl *pool, sorted []period.Period) *etree {
	t := &etree{ops: ops, pool: pl}
	if len(sorted) > 0 {
		t.root = buildEnode(pl, sorted)
	}
	return t
}

func buildEnode(pl *pool, sorted []period.Period) *enode {
	if len(sorted) == 1 {
		leaf := pl.enode()
		leaf.p = sorted[0]
		return leaf
	}
	mid := (len(sorted) + 1) / 2
	n := pl.enode()
	n.key = sorted[mid-1]
	n.size = len(sorted)
	n.left = buildEnode(pl, sorted[:mid])
	n.right = buildEnode(pl, sorted[mid:])
	return n
}

// collectFeasible implements the Phase-2 search within one secondary tree:
// starting at the root it descends toward smaller end times, marking right
// subtrees whose periods all end at or after `end`, and appends the marked
// periods (in ascending end order) to acc. It stops early once max feasible
// periods have been accumulated in acc (max <= 0 disables early stopping).
func (t *etree) collectFeasible(end period.Time, max int, acc []period.Period) []period.Period {
	if t.root == nil {
		return acc
	}
	n := t.root
	for {
		t.visit(1)
		if n.leaf() {
			if n.p.End >= end {
				acc = append(acc, n.p)
			}
			return acc
		}
		if n.key.End >= end {
			// Every period in the right subtree ends at or after key.End
			// >= end: all feasible. Harvest it, then keep descending left
			// for more.
			acc = t.appendAll(n.right, max, acc)
			if max > 0 && len(acc) >= max {
				return acc
			}
			n = n.left
		} else {
			// Everything in the left subtree ends at or before key.End
			// < end: infeasible. Continue right.
			n = n.right
		}
	}
}

// appendAll appends the subtree's periods in ascending end order, stopping
// early at max accumulated results (max <= 0: no limit).
func (t *etree) appendAll(n *enode, max int, acc []period.Period) []period.Period {
	t.visit(1)
	if n.leaf() {
		return append(acc, n.p)
	}
	acc = t.appendAll(n.left, max, acc)
	if max > 0 && len(acc) >= max {
		return acc
	}
	return t.appendAll(n.right, max, acc)
}

// collectFeasibleRO mirrors collectFeasible on bare enodes, with no counter
// or pool access, for concurrent readers of frozen trees (see Tree.SearchRO).
func collectFeasibleRO(n *enode, end period.Time, max int, acc []period.Period) []period.Period {
	for n != nil {
		if n.leaf() {
			if n.p.End >= end {
				acc = append(acc, n.p)
			}
			return acc
		}
		if n.key.End >= end {
			acc = appendAllRO(n.right, max, acc)
			if max > 0 && len(acc) >= max {
				return acc
			}
			n = n.left
		} else {
			n = n.right
		}
	}
	return acc
}

// countFeasibleRO is collectFeasibleRO counting instead of listing: each
// right subtree the descent would harvest adds its size.
func countFeasibleRO(n *enode, end period.Time) (total int) {
	for n != nil && !n.leaf() {
		if n.key.End >= end {
			total += n.right.count()
			n = n.left
		} else {
			n = n.right
		}
	}
	if n != nil && n.p.End >= end {
		total++
	}
	return total
}

// appendAllRO mirrors appendAll without visiting the operation counter.
func appendAllRO(n *enode, max int, acc []period.Period) []period.Period {
	if n.leaf() {
		return append(acc, n.p)
	}
	acc = appendAllRO(n.left, max, acc)
	if max > 0 && len(acc) >= max {
		return acc
	}
	return appendAllRO(n.right, max, acc)
}

func (t *etree) checkInvariants() error {
	if t.root == nil {
		return nil
	}
	var check func(n *enode) (lo, hi period.Period, err error)
	check = func(n *enode) (period.Period, period.Period, error) {
		if n.leaf() {
			return n.p, n.p, nil
		}
		lmin, lmax, err := check(n.left)
		if err != nil {
			return lmin, lmax, err
		}
		rmin, rmax, err := check(n.right)
		if err != nil {
			return rmin, rmax, err
		}
		if n.size != n.left.count()+n.right.count() {
			return lmin, rmax, fmt.Errorf("etree size mismatch at key %+v", n.key)
		}
		if n.key.EndLess(lmax) {
			return lmin, rmax, fmt.Errorf("etree left leaf %+v exceeds key %+v", lmax, n.key)
		}
		if !n.key.EndLess(rmin) {
			return lmin, rmax, fmt.Errorf("etree right leaf %+v not above key %+v", rmin, n.key)
		}
		return lmin, rmax, nil
	}
	_, _, err := check(t.root)
	return err
}

// sortedByEnd returns the tree's periods in ascending end order (tests).
func (t *etree) sortedByEnd() []period.Period {
	if t.root == nil {
		return nil
	}
	out := make([]period.Period, 0, t.root.count())
	collectE(t.root, &out)
	sort.Slice(out, func(i, j int) bool { return out[i].EndLess(out[j]) })
	return out
}
