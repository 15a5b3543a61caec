// Package dtree implements the 2-dimensional search tree of Castillo et al.,
// HPDC'09, §4.1 — the data structure that organizes the idle periods
// overlapping one time slot so that a single two-phase range search locates
// all servers available for a co-allocation request.
//
// Structure. The primary tree T^s is a leaf-oriented balanced binary search
// tree whose leaves hold the idle periods in descending order of start time.
// Every internal node u stores
//
//   - a routing key (the paper's "median starting time") separating its
//     subtrees,
//   - the size of its subtree, and
//   - a pointer to a secondary tree T^e(u) holding the same periods ordered
//     by ascending end time (with its own routing keys and subtree sizes).
//
// Search. Phase 1 descends T^s and marks O(log n) subtrees that contain
// exactly the candidate periods (start <= s_r). Phase 2 visits the marked
// subtrees in reverse marking order and searches each one's secondary tree
// for periods with end >= e_r, stopping as soon as the requested number of
// feasible periods has been found. Phase 1 costs O(log n), Phase 2
// O(log^2 n), matching §4.3.
//
// Updates. Insertion and deletion descend the primary tree updating the
// secondary tree of every node on the path (O(log^2 n) amortized). Balance
// is maintained by weight-balance checks with scapegoat-style partial
// rebuilding, so no rotations are needed — rotations would invalidate the
// secondary trees, whereas a rebuild reconstructs them wholesale at
// amortized logarithmic cost.
//
// Every node visit increments the operation counter supplied to New, which
// is how the evaluation's "number of operations" metric (Fig. 7(b)) is
// measured.
package dtree

import (
	"fmt"
	"sort"
	"strings"

	"coalloc/internal/period"
)

// weight-balance parameters: a subtree is unbalanced when one child holds
// more than balanceNum/balanceDen of its leaves. 3/4 keeps height within
// log_{4/3}(n) while making partial rebuilds rare enough that their
// amortized cost stays logarithmic.
const (
	balanceNum = 3
	balanceDen = 4
	// minRebuildSize avoids churning on tiny subtrees where "unbalanced"
	// is meaningless.
	minRebuildSize = 6
)

// Tree is one slot's 2-dimensional tree. The zero value is not ready for
// use; call New.
type Tree struct {
	root *node
	ops  *uint64 // operation counter shared with the owner; may be nil
	pool pool    // node recycler; see pool.go
}

// node is a node of the primary tree. Leaves (left == nil) carry a period;
// internal nodes carry a routing key, subtree size, and a secondary tree
// over every leaf below them.
type node struct {
	left, right *node

	// internal node fields
	key  period.Period // routing key: >= every leaf key in left, < every leaf key in right (primary order)
	size int           // number of leaves in this subtree
	sec  *etree        // secondary tree (end-ascending) over the subtree's leaves

	// leaf field
	p period.Period
}

func (n *node) leaf() bool { return n.left == nil }

func (n *node) count() int {
	if n == nil {
		return 0
	}
	if n.leaf() {
		return 1
	}
	return n.size
}

// New returns an empty tree. If ops is non-nil it is incremented once per
// node visited by searches and updates.
func New(ops *uint64) *Tree { return &Tree{ops: ops} }

func (t *Tree) visit(n uint64) {
	if t.ops != nil {
		*t.ops += n
	}
}

// Len returns the number of idle periods stored in the tree.
func (t *Tree) Len() int { return t.root.count() }

// Insert adds the period to the tree. Inserting a period that is already
// present (same server, start, and end) is a programming error upstream and
// panics, because duplicate idle periods violate the calendar invariant that
// a server's idle periods are disjoint.
func (t *Tree) Insert(p period.Period) {
	if t.root == nil {
		t.root = t.pool.node()
		t.root.p = p
		t.visit(1)
		return
	}
	t.root = t.insert(t.root, p)
	t.rebalanceAlong(p)
}

func (t *Tree) insert(n *node, p period.Period) *node {
	t.visit(1)
	if n.leaf() {
		if n.p.Equal(p) {
			panic(fmt.Sprintf("dtree: duplicate insert of %+v", p))
		}
		leaf := t.pool.node()
		leaf.p = p
		in := t.pool.node()
		in.size = 2
		in.sec = newEtree(t.ops, &t.pool)
		if p.Less(n.p) {
			in.left, in.right = leaf, n
		} else {
			in.left, in.right = n, leaf
		}
		in.key = in.left.p
		in.sec.insert(n.p)
		in.sec.insert(p)
		return in
	}
	n.size++
	n.sec.insert(p)
	if !n.key.Less(p) { // p <= key: belongs left
		n.left = t.insert(n.left, p)
	} else {
		n.right = t.insert(n.right, p)
	}
	return n
}

// rebalanceAlong walks the search path of key p from the root and rebuilds
// the highest weight-unbalanced node found, if any. Rebuilding the highest
// violator restores the invariant for the whole path.
func (t *Tree) rebalanceAlong(p period.Period) {
	parent := (*node)(nil)
	fromLeft := false
	n := t.root
	for n != nil && !n.leaf() {
		l, r := n.left.count(), n.right.count()
		if l+r >= minRebuildSize && (balanceDen*max(l, r) > balanceNum*(l+r)) {
			rebuilt := t.rebuild(n)
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
		if !n.key.Less(p) {
			n, fromLeft = n.left, true
		} else {
			n, fromLeft = n.right, false
		}
	}
}

// Delete removes the period from the tree, reporting whether it was present.
func (t *Tree) Delete(p period.Period) bool {
	if t.root == nil {
		return false
	}
	if t.root.leaf() {
		t.visit(1)
		if !t.root.p.Equal(p) {
			return false
		}
		t.pool.putNode(t.root)
		t.root = nil
		return true
	}
	if !t.contains(t.root, p) {
		return false
	}
	t.root = t.delete(t.root, p)
	// Deletions disturb weights along the search path just like insertions;
	// rebuild the highest violator on that path, if any.
	t.rebalanceAlong(p)
	return true
}

// contains checks membership before a destructive descent, so that Delete of
// an absent key does not corrupt the secondary trees on the path.
func (t *Tree) contains(n *node, p period.Period) bool {
	for {
		t.visit(1)
		if n.leaf() {
			return n.p.Equal(p)
		}
		if !n.key.Less(p) {
			n = n.left
		} else {
			n = n.right
		}
	}
}

// delete removes p from the subtree rooted at n; the caller guarantees p is
// present. Returns the replacement subtree.
func (t *Tree) delete(n *node, p period.Period) *node {
	t.visit(1)
	if n.leaf() {
		t.pool.putNode(n)
		return nil // caller splices in the sibling
	}
	n.size--
	n.sec.delete(p)
	if !n.key.Less(p) {
		n.left = t.delete(n.left, p)
		if n.left == nil {
			sib := n.right
			t.pool.releaseEtree(n.sec.root)
			t.pool.putNode(n)
			return sib
		}
	} else {
		n.right = t.delete(n.right, p)
		if n.right == nil {
			sib := n.left
			t.pool.releaseEtree(n.sec.root)
			t.pool.putNode(n)
			return sib
		}
	}
	return n
}

// Has reports whether the exact period is stored in the tree.
func (t *Tree) Has(p period.Period) bool {
	if t.root == nil {
		return false
	}
	return t.contains(t.root, p)
}

// rebuild reconstructs the subtree rooted at n as a perfectly balanced
// leaf-oriented tree, rebuilding every secondary tree. Cost O(k log k) for a
// subtree of k leaves.
func (t *Tree) rebuild(n *node) *node {
	leaves := make([]period.Period, 0, n.count())
	collect(n, &leaves)
	t.pool.releaseTree(n)
	t.visit(uint64(len(leaves)))
	byEnd := make([]period.Period, len(leaves))
	copy(byEnd, leaves)
	sort.Slice(byEnd, func(i, j int) bool { return byEnd[i].EndLess(byEnd[j]) })
	return t.buildBalanced(leaves, byEnd)
}

func collect(n *node, out *[]period.Period) {
	if n.leaf() {
		*out = append(*out, n.p)
		return
	}
	collect(n.left, out)
	collect(n.right, out)
}

// buildBalanced builds a perfect tree from leaves already sorted in primary
// order; byEnd is the same multiset sorted in secondary order and is used to
// construct each internal node's secondary tree without re-sorting.
func (t *Tree) buildBalanced(leaves, byEnd []period.Period) *node {
	if len(leaves) == 1 {
		leaf := t.pool.node()
		leaf.p = leaves[0]
		return leaf
	}
	mid := (len(leaves) + 1) / 2
	left, right := leaves[:mid], leaves[mid:]
	// Partition byEnd stably into the two sides. Membership is decided by
	// primary order against the split key, which is exact since primary
	// order is total.
	splitKey := left[len(left)-1]
	lEnd := make([]period.Period, 0, len(left))
	rEnd := make([]period.Period, 0, len(right))
	for _, p := range byEnd {
		if !splitKey.Less(p) { // p <= splitKey: left side
			lEnd = append(lEnd, p)
		} else {
			rEnd = append(rEnd, p)
		}
	}
	n := t.pool.node()
	n.key = splitKey
	n.size = len(leaves)
	n.sec = buildEtree(t.ops, &t.pool, byEnd)
	n.left = t.buildBalanced(left, lEnd)
	n.right = t.buildBalanced(right, rEnd)
	return n
}

// Candidates runs Phase 1 only: it returns the number of stored periods with
// start <= s (the candidate idle periods for a request starting at s).
func (t *Tree) Candidates(s period.Time) int {
	marks := t.phase1(s)
	total := 0
	for _, m := range marks {
		total += m.count()
	}
	return total
}

// phase1 descends the primary tree and returns the marked subtrees, in
// marking order. Together the marked subtrees contain exactly the candidate
// periods (start <= s).
func (t *Tree) phase1(s period.Time) []*node {
	var marks []*node
	n := t.root
	for n != nil {
		t.visit(1)
		if n.leaf() {
			if n.p.CandidateFor(s) {
				marks = append(marks, n)
			}
			break
		}
		if n.key.Start > s {
			// Everything in the left subtree starts at or after key.Start,
			// hence after s: not candidates. Continue right.
			n = n.right
		} else {
			// Everything in the right subtree starts at or before
			// key.Start <= s: all candidates. Mark and continue left.
			marks = append(marks, n.right)
			n = n.left
		}
	}
	return marks
}

// Search performs the full two-phase search of §4.2 for a job occupying
// [start, end): Phase 1 finds the candidate subtrees, Phase 2 extracts
// periods that also satisfy the end condition. It returns up to max feasible
// periods (max <= 0 means all) and the total number of candidates seen in
// Phase 1. The feasible periods are produced in the paper's retrieval order:
// marked subtrees in reverse marking order (starts closest to s first), each
// traversed in ascending end order. Phase 2 collects into a slice of
// capacity room, so a caller appending to it need not grow it.
//
// If fewer than max candidates exist, Phase 2 is skipped entirely, exactly
// as the paper prescribes, and Search returns (nil, candidates).
func (t *Tree) Search(start, end period.Time, max, room int) (feasible []period.Period, candidates int) {
	marks := t.phase1(start)
	for _, m := range marks {
		candidates += m.count()
	}
	if max > 0 && candidates < max {
		return nil, candidates
	}
	feasible = make([]period.Period, 0, room)
	for i := len(marks) - 1; i >= 0; i-- {
		m := marks[i]
		if m.leaf() {
			t.visit(1)
			if m.p.End >= end {
				feasible = append(feasible, m.p)
			}
		} else {
			feasible = m.sec.collectFeasible(end, max, feasible)
		}
		if max > 0 && len(feasible) >= max {
			return feasible, candidates
		}
	}
	return feasible, candidates
}

// Clone returns a structurally independent copy of the tree wired to the
// given operation counter (nil for none). No node is shared with the
// receiver — each tree recycles nodes through its own pool, so sharing
// subtrees across trees would let one tree's delete corrupt the other — and
// the copy is built perfectly balanced in O(n log n).
//
// Clone is the write-side half of the calendar's copy-on-write views: a slot
// tree referenced by a published read-only view is cloned before its first
// mutation, leaving the view's copy frozen.
func (t *Tree) Clone(ops *uint64) *Tree {
	out := &Tree{ops: ops}
	if t.root == nil {
		return out
	}
	leaves := make([]period.Period, 0, t.root.count())
	collect(t.root, &leaves)
	byEnd := make([]period.Period, len(leaves))
	copy(byEnd, leaves)
	sort.Slice(byEnd, func(i, j int) bool { return byEnd[i].EndLess(byEnd[j]) })
	out.root = out.buildBalanced(leaves, byEnd)
	return out
}

// SearchRO is Search without side effects: it touches no operation counter,
// no timing histogram, and no pool, so any number of goroutines may call it
// concurrently on a frozen tree (one no writer mutates — see Clone). The
// result is identical to Search's.
func (t *Tree) SearchRO(start, end period.Time, max int) (feasible []period.Period, candidates int) {
	marks := t.phase1RO(start)
	for _, m := range marks {
		candidates += m.count()
	}
	if max > 0 && candidates < max {
		return nil, candidates
	}
	for i := len(marks) - 1; i >= 0; i-- {
		m := marks[i]
		if m.leaf() {
			if m.p.End >= end {
				feasible = append(feasible, m.p)
			}
		} else {
			feasible = collectFeasibleRO(m.sec.root, end, max, feasible)
		}
		if max > 0 && len(feasible) >= max {
			return feasible, candidates
		}
	}
	return feasible, candidates
}

// CountRO is len(SearchRO(start, end, 0)) without the list: Phase 1's
// descent adds, for each subtree it would mark, how many of its periods end
// at or after end, which the secondary tree's subtree sizes count in
// O(log n). Like SearchRO it has no side effects.
func (t *Tree) CountRO(start, end period.Time) int {
	total := 0
	for n := t.root; n != nil; {
		switch {
		case n.leaf():
			if n.p.FeasibleFor(start, end) {
				total++
			}
			return total
		case n.key.Start > start:
			n = n.right
		case n.right.leaf():
			if n.right.p.End >= end {
				total++
			}
			n = n.left
		default:
			total += countFeasibleRO(n.right.sec.root, end)
			n = n.left
		}
	}
	return total
}

// phase1RO mirrors phase1 without visiting the operation counter.
func (t *Tree) phase1RO(s period.Time) []*node {
	var marks []*node
	n := t.root
	for n != nil {
		if n.leaf() {
			if n.p.CandidateFor(s) {
				marks = append(marks, n)
			}
			break
		}
		if n.key.Start > s {
			n = n.right
		} else {
			marks = append(marks, n.right)
			n = n.left
		}
	}
	return marks
}

// All returns every stored period in primary order (descending start). It is
// intended for tests and diagnostics.
func (t *Tree) All() []period.Period {
	if t.root == nil {
		return nil
	}
	out := make([]period.Period, 0, t.root.count())
	collect(t.root, &out)
	return out
}

// String renders a compact representation of the primary tree, for
// debugging.
func (t *Tree) String() string {
	var b strings.Builder
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		if n == nil {
			return
		}
		indent := strings.Repeat("  ", depth)
		if n.leaf() {
			fmt.Fprintf(&b, "%s[srv %d: %d..%d]\n", indent, n.p.Server, n.p.Start, n.p.End)
			return
		}
		fmt.Fprintf(&b, "%s(key start=%d size=%d)\n", indent, n.key.Start, n.size)
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(t.root, 0)
	return b.String()
}

// checkInvariants validates structural invariants; tests call it through the
// exported hook in export_test.go.
func (t *Tree) checkInvariants() error {
	if t.root == nil {
		return nil
	}
	var check func(n *node) (lo, hi period.Period, err error)
	check = func(n *node) (period.Period, period.Period, error) {
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
			return lmin, rmax, fmt.Errorf("size mismatch at key %+v: %d != %d + %d", n.key, n.size, n.left.count(), n.right.count())
		}
		if n.key.Less(lmax) {
			return lmin, rmax, fmt.Errorf("left leaf %+v exceeds routing key %+v", lmax, n.key)
		}
		if !n.key.Less(rmin) {
			return lmin, rmax, fmt.Errorf("right leaf %+v not greater than routing key %+v", rmin, n.key)
		}
		if n.sec == nil {
			return lmin, rmax, fmt.Errorf("internal node missing secondary tree at key %+v", n.key)
		}
		if n.sec.len() != n.size {
			return lmin, rmax, fmt.Errorf("secondary size %d != primary size %d at key %+v", n.sec.len(), n.size, n.key)
		}
		if err := n.sec.checkInvariants(); err != nil {
			return lmin, rmax, err
		}
		return lmin, rmax, nil
	}
	_, _, err := check(t.root)
	return err
}
