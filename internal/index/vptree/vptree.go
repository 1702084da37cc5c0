// Package vptree implements a vantage-point tree over point data — the
// second metric-space indexing baseline from the paper (§2.2; the original
// demo used a Python VP-tree). A VP-tree is a binary tree: each node picks
// a vantage point and a median distance threshold; points nearer than the
// threshold go to the inside subtree, the rest to the outside subtree.
// Radius queries prune subtrees with the triangle inequality.
//
// Like the historical Python implementation, the tree is built once over a
// window of tuples and is immutable afterwards; windows are rebuilt as the
// stream advances, so mutability buys nothing. Radius search is the one
// query it answers — the one the paper's indexed method issues.
//
// Only the radius processor in internal/query imports it
// (query.NewVPTree, which only internal/bench builds). The serving path
// answers from the model cover and never builds one; the package stays
// because it is a baseline Figures 6 and 7(a) compare the cover against.
package vptree

import (
	"fmt"
	"math/rand"

	"repro/internal/geo"
)

// Item is the opaque payload stored with each indexed point.
type Item int64

// node is one VP-tree node. Each node owns exactly one point (its vantage
// point); the deliberately pointer-heavy binary structure mirrors the
// classic implementation whose memory footprint the paper measures in
// Figure 7(a).
type node struct {
	pt        geo.Point
	item      Item
	threshold float64 // median distance from pt to the points below it
	inside    *node   // points with dist(pt, ·) < threshold
	outside   *node   // points with dist(pt, ·) ≥ threshold
}

// Tree is an immutable vantage-point tree.
type Tree struct {
	root *node
	size int
}

// Build constructs a VP-tree over pts. pts and items must have equal
// length. The builder picks vantage points pseudo-randomly, seeded for
// reproducibility.
func Build(pts []geo.Point, items []Item) (*Tree, error) {
	if len(pts) != len(items) {
		return nil, fmt.Errorf("vptree: %d points vs %d items", len(pts), len(items))
	}
	recs := make([]rec, len(pts))
	for i := range pts {
		recs[i] = rec{pt: pts[i], item: items[i]}
	}
	rng := rand.New(rand.NewSource(0x5EED))
	return &Tree{root: build(recs, rng), size: len(pts)}, nil
}

type rec struct {
	pt   geo.Point
	item Item
	dist float64 // scratch: distance to the current vantage point
}

func build(recs []rec, rng *rand.Rand) *node {
	if len(recs) == 0 {
		return nil
	}
	// Choose a random vantage point and move it to the front.
	vi := rng.Intn(len(recs))
	recs[0], recs[vi] = recs[vi], recs[0]
	vp := recs[0]
	rest := recs[1:]
	if len(rest) == 0 {
		return &node{pt: vp.pt, item: vp.item}
	}
	for i := range rest {
		rest[i].dist = rest[i].pt.Dist(vp.pt)
	}
	// Median split. After quickselect, ties with the median may sit on
	// either side, so re-partition strictly: dist < threshold goes inside.
	// With heavy duplication the inside set may be empty, but the outside
	// set always shrinks (the vantage point was removed), so recursion
	// terminates.
	mid := len(rest) / 2
	selectNth(rest, mid)
	threshold := rest[mid].dist
	i := 0
	for j := range rest {
		if rest[j].dist < threshold {
			rest[i], rest[j] = rest[j], rest[i]
			i++
		}
	}
	return &node{
		pt:        vp.pt,
		item:      vp.item,
		threshold: threshold,
		inside:    build(rest[:i], rng),
		outside:   build(rest[i:], rng),
	}
}

// selectNth partially sorts recs so recs[n] holds the n-th smallest dist
// (quickselect).
func selectNth(recs []rec, n int) {
	lo, hi := 0, len(recs)-1
	for lo < hi {
		p := partition(recs, lo, hi)
		switch {
		case p == n:
			return
		case p < n:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
}

func partition(recs []rec, lo, hi int) int {
	// Median-of-three pivot to avoid quadratic behaviour on sorted input.
	mid := (lo + hi) / 2
	if recs[mid].dist < recs[lo].dist {
		recs[mid], recs[lo] = recs[lo], recs[mid]
	}
	if recs[hi].dist < recs[lo].dist {
		recs[hi], recs[lo] = recs[lo], recs[hi]
	}
	if recs[hi].dist < recs[mid].dist {
		recs[hi], recs[mid] = recs[mid], recs[hi]
	}
	pivot := recs[mid].dist
	recs[mid], recs[hi-1] = recs[hi-1], recs[mid]
	i := lo
	for j := lo; j < hi-1; j++ {
		if recs[j].dist < pivot {
			recs[i], recs[j] = recs[j], recs[i]
			i++
		}
	}
	recs[i], recs[hi-1] = recs[hi-1], recs[i]
	return i
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.size }

// SearchRadius visits every entry within radius meters of center.
// Returning false from visit stops the search early.
func (t *Tree) SearchRadius(center geo.Point, radius float64, visit func(pt geo.Point, item Item) bool) {
	if t.root == nil || radius < 0 {
		return
	}
	searchRadius(t.root, center, radius, visit)
}

func searchRadius(n *node, center geo.Point, radius float64, visit func(geo.Point, Item) bool) bool {
	if n == nil {
		return true
	}
	d := n.pt.Dist(center)
	if d <= radius {
		if !visit(n.pt, n.item) {
			return false
		}
	}
	// Triangle-inequality pruning: the inside ball holds points with
	// dist(vp, ·) < threshold, so it can only contain query matches when
	// d - radius < threshold; symmetrically for the outside shell.
	if d-radius < n.threshold {
		if !searchRadius(n.inside, center, radius, visit) {
			return false
		}
	}
	if d+radius >= n.threshold {
		if !searchRadius(n.outside, center, radius, visit) {
			return false
		}
	}
	return true
}

// CheckInvariants verifies the VP-tree partitioning invariant for every
// node: all inside descendants are strictly nearer than the threshold and
// all outside descendants at least as far.
func (t *Tree) CheckInvariants() error {
	count := 0
	var check func(n *node) error
	check = func(n *node) error {
		if n == nil {
			return nil
		}
		count++
		var verify func(sub *node, inside bool) error
		verify = func(sub *node, inside bool) error {
			if sub == nil {
				return nil
			}
			d := sub.pt.Dist(n.pt)
			if inside && d >= n.threshold {
				return fmt.Errorf("vptree: inside point at dist %v ≥ threshold %v", d, n.threshold)
			}
			if !inside && d < n.threshold {
				return fmt.Errorf("vptree: outside point at dist %v < threshold %v", d, n.threshold)
			}
			if err := verify(sub.inside, inside); err != nil {
				return err
			}
			return verify(sub.outside, inside)
		}
		if err := verify(n.inside, true); err != nil {
			return err
		}
		if err := verify(n.outside, false); err != nil {
			return err
		}
		if err := check(n.inside); err != nil {
			return err
		}
		return check(n.outside)
	}
	if err := check(t.root); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("vptree: size %d but %d nodes reachable", t.size, count)
	}
	return nil
}
