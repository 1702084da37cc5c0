// Package rtree implements an in-memory R-tree over point data, the
// classic Guttman design with quadratic split. It is one of the two metric
// space indexing baselines the paper evaluates against the model cover
// (§2.2 "Metric Space Indexing"; the original demo used the Python
// `pyrtree` package).
//
// The tree indexes tuple positions and stores an opaque integer item per
// entry (the tuple's offset in its window), supporting insertion, deletion,
// rectangular range search, radius search, and k-nearest-neighbor search,
// plus a bulk Sort-Tile-Recursive loader for building an index over a full
// window at once.
//
// Only the radius processor in internal/query imports it (query.NewRTree,
// chosen by a request's processor kind "rtree"). The default serving path
// answers from the model cover and never builds one; the package stays
// because it is a baseline Figures 6 and 7(a) compare the cover against.
package rtree

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/geo"
)

// DefaultMaxEntries is the default node fan-out M.
const DefaultMaxEntries = 16

// Item is the opaque payload stored with each indexed point.
type Item int64

// entry is a leaf-level (point, item) pair.
type entry struct {
	pt   geo.Point
	item Item
}

// node is an R-tree node. Leaves hold entries; internal nodes hold children.
type node struct {
	rect     geo.Rect
	leaf     bool
	entries  []entry // leaf only
	children []*node // internal only
}

// Tree is an R-tree over points. The zero value is not usable; call New
// or Bulk.
type Tree struct {
	root       *node
	size       int
	maxEntries int
	minEntries int
}

// New returns an empty tree with the given maximum node fan-out. maxEntries
// must be at least 4; the minimum fill is max/2 as in Guttman's paper.
func New(maxEntries int) (*Tree, error) {
	if maxEntries < 4 {
		return nil, fmt.Errorf("rtree: maxEntries = %d, want ≥ 4", maxEntries)
	}
	return &Tree{
		root:       &node{leaf: true},
		maxEntries: maxEntries,
		minEntries: maxEntries / 2,
	}, nil
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.size }

// Bounds returns the bounding box of all indexed points. ok is false for an
// empty tree.
func (t *Tree) Bounds() (geo.Rect, bool) {
	if t.size == 0 {
		return geo.Rect{}, false
	}
	return t.root.rect, true
}

// Insert adds a point with its item to the tree.
func (t *Tree) Insert(pt geo.Point, item Item) {
	leaf := t.chooseLeaf(t.root, pt)
	leaf.entries = append(leaf.entries, entry{pt, item})
	t.size++
	t.adjustUpward(leaf, pt)
}

// chooseLeaf descends from n to the leaf whose rectangle needs the least
// enlargement to include pt, breaking ties by smaller area.
func (t *Tree) chooseLeaf(n *node, pt geo.Point) *node {
	path := t.pathToLeaf(n, pt)
	return path[len(path)-1]
}

// pathToLeaf returns the root-to-leaf path chosen for pt.
func (t *Tree) pathToLeaf(n *node, pt geo.Point) []*node {
	path := []*node{n}
	for !n.leaf {
		var best *node
		bestEnlarge := math.Inf(1)
		bestArea := math.Inf(1)
		for _, c := range n.children {
			area := c.rect.Area()
			enlarged := c.rect.ExpandToPoint(pt).Area() - area
			if enlarged < bestEnlarge || (enlarged == bestEnlarge && area < bestArea) {
				best, bestEnlarge, bestArea = c, enlarged, area
			}
		}
		n = best
		path = append(path, n)
	}
	return path
}

// adjustUpward grows rectangles on the path to the inserted point and
// splits overflowing nodes bottom-up.
func (t *Tree) adjustUpward(leaf *node, pt geo.Point) {
	// Recompute the insertion path (parent pointers are not stored; the
	// tree is shallow, so a fresh descent is cheap and keeps nodes lean,
	// which matters for the paper's memory experiment).
	path := t.pathToLeaf(t.root, pt)
	// The descent may not end at the exact leaf if rectangles tie, so force
	// the final element. In practice chooseLeaf and pathToLeaf agree because
	// both are deterministic over identical state.
	path[len(path)-1] = leaf
	for _, n := range path {
		if n.leaf && len(n.entries) > 0 {
			n.rect = rectOfEntries(n.entries)
		} else if !n.leaf {
			n.rect = n.rect.ExpandToPoint(pt)
		}
	}
	// Split bottom-up.
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if n.overflow(t.maxEntries) {
			left, right := t.split(n)
			if i == 0 {
				// Root split: grow the tree.
				t.root = &node{
					leaf:     false,
					children: []*node{left, right},
					rect:     left.rect.Union(right.rect),
				}
			} else {
				parent := path[i-1]
				replaceChild(parent, n, left, right)
				parent.rect = rectOfChildren(parent.children)
			}
		}
	}
	// Tighten rectangles along the path (after splits the stored path may
	// reference stale nodes, so recompute from the root).
	tighten(t.root)
}

func (n *node) overflow(max int) bool {
	if n.leaf {
		return len(n.entries) > max
	}
	return len(n.children) > max
}

func replaceChild(parent, old, a, b *node) {
	for i, c := range parent.children {
		if c == old {
			parent.children[i] = a
			parent.children = append(parent.children, b)
			return
		}
	}
	// Not found: should not happen; append both defensively.
	parent.children = append(parent.children, a, b)
}

// tighten recomputes rectangles bottom-up. It is O(n) but only runs after
// a split-containing insertion; for bulk construction use Bulk.
func tighten(n *node) geo.Rect {
	if n.leaf {
		if len(n.entries) > 0 {
			n.rect = rectOfEntries(n.entries)
		}
		return n.rect
	}
	r := tighten(n.children[0])
	for _, c := range n.children[1:] {
		r = r.Union(tighten(c))
	}
	n.rect = r
	return r
}

func rectOfEntries(es []entry) geo.Rect {
	r := geo.Rect{Min: es[0].pt, Max: es[0].pt}
	for _, e := range es[1:] {
		r = r.ExpandToPoint(e.pt)
	}
	return r
}

func rectOfChildren(cs []*node) geo.Rect {
	r := cs[0].rect
	for _, c := range cs[1:] {
		r = r.Union(c.rect)
	}
	return r
}

// split partitions an overflowing node with Guttman's quadratic split.
func (t *Tree) split(n *node) (*node, *node) {
	if n.leaf {
		return t.splitLeaf(n)
	}
	return t.splitInternal(n)
}

func (t *Tree) splitLeaf(n *node) (*node, *node) {
	es := n.entries
	// Pick seeds: the pair wasting the most area.
	i1, i2 := quadraticSeeds(len(es), func(i, j int) float64 {
		r := geo.Rect{Min: es[i].pt, Max: es[i].pt}.ExpandToPoint(es[j].pt)
		return r.Area()
	})
	left := &node{leaf: true, entries: []entry{es[i1]}, rect: geo.Rect{Min: es[i1].pt, Max: es[i1].pt}}
	right := &node{leaf: true, entries: []entry{es[i2]}, rect: geo.Rect{Min: es[i2].pt, Max: es[i2].pt}}
	for k, e := range es {
		if k == i1 || k == i2 {
			continue
		}
		assignEntry(left, right, e, t.minEntries, len(es)-k)
	}
	return left, right
}

func (t *Tree) splitInternal(n *node) (*node, *node) {
	cs := n.children
	i1, i2 := quadraticSeeds(len(cs), func(i, j int) float64 {
		return cs[i].rect.Union(cs[j].rect).Area() - cs[i].rect.Area() - cs[j].rect.Area()
	})
	left := &node{children: []*node{cs[i1]}, rect: cs[i1].rect}
	right := &node{children: []*node{cs[i2]}, rect: cs[i2].rect}
	for k, c := range cs {
		if k == i1 || k == i2 {
			continue
		}
		assignChild(left, right, c, t.minEntries, len(cs)-k)
	}
	return left, right
}

// quadraticSeeds returns the index pair maximizing the waste function.
func quadraticSeeds(n int, waste func(i, j int) float64) (int, int) {
	bi, bj := 0, 1
	best := math.Inf(-1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if w := waste(i, j); w > best {
				best, bi, bj = w, i, j
			}
		}
	}
	return bi, bj
}

func assignEntry(left, right *node, e entry, minFill, remaining int) {
	// Force assignment if one side must take everything left to reach the
	// minimum fill.
	if len(left.entries)+remaining <= minFill {
		left.entries = append(left.entries, e)
		left.rect = left.rect.ExpandToPoint(e.pt)
		return
	}
	if len(right.entries)+remaining <= minFill {
		right.entries = append(right.entries, e)
		right.rect = right.rect.ExpandToPoint(e.pt)
		return
	}
	dl := left.rect.ExpandToPoint(e.pt).Area() - left.rect.Area()
	dr := right.rect.ExpandToPoint(e.pt).Area() - right.rect.Area()
	if dl < dr || (dl == dr && len(left.entries) <= len(right.entries)) {
		left.entries = append(left.entries, e)
		left.rect = left.rect.ExpandToPoint(e.pt)
	} else {
		right.entries = append(right.entries, e)
		right.rect = right.rect.ExpandToPoint(e.pt)
	}
}

func assignChild(left, right *node, c *node, minFill, remaining int) {
	if len(left.children)+remaining <= minFill {
		left.children = append(left.children, c)
		left.rect = left.rect.Union(c.rect)
		return
	}
	if len(right.children)+remaining <= minFill {
		right.children = append(right.children, c)
		right.rect = right.rect.Union(c.rect)
		return
	}
	dl := left.rect.Union(c.rect).Area() - left.rect.Area()
	dr := right.rect.Union(c.rect).Area() - right.rect.Area()
	if dl < dr || (dl == dr && len(left.children) <= len(right.children)) {
		left.children = append(left.children, c)
		left.rect = left.rect.Union(c.rect)
	} else {
		right.children = append(right.children, c)
		right.rect = right.rect.Union(c.rect)
	}
}

// Delete removes one entry matching (pt, item). It reports whether an entry
// was removed. Underflowing nodes are handled by re-inserting orphaned
// entries (Guttman's CondenseTree simplified for point data).
func (t *Tree) Delete(pt geo.Point, item Item) bool {
	leafPath := findLeaf(t.root, nil, pt, item)
	if leafPath == nil {
		return false
	}
	leaf := leafPath[len(leafPath)-1]
	for i, e := range leaf.entries {
		if e.pt == pt && e.item == item {
			leaf.entries = append(leaf.entries[:i], leaf.entries[i+1:]...)
			break
		}
	}
	t.size--

	// Condense: collect orphans from underflowing nodes bottom-up.
	var orphans []entry
	for i := len(leafPath) - 1; i >= 1; i-- {
		n := leafPath[i]
		parent := leafPath[i-1]
		under := (n.leaf && len(n.entries) < t.minEntries) ||
			(!n.leaf && len(n.children) < t.minEntries)
		if under {
			removeChild(parent, n)
			collectEntries(n, &orphans)
		}
	}
	tighten(t.root)
	// Shrink the root if it lost all but one child.
	for !t.root.leaf && len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
	if !t.root.leaf && len(t.root.children) == 0 {
		t.root = &node{leaf: true}
	}
	// Re-insert orphans without double counting.
	for _, e := range orphans {
		t.size--
		t.Insert(e.pt, e.item)
	}
	return true
}

func removeChild(parent, child *node) {
	for i, c := range parent.children {
		if c == child {
			parent.children = append(parent.children[:i], parent.children[i+1:]...)
			return
		}
	}
}

func collectEntries(n *node, out *[]entry) {
	if n.leaf {
		*out = append(*out, n.entries...)
		return
	}
	for _, c := range n.children {
		collectEntries(c, out)
	}
}

// findLeaf returns the root-to-leaf path to a leaf containing (pt, item),
// or nil if absent.
func findLeaf(n *node, path []*node, pt geo.Point, item Item) []*node {
	path = append(path, n)
	if n.leaf {
		for _, e := range n.entries {
			if e.pt == pt && e.item == item {
				return path
			}
		}
		return nil
	}
	for _, c := range n.children {
		if c.rect.Contains(pt) {
			if found := findLeaf(c, path, pt, item); found != nil {
				return found
			}
		}
	}
	return nil
}

// SearchRect visits every entry whose point lies in r. Returning false from
// visit stops the search early.
func (t *Tree) SearchRect(r geo.Rect, visit func(pt geo.Point, item Item) bool) {
	if t.size == 0 {
		return
	}
	searchRect(t.root, r, visit)
}

func searchRect(n *node, r geo.Rect, visit func(geo.Point, Item) bool) bool {
	if !n.rect.Intersects(r) {
		return true
	}
	if n.leaf {
		for _, e := range n.entries {
			if r.Contains(e.pt) {
				if !visit(e.pt, e.item) {
					return false
				}
			}
		}
		return true
	}
	for _, c := range n.children {
		if !searchRect(c, r, visit) {
			return false
		}
	}
	return true
}

// SearchRadius visits every entry within radius meters of center. This is
// the query the paper's indexed method issues: find the raw tuples within
// r of the query position (§2.2).
func (t *Tree) SearchRadius(center geo.Point, radius float64, visit func(pt geo.Point, item Item) bool) {
	if t.size == 0 || radius < 0 {
		return
	}
	r2 := radius * radius
	box := geo.CircleRect(center, radius)
	searchRadius(t.root, center, radius, r2, box, visit)
}

func searchRadius(n *node, center geo.Point, radius, r2 float64, box geo.Rect, visit func(geo.Point, Item) bool) bool {
	if !n.rect.Intersects(box) || n.rect.DistToPoint(center) > radius {
		return true
	}
	if n.leaf {
		for _, e := range n.entries {
			if e.pt.Dist2(center) <= r2 {
				if !visit(e.pt, e.item) {
					return false
				}
			}
		}
		return true
	}
	for _, c := range n.children {
		if !searchRadius(c, center, radius, r2, box, visit) {
			return false
		}
	}
	return true
}

// Neighbor is a kNN result.
type Neighbor struct {
	Pt   geo.Point
	Item Item
	Dist float64
}

// Nearest returns the k entries closest to center, ordered by ascending
// distance. Fewer are returned if the tree holds fewer than k entries.
func (t *Tree) Nearest(center geo.Point, k int) []Neighbor {
	if k <= 0 || t.size == 0 {
		return nil
	}
	// Best-first branch-and-bound with a simple sorted result set: k is
	// small in all our workloads.
	var best []Neighbor
	worst := func() float64 {
		if len(best) < k {
			return math.Inf(1)
		}
		return best[len(best)-1].Dist
	}
	var walk func(n *node)
	walk = func(n *node) {
		if n.rect.DistToPoint(center) > worst() {
			return
		}
		if n.leaf {
			for _, e := range n.entries {
				d := e.pt.Dist(center)
				if d >= worst() {
					continue
				}
				best = append(best, Neighbor{e.pt, e.item, d})
				sort.Slice(best, func(i, j int) bool { return best[i].Dist < best[j].Dist })
				if len(best) > k {
					best = best[:k]
				}
			}
			return
		}
		// Visit children closest-first for better pruning.
		order := make([]*node, len(n.children))
		copy(order, n.children)
		sort.Slice(order, func(i, j int) bool {
			return order[i].rect.DistToPoint(center) < order[j].rect.DistToPoint(center)
		})
		for _, c := range order {
			walk(c)
		}
	}
	walk(t.root)
	return best
}

// Bulk builds a tree over the given points and items using the
// Sort-Tile-Recursive (STR) packing algorithm, producing a tree with near
// 100% node utilization. pts and items must have equal length.
func Bulk(pts []geo.Point, items []Item, maxEntries int) (*Tree, error) {
	if len(pts) != len(items) {
		return nil, fmt.Errorf("rtree: %d points vs %d items", len(pts), len(items))
	}
	t, err := New(maxEntries)
	if err != nil {
		return nil, err
	}
	if len(pts) == 0 {
		return t, nil
	}
	es := make([]entry, len(pts))
	for i := range pts {
		es[i] = entry{pts[i], items[i]}
	}
	leaves := strPack(es, maxEntries)
	level := leaves
	for len(level) > 1 {
		level = strPackNodes(level, maxEntries)
	}
	t.root = level[0]
	t.size = len(pts)
	return t, nil
}

// strPack tiles entries into leaves of up to max entries each.
func strPack(es []entry, max int) []*node {
	n := len(es)
	numLeaves := (n + max - 1) / max
	s := int(math.Ceil(math.Sqrt(float64(numLeaves)))) // vertical slices
	sort.Slice(es, func(i, j int) bool { return es[i].pt.X < es[j].pt.X })
	sliceSize := s * max
	var leaves []*node
	for start := 0; start < n; start += sliceSize {
		end := start + sliceSize
		if end > n {
			end = n
		}
		slice := es[start:end]
		sort.Slice(slice, func(i, j int) bool { return slice[i].pt.Y < slice[j].pt.Y })
		for ls := 0; ls < len(slice); ls += max {
			le := ls + max
			if le > len(slice) {
				le = len(slice)
			}
			leafEntries := make([]entry, le-ls)
			copy(leafEntries, slice[ls:le])
			leaves = append(leaves, &node{
				leaf:    true,
				entries: leafEntries,
				rect:    rectOfEntries(leafEntries),
			})
		}
	}
	return leaves
}

// strPackNodes tiles child nodes into parents of up to max children each.
func strPackNodes(children []*node, max int) []*node {
	n := len(children)
	numParents := (n + max - 1) / max
	s := int(math.Ceil(math.Sqrt(float64(numParents))))
	sort.Slice(children, func(i, j int) bool {
		return children[i].rect.Center().X < children[j].rect.Center().X
	})
	sliceSize := s * max
	var parents []*node
	for start := 0; start < n; start += sliceSize {
		end := start + sliceSize
		if end > n {
			end = n
		}
		slice := children[start:end]
		sort.Slice(slice, func(i, j int) bool {
			return slice[i].rect.Center().Y < slice[j].rect.Center().Y
		})
		for ls := 0; ls < len(slice); ls += max {
			le := ls + max
			if le > len(slice) {
				le = len(slice)
			}
			kids := make([]*node, le-ls)
			copy(kids, slice[ls:le])
			parents = append(parents, &node{
				children: kids,
				rect:     rectOfChildren(kids),
			})
		}
	}
	return parents
}

// Depth returns the height of the tree (1 for a single leaf).
func (t *Tree) Depth() int {
	d := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		d++
	}
	return d
}

// CheckInvariants verifies structural invariants; it is used by tests and
// returns a descriptive error on the first violation found.
func (t *Tree) CheckInvariants() error {
	count, err := checkNode(t.root, t.maxEntries, true)
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("rtree: size %d but %d entries reachable", t.size, count)
	}
	return nil
}

func checkNode(n *node, max int, isRoot bool) (int, error) {
	if n.leaf {
		if len(n.entries) > max {
			return 0, fmt.Errorf("rtree: leaf with %d > %d entries", len(n.entries), max)
		}
		for _, e := range n.entries {
			if !n.rect.Contains(e.pt) {
				return 0, errors.New("rtree: leaf rect does not contain entry")
			}
		}
		return len(n.entries), nil
	}
	if len(n.children) == 0 {
		return 0, errors.New("rtree: internal node with no children")
	}
	if len(n.children) > max {
		return 0, fmt.Errorf("rtree: internal node with %d > %d children", len(n.children), max)
	}
	total := 0
	for _, c := range n.children {
		if !n.rect.Intersects(c.rect) || n.rect.Union(c.rect) != n.rect {
			return 0, errors.New("rtree: child rect escapes parent rect")
		}
		sub, err := checkNode(c, max, false)
		if err != nil {
			return 0, err
		}
		total += sub
	}
	return total, nil
}
