// Package rtree implements a static in-memory R-tree over point data:
// one Sort-Tile-Recursive (STR) packed build over a whole window, then
// radius search. It is one of the two metric-space indexing baselines the
// paper evaluates against the model cover (§2.2 "Metric Space Indexing";
// the original demo used the Python `pyrtree` package). Each entry stores
// an opaque integer item (the tuple's offset in its window). A window's
// tree is built once and never modified — windows are rebuilt as the
// stream advances — so the tree has no insertion or deletion.
//
// Only the radius processor in internal/query imports it (query.NewRTree,
// which only internal/bench builds). The serving path answers from the
// model cover and never builds one; the package stays because it is a
// baseline Figures 6 and 7(a) compare the cover against.
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

// Tree is a static R-tree over points. The zero value is not usable;
// call Bulk.
type Tree struct {
	root       *node
	size       int
	maxEntries int
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.size }

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

// Bulk builds a tree over the given points and items using the
// Sort-Tile-Recursive (STR) packing algorithm, producing a tree with near
// 100% node utilization. pts and items must have equal length, and the
// node fan-out maxEntries must be at least 4.
func Bulk(pts []geo.Point, items []Item, maxEntries int) (*Tree, error) {
	if len(pts) != len(items) {
		return nil, fmt.Errorf("rtree: %d points vs %d items", len(pts), len(items))
	}
	if maxEntries < 4 {
		return nil, fmt.Errorf("rtree: maxEntries = %d, want ≥ 4", maxEntries)
	}
	t := &Tree{root: &node{leaf: true}, maxEntries: maxEntries}
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

// CheckInvariants verifies structural invariants; it is used by tests and
// returns a descriptive error on the first violation found.
func (t *Tree) CheckInvariants() error {
	count, err := checkNode(t.root, t.maxEntries)
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("rtree: size %d but %d entries reachable", t.size, count)
	}
	return nil
}

func checkNode(n *node, max int) (int, error) {
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
		sub, err := checkNode(c, max)
		if err != nil {
			return 0, err
		}
		total += sub
	}
	return total, nil
}
