// Package query implements the paper's continuous-value query processing
// (§2.2). A mobile object v_q transmits query tuples q_l = (t_l, x_l, y_l)
// and the server interpolates the sensor value ŝ_l at that position. Four
// interchangeable processors answer the query:
//
//   - Naive: exhaustive scan of the window for raw tuples within radius r,
//     averaging their values.
//   - R-tree and VP-tree: the same semantics with the radius search served
//     by a metric-space index ("Metric Space Indexing").
//   - Model cover: nearest centroid µ*, evaluate its model M* ("Model
//     Cover") — the paper's contribution.
//
// All processors are built over one window W_c and are safe for concurrent
// queries after construction.
package query

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/index/rtree"
	"repro/internal/index/vptree"
	"repro/internal/tuple"
)

// Q is a query tuple q_l = (t_l, x_l, y_l).
type Q struct {
	T float64 // query time t_l
	X float64 // x_l
	Y float64 // y_l
}

// Pos returns the query position (x_l, y_l).
func (q Q) Pos() geo.Point { return geo.Point{X: q.X, Y: q.Y} }

// ErrNoData is returned when no raw tuple lies within the query radius, so
// an average-based method has nothing to interpolate from.
var ErrNoData = errors.New("query: no raw tuples within radius")

// Processor interpolates sensor values at query positions.
type Processor interface {
	// Name identifies the method in benchmark output.
	Name() string
	// Interpolate returns ŝ_l for the query tuple.
	Interpolate(q Q) (float64, error)
}

// Naive answers queries by exhaustively scanning the window (§2.2
// "Naïve"): every raw tuple within radius r of (x_l, y_l) contributes to
// an unweighted average.
type Naive struct {
	window tuple.Batch
	radius float64
}

// NewNaive builds a naive processor over the window with query radius r
// in meters.
func NewNaive(w tuple.Batch, r float64) (*Naive, error) {
	if r <= 0 {
		return nil, fmt.Errorf("query: radius %v, want > 0", r)
	}
	return &Naive{window: w, radius: r}, nil
}

// Name implements Processor.
func (n *Naive) Name() string { return "naive" }

// Interpolate implements Processor.
func (n *Naive) Interpolate(q Q) (float64, error) {
	center := q.Pos()
	r2 := n.radius * n.radius
	var sum float64
	var count int
	for _, b := range n.window {
		if b.Pos().Dist2(center) <= r2 {
			sum += b.S
			count++
		}
	}
	if count == 0 {
		return 0, ErrNoData
	}
	return sum / float64(count), nil
}

// RTree answers queries with an R-tree radius search over the window.
type RTree struct {
	window tuple.Batch
	tree   *rtree.Tree
	radius float64
}

// NewRTree builds the index over the window. The tree is bulk-loaded
// (STR), matching how a per-window index would be built in practice.
func NewRTree(w tuple.Batch, r float64) (*RTree, error) {
	return NewRTreeFanout(w, r, rtree.DefaultMaxEntries)
}

// NewRTreeFanout is NewRTree with an explicit node fan-out, used by the
// index-tuning ablation.
func NewRTreeFanout(w tuple.Batch, r float64, fanout int) (*RTree, error) {
	if r <= 0 {
		return nil, fmt.Errorf("query: radius %v, want > 0", r)
	}
	items := make([]rtree.Item, len(w))
	for i := range items {
		items[i] = rtree.Item(i)
	}
	t, err := rtree.Bulk(w.Positions(), items, fanout)
	if err != nil {
		return nil, fmt.Errorf("query: build r-tree: %w", err)
	}
	return &RTree{window: w, tree: t, radius: r}, nil
}

// Name implements Processor.
func (p *RTree) Name() string { return "r-tree" }

// Interpolate implements Processor.
func (p *RTree) Interpolate(q Q) (float64, error) {
	var sum float64
	var count int
	p.tree.SearchRadius(q.Pos(), p.radius, func(_ geo.Point, it rtree.Item) bool {
		sum += p.window[it].S
		count++
		return true
	})
	if count == 0 {
		return 0, ErrNoData
	}
	return sum / float64(count), nil
}

// VPTree answers queries with a vantage-point-tree radius search.
type VPTree struct {
	window tuple.Batch
	tree   *vptree.Tree
	radius float64
}

// NewVPTree builds the index over the window.
func NewVPTree(w tuple.Batch, r float64) (*VPTree, error) {
	if r <= 0 {
		return nil, fmt.Errorf("query: radius %v, want > 0", r)
	}
	items := make([]vptree.Item, len(w))
	for i := range items {
		items[i] = vptree.Item(i)
	}
	t, err := vptree.Build(w.Positions(), items)
	if err != nil {
		return nil, fmt.Errorf("query: build vp-tree: %w", err)
	}
	return &VPTree{window: w, tree: t, radius: r}, nil
}

// Name implements Processor.
func (p *VPTree) Name() string { return "vp-tree" }

// Interpolate implements Processor.
func (p *VPTree) Interpolate(q Q) (float64, error) {
	var sum float64
	var count int
	p.tree.SearchRadius(q.Pos(), p.radius, func(_ geo.Point, it vptree.Item) bool {
		sum += p.window[it].S
		count++
		return true
	})
	if count == 0 {
		return 0, ErrNoData
	}
	return sum / float64(count), nil
}

// Cover answers queries by evaluating the model cover (§2.2 "Model
// Cover"): nearest centroid, then model prediction. This is the method
// whose efficiency, accuracy, and memory the paper's evaluation
// demonstrates.
type Cover struct {
	cover *core.Cover
}

// NewCover wraps a built model cover as a processor.
func NewCover(cv *core.Cover) (*Cover, error) {
	if cv == nil || cv.Size() == 0 {
		return nil, errors.New("query: nil or empty cover")
	}
	return &Cover{cover: cv}, nil
}

// Name implements Processor.
func (p *Cover) Name() string { return "ad-kmn" }

// Interpolate implements Processor.
func (p *Cover) Interpolate(q Q) (float64, error) {
	return p.cover.Interpolate(q.T, q.X, q.Y)
}

// CoverModel exposes the underlying cover for the memory experiment.
func (p *Cover) CoverModel() *core.Cover { return p.cover }
