package core

import (
	"fmt"

	"repro/internal/geo"
	"repro/internal/kmeans"
	"repro/internal/tuple"
)

// This file holds the non-adaptive cover builders used as ablations of
// Ad-KMN. The paper argues (§1, §2.1) that LCSN data is geo-temporally
// skewed and that the partitioning must adapt "only when and where it is
// necessary"; these builders remove the adaptivity so benchmarks can
// quantify what it buys.

// BuildFixedKCover builds a cover with standard (non-adaptive) k-means at a
// fixed k, fitting one model per cluster. It is Ad-KMN without the
// error-driven splitting.
func BuildFixedKCover(w tuple.Batch, c int, h float64, k int, cfg Config) (*Cover, error) {
	cfg = cfg.withDefaults()
	if err := checkWindow(w, h); err != nil {
		return nil, err
	}
	if k > len(w) {
		k = len(w)
	}
	if k < 1 {
		return nil, fmt.Errorf("core: k = %d, want ≥ 1", k)
	}
	b := builders.Get().(*Builder)
	defer builders.Put(b)
	res, err := b.km.Run(b.positions(w), k, cfg.Cluster)
	if err != nil {
		return nil, fmt.Errorf("core: fixed-k clustering: %w", err)
	}
	return b.fitCover(w, c, h, res, cfg)
}

// fitCover fits one model per cluster of res and returns them as the cover
// of window c: a build without split rounds.
func (b *Builder) fitCover(w tuple.Batch, c int, h float64, res *kmeans.Result, cfg Config) (*Cover, error) {
	b.reserve(len(w), len(res.Centroids), cfg.Features.Dim())
	if err := b.fitRegions(w, res, cfg, normalSpanFor(w, cfg)); err != nil {
		return nil, err
	}
	return b.cover(w, c, h, cfg), nil
}

// BuildGridCover partitions the window's bounding box into a uniform
// cells×cells grid and fits one model per non-empty cell, with the cell
// center as the centroid. Grids ignore the skew of bus-route data: most
// cells are empty or sparse while route corridors are dense.
func BuildGridCover(w tuple.Batch, c int, h float64, cells int, cfg Config) (*Cover, error) {
	cfg = cfg.withDefaults()
	if err := checkWindow(w, h); err != nil {
		return nil, err
	}
	if cells < 1 {
		return nil, fmt.Errorf("core: cells = %d, want ≥ 1", cells)
	}
	bounds, _ := w.Bounds()
	// Inflate slightly so max-edge points land inside the last cell.
	bounds = bounds.Inflate(1e-9 * (1 + bounds.Perimeter()))
	cw := (bounds.Max.X - bounds.Min.X) / float64(cells)
	ch := (bounds.Max.Y - bounds.Min.Y) / float64(cells)
	if cw == 0 {
		cw = 1
	}
	if ch == 0 {
		ch = 1
	}

	cellOf := func(p geo.Point) int {
		cx := int((p.X - bounds.Min.X) / cw)
		cy := int((p.Y - bounds.Min.Y) / ch)
		if cx >= cells {
			cx = cells - 1
		}
		if cy >= cells {
			cy = cells - 1
		}
		if cx < 0 {
			cx = 0
		}
		if cy < 0 {
			cy = 0
		}
		return cy*cells + cx
	}

	// Reuse fitRegions by synthesizing a kmeans.Result whose "centroids"
	// are cell centers and assignments are cell indices.
	centroids := make([]geo.Point, cells*cells)
	for cy := 0; cy < cells; cy++ {
		for cx := 0; cx < cells; cx++ {
			centroids[cy*cells+cx] = geo.Point{
				X: bounds.Min.X + (float64(cx)+0.5)*cw,
				Y: bounds.Min.Y + (float64(cy)+0.5)*ch,
			}
		}
	}
	assign := make([]int, len(w))
	for i, r := range w {
		assign[i] = cellOf(r.Pos())
	}
	b := builders.Get().(*Builder)
	defer builders.Put(b)
	return b.fitCover(w, c, h, &kmeans.Result{Centroids: centroids, Assign: assign}, cfg)
}
