package heatmap

// Edge-case coverage for the rasterizer: empty/degenerate regions,
// single-cell grids, out-of-window evaluation times, and regions far
// outside the data bounds — the shapes a cluster scatter-gather can
// legitimately produce.

import (
	"math"
	"testing"

	"repro/internal/geo"
)

func TestFromCoverEmptyRegion(t *testing.T) {
	cv := testCover(t)
	// A point region (Min == Max) has zero area.
	pt := geo.Rect{Min: geo.Point{X: 5, Y: 5}, Max: geo.Point{X: 5, Y: 5}}
	if _, err := FromCover(cv, pt, 4, 4, 300); err == nil {
		t.Error("zero-area (point) region rasterized")
	}
	// A corridor degenerate in one axis also has zero area.
	line := geo.Rect{Min: geo.Point{X: 0, Y: 10}, Max: geo.Point{X: 100, Y: 10}}
	if _, err := FromCover(cv, line, 4, 4, 300); err == nil {
		t.Error("zero-area (line) region rasterized")
	}
	// An inverted region is invalid outright.
	inv := geo.Rect{Min: geo.Point{X: 10, Y: 10}, Max: geo.Point{X: 0, Y: 0}}
	if _, err := FromCover(cv, inv, 4, 4, 300); err == nil {
		t.Error("inverted region rasterized")
	}
}

func TestFromCoverSingleCellGrid(t *testing.T) {
	cv := testCover(t)
	g, err := FromCover(cv, region(), 1, 1, 300)
	if err != nil {
		t.Fatal(err)
	}
	if g.Cols != 1 || g.Rows != 1 || len(g.Values) != 1 {
		t.Fatalf("1x1 grid came back %dx%d with %d values", g.Cols, g.Rows, len(g.Values))
	}
	// The lone cell samples the region center.
	c := region().Center()
	want, err := cv.Interpolate(300, c.X, c.Y)
	if err != nil {
		t.Fatal(err)
	}
	if g.Values[0] != want {
		t.Fatalf("single cell = %v, center interpolation = %v", g.Values[0], want)
	}
	if v, err := g.At(0, 0); err != nil || v != want {
		t.Fatalf("At(0,0) = %v, %v", v, err)
	}
	min, max := g.MinMax()
	if min != want || max != want {
		t.Fatalf("MinMax of one cell = (%v, %v), want (%v, %v)", min, max, want, want)
	}
}

func TestGridAtOutsideBounds(t *testing.T) {
	cv := testCover(t)
	g, err := FromCover(cv, region(), 3, 2, 300)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][2]int{{-1, 0}, {0, -1}, {3, 0}, {0, 2}, {-1, -1}, {3, 2}} {
		if _, err := g.At(bad[0], bad[1]); err == nil {
			t.Errorf("At(%d,%d) on a 3x2 grid succeeded", bad[0], bad[1])
		}
	}
	// Every in-bounds cell is reachable.
	for j := 0; j < 2; j++ {
		for i := 0; i < 3; i++ {
			if _, err := g.At(i, j); err != nil {
				t.Errorf("At(%d,%d): %v", i, j, err)
			}
		}
	}
}

// TestFromCoverOutOfWindowTime locks the extrapolation contract: a
// cover evaluated outside its validity window still rasterizes (the
// models extrapolate linearly) but every value stays clamped to the
// cover's physical range, so a stale heatmap can look dated yet never
// unphysical.
func TestFromCoverOutOfWindowTime(t *testing.T) {
	cv := testCover(t) // valid over [0, 600)
	for _, tt := range []float64{-600, 1e6} {
		g, err := FromCover(cv, region(), 8, 8, tt)
		if err != nil {
			t.Fatalf("t=%v: %v", tt, err)
		}
		for i, v := range g.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("t=%v: cell %d is %v", tt, i, v)
			}
			if cv.ValueLo < cv.ValueHi && (v < cv.ValueLo || v > cv.ValueHi) {
				t.Fatalf("t=%v: cell %d = %v escapes clamp [%v, %v]", tt, i, v, cv.ValueLo, cv.ValueHi)
			}
		}
	}
}

// TestFromCoverRegionOutsideData rasterizes a region far from every
// sample: nearest-centroid evaluation still answers (the cover has no
// spatial cutoff) and the clamp keeps the values physical.
func TestFromCoverRegionOutsideData(t *testing.T) {
	cv := testCover(t)
	far := geo.Rect{Min: geo.Point{X: 1e6, Y: 1e6}, Max: geo.Point{X: 1e6 + 100, Y: 1e6 + 100}}
	g, err := FromCover(cv, far, 2, 2, 300)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range g.Values {
		if cv.ValueLo < cv.ValueHi && (v < cv.ValueLo || v > cv.ValueHi) {
			t.Fatalf("cell %d = %v escapes clamp [%v, %v]", i, v, cv.ValueLo, cv.ValueHi)
		}
	}
}

func TestMarkersNilAndEmpty(t *testing.T) {
	if _, err := Markers(nil, 0); err == nil {
		t.Error("nil cover produced markers")
	}
	if _, err := FromCover(nil, region(), 2, 2, 0); err == nil {
		t.Error("nil cover rasterized")
	}
}
