// Package heatmap renders pollutant heatmaps from a model cover — the
// programmatic equivalent of the EnviroMeter web interface's heatmap
// visualization (§3, Figure 5b), where "the emitting points are the
// centroids computed by the Ad-KMN algorithm with its pollution level" on
// a green-to-red scale.
package heatmap

import (
	"errors"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/geo"
	"repro/internal/tuple"
)

// Grid is a rasterized heatmap: cell (i, j) covers a rectangle of the
// region, with Values[j*Cols+i] holding the interpolated concentration at
// the cell center.
type Grid struct {
	// Region is the geographic extent.
	Region geo.Rect
	// Cols and Rows are the raster dimensions.
	Cols, Rows int
	// T is the stream time the map was evaluated at.
	T float64
	// Values holds concentrations in row-major order, bottom row first
	// (south at index 0).
	Values []float64
}

// FromCover rasterizes the cover over region at stream time t into a new
// grid.
func FromCover(cv *core.Cover, region geo.Rect, cols, rows int, t float64) (*Grid, error) {
	g := new(Grid)
	if err := Render(g, cv, region, cols, rows, t); err != nil {
		return nil, err
	}
	return g, nil
}

// Render rasterizes the cover over region at stream time t into g,
// overwriting every field and reusing the capacity of g.Values: a caller
// that renders many rasters of one size through the same grid allocates
// nothing after the first. On an error g is left undefined.
func Render(g *Grid, cv *core.Cover, region geo.Rect, cols, rows int, t float64) error {
	if cv == nil || cv.Size() == 0 {
		return errors.New("heatmap: nil or empty cover")
	}
	if cols < 1 || rows < 1 {
		return fmt.Errorf("heatmap: grid %dx%d, want ≥ 1x1", cols, rows)
	}
	if !region.Valid() || region.Area() == 0 {
		return fmt.Errorf("heatmap: degenerate region %v", region)
	}
	vals := g.Values
	if n := cols * rows; cap(vals) < n {
		vals = make([]float64, n)
	} else {
		vals = vals[:n]
	}
	*g = Grid{Region: region, Cols: cols, Rows: rows, T: t, Values: vals}
	dx := (region.Max.X - region.Min.X) / float64(cols)
	dy := (region.Max.Y - region.Min.Y) / float64(rows)
	for j := 0; j < rows; j++ {
		y := region.Min.Y + (float64(j)+0.5)*dy
		for i := 0; i < cols; i++ {
			x := region.Min.X + (float64(i)+0.5)*dx
			v, err := cv.Interpolate(t, x, y)
			if err != nil {
				return err
			}
			vals[j*cols+i] = v
		}
	}
	return nil
}

// At returns the value of cell (i, j).
func (g *Grid) At(i, j int) (float64, error) {
	if i < 0 || i >= g.Cols || j < 0 || j >= g.Rows {
		return 0, fmt.Errorf("heatmap: cell (%d,%d) outside %dx%d", i, j, g.Cols, g.Rows)
	}
	return g.Values[j*g.Cols+i], nil
}

// MinMax returns the smallest and largest cell values.
func (g *Grid) MinMax() (min, max float64) {
	min, max = math.Inf(1), math.Inf(-1)
	for _, v := range g.Values {
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	return min, max
}

// WritePNG renders the grid as a PNG image on the app's green→red band
// scale, banded as pollutant p is (eval.ClassifyPollutant). North is at
// the top of the image.
func (g *Grid) WritePNG(w io.Writer, p tuple.Pollutant) error {
	img := image.NewRGBA(image.Rect(0, 0, g.Cols, g.Rows))
	for j := 0; j < g.Rows; j++ {
		for i := 0; i < g.Cols; i++ {
			v := g.Values[j*g.Cols+i]
			r, gr, b := eval.ClassifyPollutant(p, v).Color()
			// Flip vertically: row 0 is south, image origin is north-west.
			img.SetRGBA(i, g.Rows-1-j, color.RGBA{R: r, G: gr, B: b, A: 0xFF})
		}
	}
	return png.Encode(w, img)
}

// CentroidMarker is one emitting point of the web UI: a cover centroid
// with its local pollution level and display band.
type CentroidMarker struct {
	Pos   geo.Point `json:"pos"`
	Value float64   `json:"value"`
	Band  string    `json:"band"`
}

// Markers returns the cover's centroids evaluated at time t — the emitting
// points of Figure 5(b).
func Markers(cv *core.Cover, t float64) ([]CentroidMarker, error) {
	var out []CentroidMarker
	if err := EachMarker(cv, t, func(m CentroidMarker) { out = append(out, m) }); err != nil {
		return nil, err
	}
	return out, nil
}

// EachMarker calls f with each of Markers' markers in centroid order,
// without collecting them: a caller that writes markers as they come
// allocates nothing for them. A marker's band is the cover pollutant's.
func EachMarker(cv *core.Cover, t float64, f func(CentroidMarker)) error {
	if cv == nil || cv.Size() == 0 {
		return errors.New("heatmap: nil or empty cover")
	}
	for i, c := range cv.Centroids {
		v := cv.Model(i).Predict(t, c.X, c.Y)
		f(CentroidMarker{Pos: c, Value: v, Band: eval.ClassifyPollutant(cv.Pollutant, v).String()})
	}
	return nil
}
