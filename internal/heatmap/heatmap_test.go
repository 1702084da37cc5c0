package heatmap

import (
	"bytes"
	"image/png"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/geo"
	"repro/internal/kmeans"
	"repro/internal/regress"
	"repro/internal/tuple"
)

func testCover(t *testing.T) *core.Cover {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	w := make(tuple.Batch, 400)
	for i := range w {
		x, y := rng.Float64()*2000, rng.Float64()*2000
		// A gradient from ~420 to ~2000 ppm across the region so multiple
		// display bands appear.
		w[i] = tuple.Raw{T: rng.Float64() * 600, X: x, Y: y, S: 420 + 0.8*x}
	}
	cv, err := core.BuildCover(w, 0, 600, core.Config{Cluster: kmeans.Config{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	return cv
}

func region() geo.Rect {
	return geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 2000, Y: 2000}}
}

func TestFromCoverValidation(t *testing.T) {
	cv := testCover(t)
	if _, err := FromCover(nil, region(), 8, 8, 0); err == nil {
		t.Error("nil cover should error")
	}
	if _, err := FromCover(cv, region(), 0, 8, 0); err == nil {
		t.Error("zero cols should error")
	}
	if _, err := FromCover(cv, geo.Rect{}, 8, 8, 0); err == nil {
		t.Error("degenerate region should error")
	}
}

func TestGridValuesFollowGradient(t *testing.T) {
	cv := testCover(t)
	g, err := FromCover(cv, region(), 16, 16, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Values) != 256 {
		t.Fatalf("values = %d, want 256", len(g.Values))
	}
	// West edge (low x) must be lower than east edge (high x).
	west, err := g.At(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	east, err := g.At(15, 8)
	if err != nil {
		t.Fatal(err)
	}
	if west >= east {
		t.Errorf("gradient not reproduced: west %v, east %v", west, east)
	}
	min, max := g.MinMax()
	if min >= max {
		t.Errorf("MinMax = %v,%v", min, max)
	}
}

func TestGridAtBounds(t *testing.T) {
	cv := testCover(t)
	g, err := FromCover(cv, region(), 4, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][2]int{{-1, 0}, {0, -1}, {4, 0}, {0, 4}} {
		if _, err := g.At(bad[0], bad[1]); err == nil {
			t.Errorf("At(%d,%d) should error", bad[0], bad[1])
		}
	}
}

func TestWritePNG(t *testing.T) {
	cv := testCover(t)
	g, err := FromCover(cv, region(), 32, 24, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WritePNG(&buf, tuple.CO2); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatalf("output is not a valid PNG: %v", err)
	}
	b := img.Bounds()
	if b.Dx() != 32 || b.Dy() != 24 {
		t.Errorf("image is %dx%d, want 32x24", b.Dx(), b.Dy())
	}
}

func TestMarkers(t *testing.T) {
	cv := testCover(t)
	ms, err := Markers(cv, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != cv.Size() {
		t.Fatalf("markers = %d, want %d", len(ms), cv.Size())
	}
	for i, m := range ms {
		if m.Band == "" {
			t.Errorf("marker %d has no band", i)
		}
		if m.Pos != cv.Centroids[i] {
			t.Errorf("marker %d at %v, want centroid %v", i, m.Pos, cv.Centroids[i])
		}
	}
	if _, err := Markers(nil, 0); err == nil {
		t.Error("nil cover should error")
	}
}

// TestPollutantBands: markers and PNG pixels are banded on their
// pollutant's scale. One PM region at 300 µg/m³ is "poor" on PM's, where
// CO2's would read "fresh"; the same cover tagged CO2 keeps CO2's bands.
func TestPollutantBands(t *testing.T) {
	for _, tc := range []struct {
		pol  tuple.Pollutant
		want eval.CO2Band
	}{{tuple.PM, eval.BandPoor}, {tuple.CO2, eval.BandFresh}} {
		cv := &core.Cover{Pollutant: tc.pol, ValidUntil: 600, Features: regress.Constant,
			Centroids: []geo.Point{{X: 1000, Y: 1000}}, Coefs: []float64{300}}
		ms, err := Markers(cv, 100)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 1 || ms[0].Band != tc.want.String() {
			t.Errorf("%v markers %+v, want one banded %v", tc.pol, ms, tc.want)
		}
		g, err := FromCover(cv, region(), 3, 2, 100)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := g.WritePNG(&buf, tc.pol); err != nil {
			t.Fatal(err)
		}
		img, err := png.Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		wr, wg, wb := tc.want.Color()
		if r, g, b, _ := img.At(1, 1).RGBA(); uint8(r>>8) != wr || uint8(g>>8) != wg || uint8(b>>8) != wb {
			t.Errorf("%v pixel = #%02x%02x%02x, want %v's #%02x%02x%02x", tc.pol, r>>8, g>>8, b>>8, tc.want, wr, wg, wb)
		}
	}
}
