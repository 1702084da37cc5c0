package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/regress"
	"repro/internal/tuple"
)

// twoZoneWindow builds a window with two spatially separated zones whose
// CO2 fields follow different linear surfaces, so a 2-region linear cover
// can be near exact.
func twoZoneWindow(rng *rand.Rand, n int) tuple.Batch {
	w := make(tuple.Batch, 0, n)
	for i := 0; i < n; i++ {
		t := rng.Float64() * 1000
		if i%2 == 0 {
			x := rng.Float64() * 1000
			y := rng.Float64() * 1000
			w = append(w, tuple.Raw{T: t, X: x, Y: y, S: 420 + 0.05*x + 0.02*y})
		} else {
			x := 8000 + rng.Float64()*1000
			y := 8000 + rng.Float64()*1000
			w = append(w, tuple.Raw{T: t, X: x, Y: y, S: 900 - 0.03*(x-8000) + 0.01*(y-8000)})
		}
	}
	return w
}

// bumpyWindow builds a window with a sharp local CO2 hotspot that a
// 2-region linear cover cannot capture, forcing Ad-KMN to split.
func bumpyWindow(rng *rand.Rand, n int) tuple.Batch {
	w := make(tuple.Batch, 0, n)
	for i := 0; i < n; i++ {
		x := rng.Float64() * 4000
		y := rng.Float64() * 4000
		// Hotspot at (1000, 1000) with 300 m scale and +1500 ppm peak.
		dx, dy := x-1000, y-1000
		s := 420 + 1500*math.Exp(-(dx*dx+dy*dy)/(2*300*300))
		w = append(w, tuple.Raw{T: rng.Float64() * 1000, X: x, Y: y, S: s})
	}
	return w
}

func TestBuildCoverValidation(t *testing.T) {
	if _, err := BuildCover(nil, 0, 100, Config{}); err == nil {
		t.Error("expected error for empty window")
	}
	w := tuple.Batch{{T: 1, S: 400}}
	if _, err := BuildCover(w, 0, 0, Config{}); err == nil {
		t.Error("expected error for zero window length")
	}
}

func TestBuildCoverSinglePoint(t *testing.T) {
	w := tuple.Batch{{T: 50, X: 10, Y: 20, S: 480}}
	cv, err := BuildCover(w, 0, 100, Config{Cluster: clusterSeed(1)})
	if err != nil {
		t.Fatal(err)
	}
	if cv.Size() != 1 {
		t.Fatalf("Size = %d, want 1", cv.Size())
	}
	got, err := cv.Interpolate(50, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-480) > 1 {
		t.Errorf("Interpolate = %v, want ~480", got)
	}
}

func TestBuildCoverTwoZones(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := twoZoneWindow(rng, 400)
	cv, err := BuildCover(w, 0, 1000, Config{Cluster: clusterSeed(2)})
	if err != nil {
		t.Fatal(err)
	}
	// Piecewise-linear data: two regions suffice, adaptation shouldn't
	// blow the cover up.
	if cv.Size() < 2 || cv.Size() > 8 {
		t.Errorf("Size = %d, want small (2..8)", cv.Size())
	}
	if cv.MaxApproxError() > 0.02 {
		t.Errorf("MaxApproxError = %v, want ≤ τn = 0.02", cv.MaxApproxError())
	}
	// Interpolation accuracy in both zones.
	tests := []struct {
		x, y, want float64
	}{
		{500, 500, 420 + 0.05*500 + 0.02*500},
		{8500, 8500, 900 - 0.03*500 + 0.01*500},
	}
	for _, tt := range tests {
		got, err := cv.Interpolate(500, tt.x, tt.y)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tt.want) > 25 {
			t.Errorf("Interpolate(%v,%v) = %v, want ~%v", tt.x, tt.y, got, tt.want)
		}
	}
}

func TestAdKMNSplitsOnHotspot(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := bumpyWindow(rng, 800)
	fixed, err := BuildFixedKCover(w, 0, 1000, 2, Config{Cluster: clusterSeed(4)})
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := BuildCover(w, 0, 1000, Config{Cluster: clusterSeed(4)})
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Size() <= fixed.Size() {
		t.Errorf("Ad-KMN should split beyond the initial k: adaptive=%d fixed=%d",
			adaptive.Size(), fixed.Size())
	}
	if adaptive.Rounds == 0 {
		t.Error("Ad-KMN performed no split rounds on hotspot data")
	}
	if adaptive.MeanApproxError() >= fixed.MeanApproxError() {
		t.Errorf("adaptive error %v should beat fixed-k error %v",
			adaptive.MeanApproxError(), fixed.MeanApproxError())
	}
}

func TestAdKMNRespectsMaxK(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := bumpyWindow(rng, 600)
	cfg := Config{MaxK: 5, ErrThreshold: 1e-9, Cluster: clusterSeed(6)}
	cv, err := BuildCover(w, 0, 1000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cv.Size() > 5 {
		t.Errorf("Size = %d exceeds MaxK = 5", cv.Size())
	}
}

func TestAdKMNStopsWhenThresholdMet(t *testing.T) {
	// Perfectly linear, well-conditioned data (time and y decorrelated
	// from x): the initial 2 regions already satisfy τn, so no rounds
	// should run.
	w := make(tuple.Batch, 100)
	for i := range w {
		x := float64(i * 10)
		w[i] = tuple.Raw{
			T: float64((i * 37) % 97),
			X: x,
			Y: float64((i * 13) % 50),
			S: 400 + 0.01*x,
		}
	}
	cv, err := BuildCover(w, 0, 1000, Config{Cluster: clusterSeed(7)})
	if err != nil {
		t.Fatal(err)
	}
	if cv.Rounds != 0 {
		t.Errorf("Rounds = %d, want 0 for data the initial fit captures", cv.Rounds)
	}
	if cv.Size() != 2 {
		t.Errorf("Size = %d, want the initial 2", cv.Size())
	}
}

func TestCoverValidity(t *testing.T) {
	w := tuple.Batch{{T: 250, X: 1, Y: 1, S: 400}}
	cv, err := BuildCover(w, 2, 100, Config{Cluster: clusterSeed(8)})
	if err != nil {
		t.Fatal(err)
	}
	if cv.ValidFrom != 200 || cv.ValidUntil != 300 {
		t.Errorf("validity = [%v,%v], want [200,300]", cv.ValidFrom, cv.ValidUntil)
	}
	if !cv.ValidAt(250) || !cv.ValidAt(200) || !cv.ValidAt(300) {
		t.Error("cover should be valid inside its window")
	}
	if cv.ValidAt(199.9) || cv.ValidAt(300.1) {
		t.Error("cover should be invalid outside its window")
	}
}

func TestNearestRegionAndEmptyCover(t *testing.T) {
	var empty Cover
	if empty.NearestRegion(geo.Point{}) != -1 {
		t.Error("empty cover NearestRegion should be -1")
	}
	if _, err := empty.Interpolate(0, 0, 0); !errors.Is(err, ErrEmptyCover) {
		t.Errorf("want ErrEmptyCover, got %v", err)
	}

	cv := Cover{
		Features:  regress.Constant,
		Centroids: []geo.Point{{X: 0}, {X: 1000}},
		Coefs:     []float64{100, 200},
	}
	if got := cv.NearestRegion(geo.Point{X: 100}); got != 0 {
		t.Errorf("NearestRegion = %d, want 0", got)
	}
	if got := cv.NearestRegion(geo.Point{X: 900}); got != 1 {
		t.Errorf("NearestRegion = %d, want 1", got)
	}
	v, err := cv.Interpolate(0, 900, 0)
	if err != nil || v != 200 {
		t.Errorf("Interpolate = %v,%v want 200,nil", v, err)
	}
}

func TestCentroidsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	w := twoZoneWindow(rng, 200)
	cv, err := BuildCover(w, 0, 1000, Config{Cluster: clusterSeed(10)})
	if err != nil {
		t.Fatal(err)
	}
	// Every column holds one entry per region, in the centroids' order:
	// region j's model is the one NearestRegion picks at µ_j.
	k, d := cv.Size(), cv.Features.Dim()
	if len(cv.Coefs) != k*d || len(cv.ApproxErrors) != k || len(cv.N) != k {
		t.Fatalf("%d regions: %d coefficients (d = %d), %d errors, %d counts",
			k, len(cv.Coefs), d, len(cv.ApproxErrors), len(cv.N))
	}
	for j, c := range cv.Centroids {
		if got := cv.NearestRegion(c); got != j {
			t.Errorf("NearestRegion(µ_%d) = %d", j, got)
		}
		want := cv.Coefs[j*d : (j+1)*d]
		if got := cv.Model(j).Coef(); !slices.Equal(got, want) {
			t.Errorf("Model(%d) coefficients %v, column holds %v", j, got, want)
		}
	}
}

func TestErrorNormalizationSpans(t *testing.T) {
	w := make(tuple.Batch, 50)
	rng := rand.New(rand.NewSource(11))
	for i := range w {
		w[i] = tuple.Raw{T: float64(i), X: rng.Float64() * 100, Y: rng.Float64() * 100,
			S: 10 + rng.NormFloat64()*5}
	}
	// The same absolute error is a smaller fraction of a wider span.
	wide, err := BuildCover(w, 0, 1000, Config{
		NormalSpan: 5000, InitialK: 1, MaxK: 1, Cluster: clusterSeed(12)})
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := BuildCover(w, 0, 1000, Config{
		NormalSpan: 50, InitialK: 1, MaxK: 1, Cluster: clusterSeed(12)})
	if err != nil {
		t.Fatal(err)
	}
	if wide.MeanApproxError() >= narrow.MeanApproxError() {
		t.Errorf("wide-span error %v should be below narrow-span %v",
			wide.MeanApproxError(), narrow.MeanApproxError())
	}
	if got := 100 * wide.MeanApproxError() / narrow.MeanApproxError(); math.Abs(got-1) > 1e-9 {
		t.Errorf("span ratio not linear: %v", got)
	}
}

func TestDefaultNormalSpanIsObservedRange(t *testing.T) {
	// Two windows with the same shape but different value spread: with the
	// default (observed-range) normalization, their error fractions match.
	mk := func(scale float64) tuple.Batch {
		w := make(tuple.Batch, 60)
		rng := rand.New(rand.NewSource(13))
		for i := range w {
			w[i] = tuple.Raw{T: float64(i), X: rng.Float64() * 100, Y: rng.Float64() * 100,
				S: 400 + scale*rng.NormFloat64()}
		}
		return w
	}
	a, err := BuildCover(mk(5), 0, 1000, Config{InitialK: 1, MaxK: 1, Cluster: clusterSeed(14)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildCover(mk(50), 0, 1000, Config{InitialK: 1, MaxK: 1, Cluster: clusterSeed(14)})
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := a.MeanApproxError(), b.MeanApproxError()
	if math.Abs(ra-rb)/rb > 1e-9 {
		t.Errorf("scale-invariant normalization violated: %v vs %v", ra, rb)
	}
	// A constant window falls back to the pollutant range rather than
	// dividing by zero.
	flat := make(tuple.Batch, 10)
	for i := range flat {
		flat[i] = tuple.Raw{T: float64(i), X: float64(i), Y: 0, S: 500}
	}
	cv, err := BuildCover(flat, 0, 1000, Config{InitialK: 1, MaxK: 1, Cluster: clusterSeed(15)})
	if err != nil {
		t.Fatal(err)
	}
	if cv.MeanApproxError() > 1e-6 {
		t.Errorf("constant window error = %v, want ≈0", cv.MeanApproxError())
	}
}

func TestBuildGridCover(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	w := twoZoneWindow(rng, 300)
	cv, err := BuildGridCover(w, 0, 1000, 4, Config{Cluster: clusterSeed(14)})
	if err != nil {
		t.Fatal(err)
	}
	// Two-zone data occupies 2 of 16 cells; empty cells are dropped.
	if cv.Size() < 2 || cv.Size() > 16 {
		t.Errorf("grid cover Size = %d", cv.Size())
	}
	v, err := cv.Interpolate(500, 500, 500)
	if err != nil {
		t.Fatal(err)
	}
	want := 420 + 0.05*500 + 0.02*500
	if math.Abs(v-want) > 50 {
		t.Errorf("grid Interpolate = %v, want ~%v", v, want)
	}
	if _, err := BuildGridCover(w, 0, 1000, 0, Config{}); err == nil {
		t.Error("expected error for cells=0")
	}
	if _, err := BuildGridCover(nil, 0, 1000, 4, Config{}); err == nil {
		t.Error("expected error for empty window")
	}
}

func TestBuildFixedKCoverValidation(t *testing.T) {
	w := tuple.Batch{{T: 1, X: 1, Y: 1, S: 400}}
	if _, err := BuildFixedKCover(w, 0, 100, 0, Config{}); err == nil {
		t.Error("expected error for k=0")
	}
	if _, err := BuildFixedKCover(nil, 0, 100, 2, Config{}); err == nil {
		t.Error("expected error for empty window")
	}
	// k > n clamps to n.
	cv, err := BuildFixedKCover(w, 0, 100, 10, Config{Cluster: clusterSeed(15)})
	if err != nil {
		t.Fatal(err)
	}
	if cv.Size() != 1 {
		t.Errorf("Size = %d, want 1", cv.Size())
	}
}

func TestAdaptiveBeatsGridAtEqualBudget(t *testing.T) {
	// The DESIGN.md ablation: on skewed hotspot data, Ad-KMN at its chosen
	// size should have lower error than a grid with at least as many
	// models.
	rng := rand.New(rand.NewSource(16))
	w := bumpyWindow(rng, 1000)
	ad, err := BuildCover(w, 0, 1000, Config{MaxK: 16, Cluster: clusterSeed(17)})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := BuildGridCover(w, 0, 1000, 4, Config{Cluster: clusterSeed(17)}) // 16 cells
	if err != nil {
		t.Fatal(err)
	}
	if ad.MeanApproxError() >= grid.MeanApproxError() {
		t.Errorf("Ad-KMN error %v should beat grid error %v (sizes %d vs %d)",
			ad.MeanApproxError(), grid.MeanApproxError(), ad.Size(), grid.Size())
	}
}
