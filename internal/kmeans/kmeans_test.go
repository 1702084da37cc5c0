package kmeans

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geo"
)

// blob generates n points around center with the given spread.
func blob(rng *rand.Rand, center geo.Point, spread float64, n int) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{
			X: center.X + rng.NormFloat64()*spread,
			Y: center.Y + rng.NormFloat64()*spread,
		}
	}
	return pts
}

func TestRunSeparatesObviousClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	centers := []geo.Point{{X: 0, Y: 0}, {X: 1000, Y: 0}, {X: 500, Y: 1000}}
	var pts []geo.Point
	for _, c := range centers {
		pts = append(pts, blob(rng, c, 20, 100)...)
	}
	res, err := Run(pts, 3, Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 3 {
		t.Fatalf("got %d centroids", len(res.Centroids))
	}
	// Each true center should have a centroid within 50 m.
	for _, c := range centers {
		found := false
		for _, got := range res.Centroids {
			if got.Dist(c) < 50 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no centroid near true center %v: %v", c, res.Centroids)
		}
	}
	// All 300 points assigned, sizes sum correctly.
	total := 0
	for _, s := range res.Sizes {
		total += s
	}
	if total != len(pts) {
		t.Errorf("sizes sum to %d, want %d", total, len(pts))
	}
}

func TestRunDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := blob(rng, geo.Point{}, 100, 200)
	a, err := Run(pts, 5, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(pts, 5, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Centroids {
		if a.Centroids[i] != b.Centroids[i] {
			t.Fatalf("centroid %d differs across identical runs", i)
		}
	}
}

func TestRunErrors(t *testing.T) {
	pts := []geo.Point{{X: 1}, {X: 2}}
	if _, err := Run(nil, 1, Config{}); err == nil {
		t.Error("expected error for no points")
	}
	if _, err := Run(pts, 0, Config{}); err == nil {
		t.Error("expected error for k=0")
	}
	if _, err := Run(pts, 3, Config{}); err == nil {
		t.Error("expected error for k > n")
	}
}

func TestRunKEqualsN(t *testing.T) {
	pts := []geo.Point{{X: 0}, {X: 100}, {X: 200}}
	res, err := Run(pts, 3, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia > 1e-9 {
		t.Errorf("k=n should give zero inertia, got %v", res.Inertia)
	}
}

func TestRunK1IsCentroidOfMass(t *testing.T) {
	pts := []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 5, Y: 9}}
	res, err := Run(pts, 1, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := geo.Point{X: 5, Y: 3}
	if res.Centroids[0].Dist(want) > 1e-6 {
		t.Errorf("centroid = %v, want %v", res.Centroids[0], want)
	}
}

func TestSplitKeepsClusterCount(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := append(blob(rng, geo.Point{}, 30, 100), blob(rng, geo.Point{X: 2000}, 30, 100)...)
	var s Clusterer
	if _, err := s.Run(pts, 2, Config{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	// Deliberately bad additions: one beside a converged centroid and one
	// far away that will start empty.
	res, err := s.Split(pts, []geo.Point{{X: 10, Y: 10}, {X: -99999, Y: -99999}}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 4 {
		t.Fatalf("got %d centroids, want 4", len(res.Centroids))
	}
	for i, s := range res.Sizes {
		if s == 0 {
			t.Errorf("cluster %d ended empty; empty clusters must be re-seeded", i)
		}
	}
}

func TestSplitDoesNotMutateAdd(t *testing.T) {
	pts := []geo.Point{{X: 0}, {X: 100}, {X: 200}, {X: 300}}
	var s Clusterer
	if _, err := s.Run(pts, 1, Config{}); err != nil {
		t.Fatal(err)
	}
	add := []geo.Point{{X: 0}, {X: 300}}
	if _, err := s.Split(pts, add, Config{}); err != nil {
		t.Fatal(err)
	}
	if add[0] != (geo.Point{X: 0}) || add[1] != (geo.Point{X: 300}) {
		t.Error("Split mutated its add slice")
	}
}

func TestSplitImprovesInertia(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := append(blob(rng, geo.Point{}, 50, 150), blob(rng, geo.Point{X: 3000, Y: 3000}, 50, 150)...)
	var s Clusterer
	res, err := s.Run(pts, 1, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	add := []geo.Point{{X: 500, Y: 500}}
	before := Inertia(pts, append(append([]geo.Point(nil), res.Centroids...), add...))
	res, err = s.Split(pts, add, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia >= before {
		t.Errorf("split did not improve inertia: %v -> %v", before, res.Inertia)
	}
}

func TestSplitNeedsAPreviousResultOnTheSamePoints(t *testing.T) {
	pts := []geo.Point{{X: 0}, {X: 100}, {X: 200}, {X: 300}}
	add := []geo.Point{{X: 50}}
	var s Clusterer
	if _, err := s.Split(pts, add, Config{}); err == nil {
		t.Error("Split on a new Clusterer: no error")
	}
	if _, err := s.Run(pts, 2, Config{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for name, other := range map[string][]geo.Point{
		"a copy":   append([]geo.Point(nil), pts...),
		"a prefix": pts[:3],
		"a suffix": pts[1:],
		"nothing":  nil,
	} {
		if _, err := s.Split(other, add, Config{}); err == nil {
			t.Errorf("Split on %s of the points: no error", name)
		}
	}
	if _, err := s.Split(pts, []geo.Point{{X: 1}, {X: 2}, {X: 3}}, Config{}); err == nil {
		t.Error("Split past one centroid per point: no error")
	}
	// None of the refusals touched the state a Split continues from.
	if _, err := s.Split(pts, add, Config{}); err != nil {
		t.Errorf("Split after the refusals: %v", err)
	}
}

func TestNearest(t *testing.T) {
	cs := []geo.Point{{X: 0}, {X: 100}, {X: 200}}
	tests := []struct {
		p    geo.Point
		want int
	}{
		{geo.Point{X: -5}, 0},
		{geo.Point{X: 49}, 0},
		{geo.Point{X: 51}, 1},
		{geo.Point{X: 170}, 2},
	}
	for _, tt := range tests {
		if got := Nearest(cs, tt.p); got != tt.want {
			t.Errorf("Nearest(%v) = %d, want %d", tt.p, got, tt.want)
		}
	}
}

func TestAssignmentsAreNearest(t *testing.T) {
	// Invariant: after Run, every point is assigned to its nearest centroid.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(100)
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		}
		k := 1 + rng.Intn(6)
		res, err := Run(pts, k, Config{Seed: seed})
		if err != nil {
			return false
		}
		for i, p := range pts {
			if res.Assign[i] != Nearest(res.Centroids, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestInertiaDecreasesWithK(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := make([]geo.Point, 300)
	for i := range pts {
		pts[i] = geo.Point{X: rng.Float64() * 5000, Y: rng.Float64() * 5000}
	}
	prev := math.Inf(1)
	for k := 1; k <= 16; k *= 2 {
		res, err := Run(pts, k, Config{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		// Allow small non-monotonicity from local minima, but the trend
		// must be decisively downward.
		if res.Inertia > prev*1.05 {
			t.Errorf("k=%d: inertia %v much worse than k/2's %v", k, res.Inertia, prev)
		}
		prev = res.Inertia
	}
}

func TestInertiaEmptyCentroids(t *testing.T) {
	if got := Inertia([]geo.Point{{X: 1}}, nil); !math.IsInf(got, 1) {
		t.Errorf("Inertia with no centroids = %v, want +Inf", got)
	}
}

func TestRunAllPointsIdentical(t *testing.T) {
	pts := make([]geo.Point, 20)
	for i := range pts {
		pts[i] = geo.Point{X: 7, Y: 7}
	}
	res, err := Run(pts, 3, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia != 0 {
		t.Errorf("identical points: inertia = %v, want 0", res.Inertia)
	}
}

// BenchmarkSplitAddCentroids is one Ad-KMN split round's clustering: six
// centroids join a converged set of 24 over a corridor-shaped window, and
// all 30 are re-estimated. The Run the split continues is not timed.
func BenchmarkSplitAddCentroids(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	pts := shapedPoints(rng, shapeCorridor, 1900)
	add := make([]geo.Point, 6)
	for i := range add {
		add[i] = pts[rng.Intn(len(pts))]
	}
	var s Clusterer
	iterations := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := s.Run(pts, 24, Config{Seed: 5}); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := s.Split(pts, add, Config{})
		if err != nil {
			b.Fatal(err)
		}
		iterations += res.Iterations
	}
	b.ReportMetric(float64(iterations)/float64(b.N), "iterations/op")
}
