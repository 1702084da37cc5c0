package kmeans

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
)

// checkIndex requires x, reset to cs, to answer every point of pts as the
// scan does.
func checkIndex(t testing.TB, x *Index, name string, cs, pts []geo.Point) {
	t.Helper()
	x.Reset(cs)
	for _, p := range pts {
		if got, want := x.Nearest(p), Nearest(cs, p); got != want {
			t.Fatalf("%s: Index.Nearest(%v) = %d (%v), Nearest = %d (%v), over %d centroids",
				name, p, got, cs[got], want, cs[want], len(cs))
		}
	}
}

// awkwardPoints returns points where the search can go wrong: every
// centroid itself and the midpoints between pairs of them (ties), points
// on and one ulp either side of every bucket edge and of every centroid's
// axis coordinate (the split), and points past either end of the axis.
func awkwardPoints(rng *rand.Rand, x *Index, cs []geo.Point) []geo.Point {
	var pts []geo.Point
	onAxis := func(a float64) geo.Point {
		o := cs[rng.Intn(len(cs))]
		if x.byY {
			return geo.Point{X: o.X + rng.NormFloat64()*50, Y: a}
		}
		return geo.Point{X: a, Y: o.Y + rng.NormFloat64()*50}
	}
	around := func(a float64) {
		for _, v := range []float64{math.Nextafter(a, math.Inf(-1)), a, math.Nextafter(a, math.Inf(1))} {
			pts = append(pts, onAxis(v))
		}
	}
	for i, c := range cs {
		d := cs[rng.Intn(len(cs))]
		pts = append(pts, c, geo.Point{X: (c.X + d.X) / 2, Y: (c.Y + d.Y) / 2})
		around(x.sorted[i].a)
	}
	if x.scale > 0 {
		for b := range len(x.first) + 1 {
			around(x.lo + float64(b)/x.scale)
		}
	}
	lo, hi := x.sorted[0].a, x.sorted[len(cs)-1].a
	return append(pts, onAxis(lo-1000), onAxis(hi+1000), onAxis(-1e300), onAxis(1e300))
}

// TestIndexMatchesNearest: the pruned search returns the scan's index —
// the lowest one on a tie — over centroids that repeat, sit on a lattice
// (equidistant points), share one coordinate, number one, hold NaN, ±Inf
// or −0, or lie near ±1e308, where distances overflow to +Inf and the scan
// keeps centroid 0.
func TestIndexMatchesNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	var x Index
	for round := range 400 {
		shape := round % numShapes
		k := 1 + rng.Intn(64)
		if round%7 == 0 {
			k = 1
		}
		cs := shapedPoints(rng, shape, k)
		switch round % 5 {
		case 1: // duplicates
			for i := range cs {
				if rng.Intn(3) == 0 {
					cs[i] = cs[rng.Intn(k)]
				}
			}
		case 2: // one coordinate shared by all
			for i := range cs {
				if round%2 == 0 {
					cs[i].X = cs[0].X
				} else {
					cs[i].Y = cs[0].Y
				}
			}
		}
		name := fmt.Sprintf("round %d (shape %d, k %d)", round, shape, k)
		x.Reset(cs)
		pts := append(shapedPoints(rng, shape, 200), awkwardPoints(rng, &x, cs)...)
		checkIndex(t, &x, name, cs, pts)
	}

	huge := []geo.Point{{X: 1e308, Y: -1e308}, {X: -1e308, Y: 1e308}, {X: -1.7e308, Y: -1.7e308}, {X: 1.7e308, Y: 0}, {X: 0, Y: 0}}
	special := []geo.Point{
		{X: math.NaN(), Y: 0}, {X: 0, Y: math.NaN()}, {X: math.Inf(1), Y: 0}, {X: 0, Y: math.Inf(-1)},
		{X: math.Copysign(0, -1), Y: 0}, {X: 0, Y: math.Copysign(0, -1)}, {X: 5e-324, Y: -5e-324},
	}
	special = append(special, huge...)
	for round := range 200 {
		k := 1 + rng.Intn(12)
		cs := shapedPoints(rng, round%numShapes, k)
		pts := shapedPoints(rng, round%numShapes, 50)
		for range 1 + rng.Intn(3) {
			cs[rng.Intn(k)] = special[rng.Intn(len(special))]
			pts[rng.Intn(len(pts))] = special[rng.Intn(len(special))]
		}
		if round%4 == 0 { // every centroid near ±1e308
			for i := range cs {
				cs[i] = huge[rng.Intn(len(huge)-1)]
				cs[i].X *= 1 - rng.Float64()/8
			}
		}
		pts = append(pts, special...)
		checkIndex(t, &x, fmt.Sprintf("special %d", round), cs, pts)
	}
	// Every distance overflows: the scan keeps centroid 0, and so must
	// the search, though centroid 0 is not first on the axis.
	cs := []geo.Point{{X: 1.5e308, Y: 1.5e308}, {X: -1.5e308, Y: 1.6e308}, {X: -1.6e308, Y: -1.5e308}}
	x.Reset(cs)
	if got := x.Nearest(geo.Point{X: 1.6e308, Y: -1.6e308}); got != 0 {
		t.Errorf("every distance overflows: Index.Nearest = %d, want 0", got)
	}
}

// FuzzIndexMatchesNearest reads the fuzz bytes as float64 bit patterns:
// the first k points are the centroids, the rest the points asked.
func FuzzIndexMatchesNearest(f *testing.F) {
	bits := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(uint8(3), bits(0, 0, 100, 0, 200, 0, 50, 0, 150, 1, -5, 3))
	f.Add(uint8(2), bits(1e308, -1e308, -1e308, 1e308, 1.7e308, 1.7e308, 0, 0))
	f.Add(uint8(2), bits(math.Inf(1), 0, 1, 1, 0, math.NaN(), 2, 2))
	f.Add(uint8(4), bits(7, 1, 7, 2, 7, 3, 7, 2, 7, 2, math.Copysign(0, -1), 2))
	f.Fuzz(func(t *testing.T, k uint8, data []byte) {
		var pts []geo.Point
		for ; len(data) >= 16 && len(pts) < 512; data = data[16:] {
			pts = append(pts, geo.Point{
				X: math.Float64frombits(binary.LittleEndian.Uint64(data)),
				Y: math.Float64frombits(binary.LittleEndian.Uint64(data[8:])),
			})
		}
		if len(pts) < 2 {
			return
		}
		kk := 1 + int(k)%(len(pts)-1)
		var x Index
		checkIndex(t, &x, "fuzz", pts[:kk], pts[kk:])
		checkIndex(t, &x, "fuzz/centroids", pts[:kk], pts[:kk])
	})
}

// TestWarmIndexAllocatesNothing: once an index has held as many
// centroids, Reset and Nearest allocate nothing.
func TestWarmIndexAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cs := shapedPoints(rng, shapeCorridor, 40)
	pts := shapedPoints(rng, shapeCorridor, 64)
	var x Index
	x.Reset(cs)
	sink := 0
	allocs := testing.AllocsPerRun(20, func() {
		x.Reset(cs)
		for _, p := range pts {
			sink += x.Nearest(p)
		}
	})
	if allocs != 0 {
		t.Errorf("a warm Reset and %d Nearest allocate %v times, want 0", len(pts), allocs)
	}
}

// BenchmarkIndexNearest gives the benchmark fleet's shape of window —
// ≈ 2 600 corridor tuples — to the nearest of 35 centroids, by scan and
// by index.
func BenchmarkIndexNearest(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := shapedPoints(rng, shapeCorridor, 2600)
	res, err := Run(pts, 35, Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cs := res.Centroids
	sink := 0
	b.Run("scan", func(b *testing.B) {
		for b.Loop() {
			for _, p := range pts {
				sink += Nearest(cs, p)
			}
		}
	})
	b.Run("index", func(b *testing.B) {
		var x Index
		for b.Loop() {
			x.Reset(cs)
			for _, p := range pts {
				sink += x.Nearest(p)
			}
		}
	})
}
