package kmeans

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
)

// referenceLloyd is the Lloyd loop as it stood before the assignment step
// learned to skip points (commit 1ccc25b), kept verbatim as the definition
// the bounded loop must reproduce bit for bit: every point is scanned
// against every centroid in every iteration. Test-only — the product has
// one loop.
func referenceLloyd(pts []geo.Point, centroids []geo.Point, cfg Config) (*Result, error) {
	k := len(centroids)
	assign := make([]int, len(pts))
	sizes := make([]int, k)
	sumX := make([]float64, k)
	sumY := make([]float64, k)

	var iter int
	for iter = 0; iter < cfg.MaxIterations; iter++ {
		// Assignment step.
		for i := range sizes {
			sizes[i], sumX[i], sumY[i] = 0, 0, 0
		}
		for i, p := range pts {
			assign[i] = Nearest(centroids, p)
			c := assign[i]
			sizes[c]++
			sumX[c] += p.X
			sumY[c] += p.Y
		}
		// Update step.
		maxMove := 0.0
		for c := 0; c < k; c++ {
			var next geo.Point
			if sizes[c] == 0 {
				// Re-seed an empty cluster at the globally worst-served
				// point to keep exactly k active clusters.
				next = farthestPoint(pts, centroids, assign)
			} else {
				next = geo.Point{X: sumX[c] / float64(sizes[c]), Y: sumY[c] / float64(sizes[c])}
			}
			if move := next.Dist(centroids[c]); move > maxMove {
				maxMove = move
			}
			centroids[c] = next
		}
		if maxMove <= cfg.Tolerance {
			iter++
			break
		}
	}

	// Final assignment with the converged centroids.
	for i := range sizes {
		sizes[i] = 0
	}
	var inertia float64
	for i, p := range pts {
		assign[i] = Nearest(centroids, p)
		sizes[assign[i]]++
		inertia += p.Dist2(centroids[assign[i]])
	}
	return &Result{
		Centroids:  centroids,
		Assign:     assign,
		Sizes:      sizes,
		Iterations: iter,
		Inertia:    inertia,
	}, nil
}

func referenceRun(pts []geo.Point, k int, cfg Config) (*Result, error) {
	if err := validate(pts, k); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	centroids := make([]geo.Point, 0, k)
	seedPlusPlus(centroids, make([]bounds, len(pts)), pts, k, rand.New(rand.NewSource(cfg.Seed)))
	return referenceLloyd(pts, centroids[:k], cfg)
}

func referenceRefine(pts, start []geo.Point, cfg Config) (*Result, error) {
	if err := validate(pts, len(start)); err != nil {
		return nil, err
	}
	return referenceLloyd(pts, append([]geo.Point(nil), start...), cfg.withDefaults())
}

// sameBits compares two floats as bit patterns, except that any NaN
// equals any NaN: which payload an operation on two NaNs keeps depends on
// the operand order the compiler chose.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// sameResult fails unless every field of got equals want's bit for bit.
func sameResult(t testing.TB, name string, got, want *Result) {
	t.Helper()
	if got.Iterations != want.Iterations {
		t.Errorf("%s: %d iterations, reference %d", name, got.Iterations, want.Iterations)
	}
	if !sameBits(got.Inertia, want.Inertia) {
		t.Errorf("%s: inertia %v, reference %v", name, got.Inertia, want.Inertia)
	}
	if len(got.Centroids) != len(want.Centroids) || len(got.Assign) != len(want.Assign) || len(got.Sizes) != len(want.Sizes) {
		t.Fatalf("%s: lengths %d/%d/%d, reference %d/%d/%d", name,
			len(got.Centroids), len(got.Assign), len(got.Sizes),
			len(want.Centroids), len(want.Assign), len(want.Sizes))
	}
	for c := range want.Centroids {
		g, w := got.Centroids[c], want.Centroids[c]
		if !sameBits(g.X, w.X) || !sameBits(g.Y, w.Y) {
			t.Errorf("%s: centroid %d = %v, reference %v", name, c, g, w)
			break
		}
	}
	for c := range want.Sizes {
		if got.Sizes[c] != want.Sizes[c] {
			t.Errorf("%s: size of cluster %d = %d, reference %d", name, c, got.Sizes[c], want.Sizes[c])
			break
		}
	}
	for i := range want.Assign {
		if got.Assign[i] != want.Assign[i] {
			t.Errorf("%s: point %d assigned to %d, reference %d", name, i, got.Assign[i], want.Assign[i])
			break
		}
	}
}

// The point shapes the differential tests draw from.
const (
	shapeUniform   = iota // no structure: bounds prune least
	shapeCorridor         // jittered samples along a polyline, like bus data
	shapeLattice          // small integer coordinates: exact distance ties
	shapeDuplicate        // a handful of distinct positions, many copies each
	shapeHuge             // coordinates whose squared distances overflow
	numShapes
)

func shapedPoints(rng *rand.Rand, shape, n int) []geo.Point {
	pts := make([]geo.Point, n)
	switch shape {
	case shapeCorridor:
		line := []geo.Point{{X: 0, Y: 0}, {X: 1500, Y: 300}, {X: 2200, Y: 1800}, {X: 4000, Y: 2000}, {X: 4200, Y: -500}}
		for i := range pts {
			seg := rng.Intn(len(line) - 1)
			f := rng.Float64()
			a, b := line[seg], line[seg+1]
			pts[i] = geo.Point{
				X: a.X + f*(b.X-a.X) + rng.NormFloat64()*4,
				Y: a.Y + f*(b.Y-a.Y) + rng.NormFloat64()*4,
			}
		}
	case shapeLattice:
		for i := range pts {
			pts[i] = geo.Point{X: float64(rng.Intn(7)), Y: float64(rng.Intn(7))}
		}
	case shapeDuplicate:
		distinct := shapedPoints(rng, shapeUniform, 1+n/16)
		for i := range pts {
			pts[i] = distinct[rng.Intn(len(distinct))]
		}
	case shapeHuge:
		for i := range pts {
			pts[i] = geo.Point{X: (rng.Float64() - 0.5) * 1e200, Y: (rng.Float64() - 0.5) * 1e200}
		}
	default:
		for i := range pts {
			pts[i] = geo.Point{X: rng.Float64() * 4000, Y: rng.Float64() * 4000}
		}
	}
	return pts
}

// checkAgainstReference runs every entry point on one Clusterer — so each
// run also meets the arrays the previous one left behind — and compares
// with the brute-force loop: a seeded Run, then two Ad-KMN split rounds
// chained on it. The first adds scattered points; the second adds copies
// of converged centroids, whose clusters start empty (the empty-cluster
// re-seed, which reads the centroids half-updated), and scattered points
// when there is room.
func checkAgainstReference(t testing.TB, s *Clusterer, name string, pts []geo.Point, k int, cfg Config, rng *rand.Rand) {
	t.Helper()
	want, err := referenceRun(pts, k, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got, err := s.Run(pts, k, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	sameResult(t, name+"/run", got, want)

	var add []geo.Point
	for extra := min(1+k/3, len(pts)-k); extra > 0; extra-- {
		add = append(add, pts[rng.Intn(len(pts))])
	}
	want = checkSplit(t, s, name+"/split-grown", pts, want, add, cfg)

	add = add[:0]
	for room := len(pts) - len(want.Centroids); room > 0 && len(add) < 1+k/2; room-- {
		if rng.Intn(3) == 0 {
			add = append(add, pts[rng.Intn(len(pts))])
		} else {
			add = append(add, want.Centroids[rng.Intn(len(want.Centroids))]) // coincident
		}
	}
	checkSplit(t, s, name+"/split-coincident", pts, want, add, cfg)
}

// checkSplit splits s's previous result, which prev is the reference's
// for, with add, compares with the brute-force loop from the concatenated
// centroids and returns the reference's result.
func checkSplit(t testing.TB, s *Clusterer, name string, pts []geo.Point, prev *Result, add []geo.Point, cfg Config) *Result {
	t.Helper()
	want, err := referenceRefine(pts, append(append([]geo.Point(nil), prev.Centroids...), add...), cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got, err := s.Split(pts, add, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	sameResult(t, name, got, want)
	return want
}

func TestLloydMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var s Clusterer
	for shape := 0; shape < numShapes; shape++ {
		for _, n := range []int{1, 2, 17, 49, 600} {
			for _, k := range []int{1, 2, 5, 24, 64, n} {
				if k > min(n, 64) {
					continue
				}
				for _, maxIter := range []int{1, 2, 0} {
					pts := shapedPoints(rng, shape, n)
					cfg := Config{Seed: rng.Int63(), MaxIterations: maxIter}
					name := fmt.Sprintf("shape%d/n%d/k%d/iter%d", shape, n, k, maxIter)
					checkAgainstReference(t, &s, name, pts, k, cfg, rng)
					checkRunFrom(t, &s, name+"/from", pts, fuzzStart(rng, pts, k, nil), cfg, rng)
				}
			}
		}
	}
}

// TestNonFiniteNeverSkips feeds coordinates that make distances NaN or
// infinite: a bound that is not a finite number proves nothing, so those
// points must be scanned like the reference scans them.
func TestNonFiniteNeverSkips(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var s Clusterer
	for _, bad := range []geo.Point{
		{X: math.NaN(), Y: 3},
		{X: math.Copysign(math.NaN(), -1), Y: 3}, // ∞ − ∞ gives this sign
		{X: math.Inf(1), Y: 0},
		{X: math.Inf(-1), Y: math.Inf(1)},
		{X: 1e308, Y: -1e308},
		{X: 5e-324, Y: 1e-170},
	} {
		for _, at := range []int{0, 57, 199} {
			pts := shapedPoints(rng, shapeCorridor, 200)
			pts[at] = bad
			pts[(at+31)%len(pts)] = geo.Point{X: bad.Y, Y: bad.X}
			name := fmt.Sprintf("%v@%d", bad, at)
			cfg := Config{Seed: rng.Int63()}
			checkAgainstReference(t, &s, name, pts, 6, cfg, rng)

			// Split rounds that add the bad points themselves as centroids,
			// to these points and to points that are all finite (a NaN
			// point pulls centroid 0 to NaN, which a NaN centroid added
			// to finite points does not).
			for _, ps := range [][]geo.Point{pts, shapedPoints(rng, shapeCorridor, 200)} {
				want, _ := referenceRun(ps, 6, cfg)
				if _, err := s.Run(ps, 6, cfg); err != nil {
					t.Fatal(err)
				}
				want = checkSplit(t, &s, name+"/split-bad", ps, want, []geo.Point{bad, ps[rng.Intn(len(ps))]}, cfg)
				checkSplit(t, &s, name+"/split-swapped", ps, want, []geo.Point{{X: bad.Y, Y: bad.X}}, cfg)
			}
		}
	}
}

// FuzzLloydMatchesReference explores shapes, sizes and iteration caps from
// a seed, and — with raw set — points made of the fuzzer's own bit
// patterns: subnormals, infinities, NaNs.
func FuzzLloydMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(8), uint8(shapeCorridor), uint8(0), false, []byte{})
	f.Add(int64(2), uint16(49), uint8(49), uint8(shapeLattice), uint8(1), false, []byte{})
	f.Add(int64(3), uint16(120), uint8(5), uint8(shapeDuplicate), uint8(2), false, []byte{})
	f.Add(int64(4), uint16(0), uint8(3), uint8(0), uint8(0), true,
		binary.LittleEndian.AppendUint64(make([]byte, 56), math.Float64bits(math.Inf(1))))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, k, shape, maxIter uint8, raw bool, data []byte) {
		rng := rand.New(rand.NewSource(seed))
		var pts []geo.Point
		if raw {
			for ; len(data) >= 16 && len(pts) < 256; data = data[16:] {
				pts = append(pts, geo.Point{
					X: math.Float64frombits(binary.LittleEndian.Uint64(data)),
					Y: math.Float64frombits(binary.LittleEndian.Uint64(data[8:])),
				})
			}
		} else {
			pts = shapedPoints(rng, int(shape)%numShapes, int(n)%2048)
		}
		if len(pts) == 0 {
			return
		}
		kk := 1 + int(k)%min(len(pts), 64)
		cfg := Config{Seed: seed, MaxIterations: int(maxIter) % 8}
		s := new(Clusterer)
		checkAgainstReference(t, s, "fuzz", pts, kk, cfg, rng)
		checkRunFrom(t, s, "fuzz/from", pts, fuzzStart(rng, pts, kk, data), cfg, rng)
	})
}

// fuzzStart returns k start centroids drawn from the fuzz input: points
// of pts, copies of centroids already drawn (whose clusters start empty),
// points far off every one of pts (which win none), and, while data
// lasts, points made of its bit patterns.
func fuzzStart(rng *rand.Rand, pts []geo.Point, k int, data []byte) []geo.Point {
	start := make([]geo.Point, 0, k)
	for len(start) < k {
		switch op := rng.Intn(4); {
		case op == 0 && len(start) > 0:
			start = append(start, start[rng.Intn(len(start))])
		case op == 1:
			p := pts[rng.Intn(len(pts))]
			start = append(start, geo.Point{X: p.X + 1e9, Y: p.Y - 1e9})
		case op == 2 && len(data) >= 16:
			start = append(start, geo.Point{
				X: math.Float64frombits(binary.LittleEndian.Uint64(data)),
				Y: math.Float64frombits(binary.LittleEndian.Uint64(data[8:])),
			})
			data = data[16:]
		default:
			start = append(start, pts[rng.Intn(len(pts))])
		}
	}
	return start
}

// checkRunFrom runs Lloyd on s from start, compares with the brute-force
// loop from the same centroids, and chains a split round on the result,
// as a warm-started Ad-KMN build does.
func checkRunFrom(t testing.TB, s *Clusterer, name string, pts, start []geo.Point, cfg Config, rng *rand.Rand) {
	t.Helper()
	want, err := referenceRefine(pts, start, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got, err := s.RunFrom(pts, start, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	sameResult(t, name, got, want)
	var add []geo.Point
	for room := len(pts) - len(want.Centroids); room > 0 && len(add) < 1+len(start)/3; room-- {
		add = append(add, pts[rng.Intn(len(pts))])
	}
	if len(add) > 0 {
		checkSplit(t, s, name+"/split", pts, want, add, cfg)
	}
}

// nanLowers counts the points of s's last result whose lower bound is NaN.
func nanLowers(s *Clusterer) int {
	n := 0
	for _, b := range s.bounds[:len(s.last)] {
		if b.lower != b.lower {
			n++
		}
	}
	return n
}

// TestOverflowingMoveLeavesUnknownLowerBound builds the state in which
// Lloyd itself leaves a lower bound NaN: centroid 0 moves by MaxFloat64,
// whose bound overflows, while the points of centroid 1 know only that
// every other centroid is farther than a squared distance can say. Their
// lower bound becomes ∞ − ∞, and half the distance between the centroids
// still settles them. A Split from there must match the reference.
func TestOverflowingMoveLeavesUnknownLowerBound(t *testing.T) {
	const m = math.MaxFloat64
	pts := []geo.Point{{X: m / 2, Y: 0}, {X: m / 2, Y: -3e151}, {X: m / 2, Y: 2e154}, {X: m / 2, Y: -1.9e154}}
	start := []geo.Point{{X: -m / 2}, {X: m / 2}}
	cfg := Config{}
	want, _ := referenceRefine(pts, start, cfg)
	var s Clusterer
	got, err := s.RunFrom(pts, start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "start", got, want)
	if n := nanLowers(&s); n == 0 {
		t.Fatal("no lower bound is NaN: the construction no longer reaches the state it tests")
	}
	want = checkSplit(t, &s, "split-onto", pts, want, []geo.Point{pts[1]}, cfg)
	checkSplit(t, &s, "split-between", pts, want, []geo.Point{{X: m / 2, Y: 1e154}}, cfg)
}

// TestSplitKeepsUnknownLowerBounds splits results whose lower bounds are
// all NaN, as the overflow above leaves some: NaN says nothing of the
// distances to the converged centroids, so a Split must keep it rather
// than take the bound on the added centroids alone, which would let a
// point stay where a converged centroid has come nearer.
func TestSplitKeepsUnknownLowerBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	var s Clusterer
	for shape := 0; shape < numShapes; shape++ {
		for _, k := range []int{2, 5, 24} {
			pts := shapedPoints(rng, shape, 600)
			cfg := Config{Seed: rng.Int63()}
			want, _ := referenceRun(pts, k, cfg)
			if _, err := s.Run(pts, k, cfg); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < 3; r++ {
				// Both signs: ∞ − ∞ gives a negative NaN, math.NaN a
				// positive one, and reassign orders bounds by their bits.
				for i := range s.bounds[:len(pts)] {
					s.bounds[i].lower = math.Copysign(math.NaN(), float64(i%2*2-1))
				}
				add := make([]geo.Point, 1+k/3)
				for j := range add {
					add[j] = pts[rng.Intn(len(pts))]
				}
				want = checkSplit(t, &s, fmt.Sprintf("shape%d/k%d/round%d", shape, k, r), pts, want, add, cfg)
			}
		}
	}
}
