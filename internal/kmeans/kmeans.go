// Package kmeans implements the k-means machinery underlying the paper's
// Ad-KMN algorithm (§2.1): k-means++ seeding, Lloyd iterations, nearest-
// centroid assignment, and incremental centroid addition (Ad-KMN grows the
// centroid set by "introducing an additional cluster centroid" in regions
// whose model error exceeds the threshold and then re-estimating all
// centroids). The same nearest-centroid primitive underlies both the
// model-cover lookup (internal/core) and the geo-cell shard map of the
// serving cluster (internal/cluster), so it lives below both.
package kmeans

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geo"
)

// Config controls a k-means run.
type Config struct {
	// MaxIterations bounds the Lloyd iterations (default 50).
	MaxIterations int
	// Tolerance stops iteration when no centroid moves more than this many
	// meters (default 0.5 m).
	Tolerance float64
	// Seed makes runs deterministic; the same seed yields the same
	// clustering for the same input.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.MaxIterations <= 0 {
		c.MaxIterations = 50
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 0.5
	}
	return c
}

// Result is the outcome of a k-means run.
type Result struct {
	// Centroids are the final cluster centers µ_1..µ_k.
	Centroids []geo.Point
	// Assign maps each input point index to its centroid index.
	Assign []int
	// Sizes counts points per cluster.
	Sizes []int
	// Iterations is the number of Lloyd iterations performed.
	Iterations int
	// Inertia is the sum of squared point-to-centroid distances.
	Inertia float64
}

// Run clusters pts into k clusters using k-means++ seeding followed by
// Lloyd iterations. It requires 1 ≤ k ≤ len(pts).
func Run(pts []geo.Point, k int, cfg Config) (*Result, error) {
	return new(Clusterer).Run(pts, k, cfg)
}

// Refine runs Lloyd iterations starting from the provided centroids. This
// is the Ad-KMN "re-estimate all the centroids" step: after new centroids
// are injected at high-error positions, the full set is refined together.
// Empty clusters are re-seeded at the point farthest from its centroid, so
// the result always has exactly len(start) non-empty clusters when
// len(pts) ≥ len(start).
func Refine(pts []geo.Point, start []geo.Point, cfg Config) (*Result, error) {
	return new(Clusterer).Refine(pts, start, cfg)
}

// Clusterer runs k-means with arrays it keeps between runs, so a caller
// that clusters again and again — Ad-KMN refines once per split round, a
// build worker builds cover after cover — allocates them once. The Result
// of Run and Refine points into those arrays: it is valid until the next
// call on the same Clusterer, which overwrites it. A Clusterer must not be
// used from two goroutines at once; the zero value is ready.
type Clusterer struct {
	centroids []geo.Point
	assign    []int // per point: its centroid
	sizes     []int // per centroid
	// perPoint backs upper and lower, perCentroid backs sumX, sumY, half
	// and move; see lloyd and reassign.
	perPoint    []float64
	perCentroid []float64
	rng         *rand.Rand
	res         Result
}

// Reserve sizes the arrays for runs over up to n points and k centroids,
// so a caller that knows how far it will grow k pays for them once.
func (s *Clusterer) Reserve(n, k int) {
	if cap(s.assign) < n {
		s.assign = make([]int, n)
		s.perPoint = make([]float64, 2*n)
	}
	if cap(s.centroids) < k {
		s.centroids = make([]geo.Point, k)
		s.sizes = make([]int, k)
		s.perCentroid = make([]float64, 4*k)
	}
}

// Run is the package-level Run on s's arrays.
func (s *Clusterer) Run(pts []geo.Point, k int, cfg Config) (*Result, error) {
	if err := validate(pts, k); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s.Reserve(len(pts), k)
	// Re-seeding a kept generator yields the sequence a new one would.
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(cfg.Seed))
	} else {
		s.rng.Seed(cfg.Seed)
	}
	// The seeding distances are dead before lloyd needs the bounds.
	seedPlusPlus(s.centroids[:0], s.perPoint[:len(pts)], pts, k, s.rng)
	return s.lloyd(pts, k, cfg), nil
}

// Refine is the package-level Refine on s's arrays. start may be (or
// overlap) the Centroids of s's previous Result.
func (s *Clusterer) Refine(pts []geo.Point, start []geo.Point, cfg Config) (*Result, error) {
	if err := validate(pts, len(start)); err != nil {
		return nil, err
	}
	s.Reserve(len(pts), len(start))
	copy(s.centroids[:len(start)], start)
	return s.lloyd(pts, len(start), cfg.withDefaults()), nil
}

func validate(pts []geo.Point, k int) error {
	if len(pts) == 0 {
		return errors.New("cluster: no points")
	}
	if k < 1 {
		return fmt.Errorf("cluster: k = %d, want ≥ 1", k)
	}
	if k > len(pts) {
		return fmt.Errorf("cluster: k = %d exceeds point count %d", k, len(pts))
	}
	return nil
}

// seedPlusPlus appends k initial centroids to centroids with the k-means++
// strategy: the first uniformly, each subsequent one with probability
// proportional to its squared distance from the nearest chosen centroid.
// d2 is scratch, one element per point.
func seedPlusPlus(centroids []geo.Point, d2 []float64, pts []geo.Point, k int, rng *rand.Rand) {
	centroids = append(centroids, pts[rng.Intn(len(pts))])
	for i, p := range pts {
		d2[i] = p.Dist2(centroids[0])
	}
	for len(centroids) < k {
		var total float64
		for _, d := range d2 {
			total += d
		}
		var next geo.Point
		if total <= 0 {
			// All points coincide with existing centroids; any point works.
			next = pts[rng.Intn(len(pts))]
		} else {
			target := rng.Float64() * total
			idx := len(pts) - 1
			var acc float64
			for i, d := range d2 {
				acc += d
				if acc >= target {
					idx = i
					break
				}
			}
			next = pts[idx]
		}
		centroids = append(centroids, next)
		for i, p := range pts {
			if d := p.Dist2(next); d < d2[i] {
				d2[i] = d
			}
		}
	}
}

// The assignment step keeps, per point, an upper bound on its distance to
// the centroid it is assigned to and a lower bound on its distance to
// every other centroid (Hamerly, "Making k-means even faster", SDM 2010),
// and leaves a point where it is only when the bounds prove that Nearest
// would. They bound the exact distances between the stored coordinates,
// so each is pushed outward by more than the rounding it can have
// collected: relSlack dwarfs the few 2^-53 a squared distance, its root
// and a sum can be off by, and absSlack dwarfs what a product that
// underflows loses. A point therefore stays only when its centroid is
// nearer than any other by about a part in 10^12 — far more than the
// 2^-50 by which two computed squared distances can order differently
// from the exact ones — and every other point is scanned in full.
const (
	relSlack = 1e-12
	absSlack = 1e-150
)

// upperOf and lowerOf turn a computed distance into a bound on the exact one.
func upperOf(d float64) float64 { return d*(1+relSlack) + absSlack }
func lowerOf(d float64) float64 { return d*(1-relSlack) - absSlack }

// lloyd iterates assignment and centroid-update steps over s.centroids[:k]
// until convergence. It computes what a full nearest-centroid scan of
// every point in every iteration would, bit for bit (reference_test.go
// keeps that loop): skipped points are exactly those whose scan would not
// have moved them, and the per-cluster sums are still accumulated over
// all points in input order.
func (s *Clusterer) lloyd(pts []geo.Point, k int, cfg Config) *Result {
	centroids := s.centroids[:k]
	assign, sizes := s.assign[:len(pts)], s.sizes[:k]
	sumX, sumY, move := s.perCentroid[:k], s.perCentroid[k:2*k], s.perCentroid[3*k:4*k]

	// bounded says the bounds hold for the previous assignment and move
	// holds how far each centroid has gone since.
	bounded := false
	var iter int
	for iter = 0; iter < cfg.MaxIterations; iter++ {
		// Assignment step.
		s.reassign(pts, k, bounded)
		for i := range sizes {
			sizes[i], sumX[i], sumY[i] = 0, 0, 0
		}
		for i, p := range pts {
			c := assign[i]
			sizes[c]++
			sumX[c] += p.X
			sumY[c] += p.Y
		}
		// Update step.
		maxMove := 0.0
		bounded = true
		for c := 0; c < k; c++ {
			var next geo.Point
			if sizes[c] == 0 {
				// Re-seed an empty cluster at the globally worst-served
				// point to keep exactly k active clusters.
				next = farthestPoint(pts, centroids, assign)
			} else {
				next = geo.Point{X: sumX[c] / float64(sizes[c]), Y: sumY[c] / float64(sizes[c])}
			}
			mv := next.Dist(centroids[c])
			if mv > maxMove {
				maxMove = mv
			}
			move[c] = upperOf(mv)
			if !(mv <= math.MaxFloat64) {
				bounded = false // NaN or infinite: nothing is known any more
			}
			centroids[c] = next
		}
		if maxMove <= cfg.Tolerance {
			iter++
			break
		}
	}

	// Final assignment with the converged centroids.
	s.reassign(pts, k, bounded)
	for i := range sizes {
		sizes[i] = 0
	}
	var inertia float64
	for i, p := range pts {
		sizes[assign[i]]++
		inertia += p.Dist2(centroids[assign[i]])
	}
	s.res = Result{
		Centroids:  centroids,
		Assign:     assign,
		Sizes:      sizes,
		Iterations: iter,
		Inertia:    inertia,
	}
	return &s.res
}

// reassign sets assign[i] = Nearest(centroids, pts[i]) for every point.
// With bounded set, each point's bounds are first carried across the last
// centroid moves, and a point whose upper bound is below its lower bound,
// or below half the distance from its centroid to the nearest other one,
// keeps its centroid unscanned. The comparison is false for a bound that
// is NaN and refused for one that is infinite, so those points are scanned.
func (s *Clusterer) reassign(pts []geo.Point, k int, bounded bool) {
	n := len(pts)
	centroids, assign := s.centroids[:k], s.assign[:n]
	upper, lower := s.perPoint[:n], s.perPoint[n:2*n]
	if !bounded {
		for i, p := range pts {
			assign[i], upper[i], lower[i] = nearestTwo(centroids, p)
		}
		return
	}
	half, move := s.perCentroid[2*k:3*k], s.perCentroid[3*k:4*k]
	for a := range half {
		half[a] = math.Inf(1)
	}
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			d := centroids[a].Dist2(centroids[b])
			if !(d >= half[a]) { // also when d is NaN
				half[a] = d
			}
			if !(d >= half[b]) {
				half[b] = d
			}
		}
	}
	// The lower bound of a point assigned to a falls by the largest move
	// among the other centroids: the largest of all, or the runner-up for
	// the centroid that made it.
	var most, second float64
	mover := 0
	for c, mv := range move {
		half[c] = lowerOf(0.5 * math.Sqrt(half[c]))
		if mv > most {
			most, second, mover = mv, most, c
		} else if mv > second {
			second = mv
		}
	}
	for i, p := range pts {
		a := assign[i]
		u := (upper[i] + move[a]) * (1 + relSlack)
		l := lower[i] - most
		if a == mover {
			l = lower[i] - second
		}
		if l > 0 {
			l *= 1 - relSlack
		}
		bound := half[a]
		if l > bound {
			bound = l
		}
		if bound <= math.MaxFloat64 {
			if u >= bound {
				// Loose after several moves: measure before scanning.
				u = upperOf(math.Sqrt(p.Dist2(centroids[a])))
			}
			if u < bound {
				upper[i], lower[i] = u, l
				continue
			}
		}
		assign[i], upper[i], lower[i] = nearestTwo(centroids, p)
	}
}

// nearestTwo is Nearest that also bounds the distances it compared: from
// above the one to the winner, from below the one to the runner-up.
func nearestTwo(centroids []geo.Point, p geo.Point) (best int, upper, lower float64) {
	bestD, secondD := centroids[0].Dist2(p), math.Inf(1)
	for i := 1; i < len(centroids); i++ {
		if d := centroids[i].Dist2(p); d < bestD {
			best, bestD, secondD = i, d, bestD
		} else if d < secondD {
			secondD = d
		}
	}
	return best, upperOf(math.Sqrt(bestD)), lowerOf(math.Sqrt(secondD))
}

// farthestPoint returns the point with the largest distance to its
// currently assigned centroid.
func farthestPoint(pts []geo.Point, centroids []geo.Point, assign []int) geo.Point {
	best := pts[0]
	bestD := -1.0
	for i, p := range pts {
		d := p.Dist2(centroids[assign[i]])
		if d > bestD {
			bestD, best = d, p
		}
	}
	return best
}

// Nearest returns the index of the centroid closest to p. It is the
// primitive both the server-side model-cover lookup and the smartphone
// model-cache use to pick M* (§2.2, §2.3). centroids must be non-empty.
func Nearest(centroids []geo.Point, p geo.Point) int {
	best := 0
	bestD := centroids[0].Dist2(p)
	for i := 1; i < len(centroids); i++ {
		if d := centroids[i].Dist2(p); d < bestD {
			bestD, best = d, i
		}
	}
	return best
}

// Inertia computes the sum of squared distances from each point to its
// nearest centroid — the k-means objective.
func Inertia(pts []geo.Point, centroids []geo.Point) float64 {
	if len(centroids) == 0 {
		return math.Inf(1)
	}
	var total float64
	for _, p := range pts {
		total += p.Dist2(centroids[Nearest(centroids, p)])
	}
	return total
}
