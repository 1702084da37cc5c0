// Package kmeans implements the k-means machinery underlying the paper's
// Ad-KMN algorithm (§2.1): k-means++ seeding, Lloyd iterations, nearest-
// centroid assignment, and incremental centroid addition (Ad-KMN grows the
// centroid set by "introducing an additional cluster centroid" in regions
// whose model error exceeds the threshold and then re-estimating all
// centroids, which Clusterer.Split continues from the last round's Lloyd
// state). The same nearest-centroid primitive underlies both the
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

// Clusterer runs k-means with arrays it keeps between runs, so a caller
// that clusters again and again — Ad-KMN splits once per round, a build
// worker builds cover after cover — allocates them once. The Result of
// Run, RunFrom and Split points into those arrays: it is valid until the
// next call on the same Clusterer, which overwrites it. A Clusterer must not be used
// from two goroutines at once; the zero value is ready.
type Clusterer struct {
	centroids []geo.Point
	assign    []int      // per point: its centroid
	bounds    []bounds   // per point; see reassign
	cents     []centroid // per centroid; see lloyd and reassign
	sizes     []int      // per centroid: Result.Sizes
	rng       *rand.Rand
	res       Result
	// last holds the points the last Run, RunFrom or Split converged on,
	// and k its centroid count: the state Split continues from.
	last []geo.Point
	k    int
}

// bounds holds what the assignment step knows of one point: upper bounds
// its distance to the centroid it is assigned to, lower its distance to
// every other centroid.
type bounds struct{ upper, lower float64 }

// centroid holds one cluster's part of a Lloyd iteration: half bounds
// half its distance to the nearest other centroid from below, move how
// far it went in the last update from above, drop how far that update
// lowered the lower bound of the points assigned to it, and size, sumX
// and sumY sum the points the assignment step gave it.
type centroid struct {
	half, move, drop float64
	sumX, sumY       float64
	size             int
}

// Reserve sizes the arrays for runs over up to n points and k centroids,
// so a caller that knows how far it will grow k pays for them once. What
// the arrays hold survives, so Reserve may come between a Run and a Split.
func (s *Clusterer) Reserve(n, k int) {
	s.assign = grow(s.assign, n)
	s.bounds = grow(s.bounds, n)
	s.centroids = grow(s.centroids, k)
	s.cents = grow(s.cents, k)
	s.sizes = grow(s.sizes, k)
}

// grow returns a with room for n elements, its contents kept.
func grow[T any](a []T, n int) []T {
	if cap(a) >= n {
		return a[:cap(a)]
	}
	b := make([]T, n)
	copy(b, a[:cap(a)])
	return b
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
	seedPlusPlus(s.centroids[:0], s.bounds[:len(pts)], pts, k, s.rng)
	return s.lloyd(pts, k, cfg, false), nil
}

// RunFrom is Run from the given centroids instead of k-means++ seeds:
// Lloyd iterations from start, with k = len(start), which must be at
// least 1 and at most len(pts). Its Result is what the full-scan loop from
// start gives, bit for bit, and Split continues from it as from Run's.
// Ad-KMN warm-starts a window's cover from its predecessor's centroids
// with it. start is not retained.
func (s *Clusterer) RunFrom(pts, start []geo.Point, cfg Config) (*Result, error) {
	k := len(start)
	if err := validate(pts, k); err != nil {
		return nil, err
	}
	s.Reserve(len(pts), k)
	copy(s.centroids, start)
	return s.lloyd(pts, k, cfg.withDefaults(), false), nil
}

// Split is the Ad-KMN "re-estimate all the centroids" step after a split
// round: it continues the previous Run, RunFrom or Split on s, which
// must have been over the same pts, unchanged, with the centroids add
// joining the converged ones. Its Result is what Lloyd iterations from the previous
// Result's Centroids followed by add would give, bit for bit; empty
// clusters are re-seeded at the point farthest from its centroid, so the
// result has exactly as many non-empty clusters as centroids. add is not
// retained.
//
// Only the added centroids can take a point from the centroid it has, so
// the bounds of the previous result carry over: the upper bounds as they
// are, each lower bound lowered to the point's distance to the nearest
// added centroid — n·len(add) distances, not a scan of every centroid.
func (s *Clusterer) Split(pts, add []geo.Point, cfg Config) (*Result, error) {
	if len(pts) == 0 || len(pts) != len(s.last) || &pts[0] != &s.last[0] {
		return nil, errors.New("cluster: split without a previous result on these points")
	}
	k := s.k + len(add)
	if err := validate(pts, k); err != nil {
		return nil, err
	}
	s.Reserve(len(pts), k)
	copy(s.centroids[s.k:k], add)
	bs := s.bounds[:len(pts)]
	for i, p := range pts {
		near := math.Inf(1)
		for _, q := range add {
			if d := p.Dist2(q); d < near {
				near = d
			}
		}
		// A lower bound that is NaN proves nothing and must stay so:
		// nothing compares below it.
		if l := lowerOf(math.Sqrt(near)); l < bs[i].lower {
			bs[i].lower = l
		}
	}
	for c := range s.cents[:k] {
		s.cents[c].move = 0
	}
	return s.lloyd(pts, k, cfg.withDefaults(), true), nil
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
// d2 is scratch, one element per point, whose upper field holds that
// squared distance.
func seedPlusPlus(centroids []geo.Point, d2 []bounds, pts []geo.Point, k int, rng *rand.Rand) {
	d2 = d2[:len(pts)]
	centroids = append(centroids, pts[rng.Intn(len(pts))])
	for i, p := range pts {
		d2[i].upper = p.Dist2(centroids[0])
	}
	for len(centroids) < k {
		var total float64
		for _, d := range d2 {
			total += d.upper
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
				acc += d.upper
				if acc >= target {
					idx = i
					break
				}
			}
			next = pts[idx]
		}
		centroids = append(centroids, next)
		for i, p := range pts {
			if d := p.Dist2(next); d < d2[i].upper {
				d2[i].upper = d
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
// until convergence, from the previous assignment and bounds when bounded
// is set. It computes what a full nearest-centroid scan of every point in
// every iteration would, bit for bit (reference_test.go keeps that loop):
// skipped points are exactly those whose scan would not have moved them,
// and the per-cluster sums are still accumulated over all points in input
// order.
func (s *Clusterer) lloyd(pts []geo.Point, k int, cfg Config, bounded bool) *Result {
	centroids, cs := s.centroids[:k], s.cents[:k]
	var iter int
	for iter = 0; iter < cfg.MaxIterations; iter++ {
		// Assignment step, which also sums the clusters.
		s.reassign(pts, k, bounded)
		// Update step.
		maxMove := 0.0
		bounded = true
		for c := range cs {
			cc := &cs[c]
			var next geo.Point
			if cc.size == 0 {
				// Re-seed an empty cluster at the globally worst-served
				// point to keep exactly k active clusters.
				next = farthestPoint(pts, centroids, s.assign[:len(pts)])
			} else {
				next = geo.Point{X: cc.sumX / float64(cc.size), Y: cc.sumY / float64(cc.size)}
			}
			mv := next.Dist(centroids[c])
			if mv > maxMove {
				maxMove = mv
			}
			cc.move = upperOf(mv)
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
	assign, sizes := s.assign[:len(pts)], s.sizes[:k]
	for c := range cs {
		sizes[c] = cs[c].size
	}
	var inertia float64
	for i, p := range pts {
		inertia += p.Dist2(centroids[assign[i]])
	}
	s.last, s.k = pts, k
	s.res = Result{
		Centroids:  centroids,
		Assign:     assign,
		Sizes:      sizes,
		Iterations: iter,
		Inertia:    inertia,
	}
	return &s.res
}

// reassign sets assign[i] = Nearest(centroids, pts[i]) for every point and
// sums each cluster's points in input order. With bounded set, each
// point's bounds are first carried across the last centroid moves, and a
// point whose upper bound is below its lower bound, or below half the
// distance from its centroid to the nearest other one, keeps its centroid
// unscanned. The comparison is false for a bound that is NaN and refused
// for one that is infinite, so those points are scanned.
func (s *Clusterer) reassign(pts []geo.Point, k int, bounded bool) {
	centroids, cs := s.centroids[:k], s.cents[:k]
	assign, bs := s.assign[:len(pts)], s.bounds[:len(pts)]
	for c := range cs {
		cs[c].size, cs[c].sumX, cs[c].sumY = 0, 0, 0
	}
	if !bounded {
		for i, p := range pts {
			a, u, l := nearestTwo(centroids, p)
			assign[i], bs[i] = a, bounds{u, l}
			c := &cs[a]
			c.size++
			c.sumX += p.X
			c.sumY += p.Y
		}
		return
	}
	for a := range cs {
		cs[a].half = math.Inf(1)
	}
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			d := centroids[a].Dist2(centroids[b])
			if !(d >= cs[a].half) { // also when d is NaN
				cs[a].half = d
			}
			if !(d >= cs[b].half) {
				cs[b].half = d
			}
		}
	}
	// The lower bound of a point assigned to a falls by the largest move
	// among the other centroids: the largest of all, or the runner-up for
	// the centroid that made it.
	var most, second float64
	mover := 0
	for c := range cs {
		cs[c].half = lowerOf(0.5 * math.Sqrt(cs[c].half))
		if mv := cs[c].move; mv > most {
			most, second, mover = mv, most, c
		} else if mv > second {
			second = mv
		}
	}
	for c := range cs {
		cs[c].drop = most
	}
	cs[mover].drop = second
	for i, p := range pts {
		a := assign[i]
		c, b := &cs[a], &bs[i]
		// Scaling a negative l raises it, but it stays below every
		// distance.
		u := (b.upper + c.move) * (1 + relSlack)
		l := (b.lower - c.drop) * (1 - relSlack)
		// bound is the larger of half and l compared as integers, which
		// is a conditional move where comparing floats is a branch that
		// mispredicts. On non-negative floats, the only bounds that
		// settle anything, the two orders agree, and a negative l loses
		// to a non-negative half. A NaN either wins and is refused below,
		// or loses and the other bound stands alone: each bounds the
		// distances that are numbers, the only ones Nearest can pick
		// (a centroid 0 that is NaN moved by NaN, so every point was
		// scanned onto it and has a NaN upper bound).
		hb, lb := int64(math.Float64bits(c.half)), int64(math.Float64bits(l))
		if lb > hb {
			hb = lb
		}
		bound := math.Float64frombits(uint64(hb))
		if bound <= math.MaxFloat64 {
			if u >= bound {
				// Loose after several moves: measure before scanning.
				u = upperOf(math.Sqrt(p.Dist2(centroids[a])))
			}
			if u < bound {
				b.upper, b.lower = u, l
				c.size++
				c.sumX += p.X
				c.sumY += p.Y
				continue
			}
		}
		a, b.upper, b.lower = nearestTwo(centroids, p)
		assign[i] = a
		c = &cs[a]
		c.size++
		c.sumX += p.X
		c.sumY += p.Y
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
