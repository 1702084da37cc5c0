package kmeans

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/geo"
)

// Index answers Nearest over a fixed set of centroids without measuring
// every one: a restart's refit and a warm start ask it once per tuple of a
// window. Reset sorts the centroids along the axis they spread wider on
// and buckets that axis. Nearest takes the first centroid of the point's
// bucket, steps forward to the first one not below the point on the axis,
// and measures outward from there, upward and then downward, each way
// until the axis gap alone squares past the best squared distance so far.
// It measures with Nearest's Dist2 on the centroid's own coordinates and
// keeps the lowest index on a tie, and a squared distance is never below
// its axis term's square (rounding is monotone), so it returns Nearest's
// answer, bit for bit. A point or centroid that is not finite is scanned.
//
// An Index refers to its centroids until the next Reset, and must not be
// used from two goroutines at once. Once it has held as many centroids,
// Reset and Nearest allocate nothing.
type Index struct {
	cs     []geo.Point // the centroids, in the caller's order
	sorted []axisEntry // ascending on the axis
	// first holds, per bucket of the axis, the first entry of sorted whose
	// bucket is at least it; a coordinate a is in bucket (a-lo)·scale.
	first     []int
	lo, scale float64
	byY, scan bool // the axis is Y; a centroid is not finite
}

// axisEntry is a centroid, its coordinate on the axis and its index.
type axisEntry struct {
	p geo.Point
	a float64
	i int
}

// Reset makes x an index of centroids, which must be non-empty.
func (x *Index) Reset(centroids []geo.Point) {
	x.cs, x.scan = centroids, false
	loX, hiX := math.Inf(1), math.Inf(-1)
	loY, hiY := loX, hiX
	for _, c := range centroids {
		if !finite(c) {
			x.scan = true
			return
		}
		loX, hiX = min(loX, c.X), max(hiX, c.X)
		loY, hiY = min(loY, c.Y), max(hiY, c.Y)
	}
	x.byY = hiY-loY > hiX-loX
	x.sorted = x.sorted[:0]
	for i, c := range centroids {
		a := c.X
		if x.byY {
			a = c.Y
		}
		x.sorted = append(x.sorted, axisEntry{c, a, i})
	}
	slices.SortFunc(x.sorted, func(a, b axisEntry) int { return cmp.Compare(a.a, b.a) })
	// Four buckets a centroid: the forward step passes under one entry.
	// A span of zero, or one too wide or narrow to scale, uses one bucket.
	n, nb := len(x.sorted), 4*len(x.sorted)
	x.lo = x.sorted[0].a
	if x.scale = float64(nb) / (x.sorted[n-1].a - x.lo); !(x.scale <= math.MaxFloat64) {
		x.scale = 0
	}
	x.first = slices.Grow(x.first[:0], nb)[:nb]
	for b, j := 0, 0; b < nb; b++ {
		for j < n && x.bucket(x.sorted[j].a) < b {
			j++
		}
		x.first[b] = j
	}
}

// bucket returns the bucket of axis coordinate a, clamped to the table. It
// never decreases as a grows, so every entry before first[bucket(a)] lies
// below a on the axis.
func (x *Index) bucket(a float64) int {
	f := (a - x.lo) * x.scale
	if !(f > 0) {
		return 0
	}
	return int(min(f, float64(len(x.first)-1)))
}

// Nearest returns Nearest(centroids, p) for the centroids of the last
// Reset.
func (x *Index) Nearest(p geo.Point) int {
	if x.scan || !finite(p) {
		return Nearest(x.cs, p)
	}
	pa := p.X
	if x.byY {
		pa = p.Y
	}
	s := x.sorted
	r := x.first[x.bucket(pa)]
	for r < len(s) && s[r].a < pa {
		r++
	}
	// The axis gap grows away from r both ways. The conversion rounds the
	// square as Dist2 does, unfused with any other operation.
	best, bestD := len(s), math.Inf(1)
	for i := r; i < len(s); i++ {
		e := &s[i]
		if g := e.a - pa; float64(g*g) > bestD {
			break
		}
		if d := e.p.Dist2(p); d < bestD || d == bestD && e.i < best {
			best, bestD = e.i, d
		}
	}
	for i := r - 1; i >= 0; i-- {
		e := &s[i]
		if g := e.a - pa; float64(g*g) > bestD {
			break
		}
		if d := e.p.Dist2(p); d < bestD || d == bestD && e.i < best {
			best, bestD = e.i, d
		}
	}
	return best
}

func finite(p geo.Point) bool {
	return math.Abs(p.X) <= math.MaxFloat64 && math.Abs(p.Y) <= math.MaxFloat64
}
