// Package core implements the paper's primary contribution: the adaptive
// multi-model abstraction ("model cover") over geo-temporally skewed
// community-sensed data, built by the Ad-KMN algorithm (§2.1), and the
// model-based interpolation used to answer continuous value queries (§2.2).
//
// A model cover is a set of models M = {M_1, ..., M_O} with cluster
// centroids µ = (µ_1, ..., µ_O); model M_j is responsible for sub-region
// R_j, defined implicitly as the Voronoi cell of µ_j. A cover is estimated
// from one window of raw tuples W_c = [cH, (c+1)H) and is valid until the
// window closes at t_n = (c+1)H — the validity time shipped to model-cache
// clients (§2.3).
package core

import (
	"errors"
	"fmt"

	"repro/internal/geo"
	"repro/internal/kmeans"
	"repro/internal/regress"
	"repro/internal/tuple"
)

// RegionModel is one (centroid, model) pair of a cover: the model M_j
// responsible for sub-region R_j around centroid µ_j.
type RegionModel struct {
	// Centroid is µ_j.
	Centroid geo.Point
	// Model is the fitted (or wire-reconstructed) regression model M_j.
	Model *regress.Model
	// ApproxError is the region's approximation error: the mean absolute
	// prediction error over the region's tuples as a fraction of the
	// pollutant's normal range. Zero on wire-reconstructed covers.
	ApproxError float64
	// N is the number of tuples the model was fitted on (0 when
	// reconstructed from the wire).
	N int
}

// Cover is a model cover: the multi-model abstraction over a region R.
type Cover struct {
	// Pollutant identifies what the models predict.
	Pollutant tuple.Pollutant
	// WindowIndex is c, the index of the window the cover was built from.
	WindowIndex int
	// ValidFrom and ValidUntil bound the cover's validity in stream time;
	// ValidUntil is the t_n sent to model-cache clients.
	ValidFrom, ValidUntil float64
	// Regions holds the (µ_j, M_j) pairs.
	Regions []RegionModel
	// ValueLo and ValueHi clamp interpolated values to the phenomenon's
	// observed range (with margin). Model extrapolation a few hundred
	// meters off the sensed corridors must not produce physically absurd
	// concentrations. Both zero disables clamping (e.g. unit covers built
	// by hand).
	ValueLo, ValueHi float64
	// Rounds is the number of Ad-KMN split rounds performed (diagnostics).
	Rounds int
}

// ErrEmptyCover is returned when interpolating with a cover that has no
// regions.
var ErrEmptyCover = errors.New("core: empty model cover")

// Centroids returns µ as a slice, in region order.
func (cv *Cover) Centroids() []geo.Point {
	out := make([]geo.Point, len(cv.Regions))
	for i, r := range cv.Regions {
		out[i] = r.Centroid
	}
	return out
}

// Size returns O, the number of models in the cover.
func (cv *Cover) Size() int { return len(cv.Regions) }

// ValidAt reports whether the cover may serve a query issued at stream
// time t (the model-cache check t_l ≤ t_n).
func (cv *Cover) ValidAt(t float64) bool {
	return t >= cv.ValidFrom && t <= cv.ValidUntil
}

// NearestRegion returns the index of the region whose centroid µ* is
// nearest to p. It returns -1 for an empty cover.
func (cv *Cover) NearestRegion(p geo.Point) int {
	if len(cv.Regions) == 0 {
		return -1
	}
	best, bestD := 0, cv.Regions[0].Centroid.Dist2(p)
	for i := 1; i < len(cv.Regions); i++ {
		if d := cv.Regions[i].Centroid.Dist2(p); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// Interpolate answers Query 1 for the query tuple q_l = (t, x, y): find
// the centroid µ* nearest to (x, y) and evaluate its model M*.
func (cv *Cover) Interpolate(t, x, y float64) (float64, error) {
	idx := cv.NearestRegion(geo.Point{X: x, Y: y})
	if idx < 0 {
		return 0, ErrEmptyCover
	}
	v := cv.Regions[idx].Model.Predict(t, x, y)
	if cv.ValueLo < cv.ValueHi {
		if v < cv.ValueLo {
			v = cv.ValueLo
		} else if v > cv.ValueHi {
			v = cv.ValueHi
		}
	}
	return v, nil
}

// MaxApproxError returns the largest per-region approximation error.
func (cv *Cover) MaxApproxError() float64 {
	var max float64
	for _, r := range cv.Regions {
		if r.ApproxError > max {
			max = r.ApproxError
		}
	}
	return max
}

// MeanApproxError returns the tuple-weighted mean approximation error.
func (cv *Cover) MeanApproxError() float64 {
	var sum float64
	var n int
	for _, r := range cv.Regions {
		sum += r.ApproxError * float64(r.N)
		n += r.N
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Config parameterizes Ad-KMN.
type Config struct {
	// InitialK is the number of centroids before any adaptive split
	// (default 2, matching the paper's walkthrough in Figure 2).
	InitialK int
	// MaxK caps the number of centroids; adaptation stops when reached
	// (default 64). The cap bounds cover size — and therefore the
	// model-cache payload — on pathological windows.
	MaxK int
	// ErrThreshold is τn, the per-region approximation error threshold as
	// a fraction of the pollutant's normal range (default 0.02, the
	// paper's evaluation setting of 2%).
	ErrThreshold float64
	// Features selects the per-region model family (default linear on
	// x, y, t, the paper's "linear regression models").
	Features regress.Features
	// Pollutant identifies what the models predict (default CO2, the
	// paper's evaluation pollutant).
	Pollutant tuple.Pollutant
	// NormalSpan overrides the span used to normalize approximation
	// errors ("the normal range of s_i in the environment", §2.1). When
	// zero, the span defaults to the observed value range of the window —
	// the range of the phenomenon in the environment — falling back to
	// the pollutant's nominal range for degenerate (constant) windows.
	NormalSpan float64
	// MaxRounds bounds adaptive split rounds (default 32).
	MaxRounds int
	// MinRegionTuples is the smallest region Ad-KMN will split further
	// (default 16). Splitting below this chases sensor noise: a region
	// whose regression already uses only a handful of observations cannot
	// be improved by subdividing it.
	MinRegionTuples int
	// Cluster configures the underlying k-means runs.
	Cluster kmeans.Config
}

func (c Config) withDefaults() Config {
	if c.InitialK <= 0 {
		c.InitialK = 2
	}
	if c.MaxK <= 0 {
		c.MaxK = 64
	}
	if c.ErrThreshold <= 0 {
		c.ErrThreshold = 0.02
	}
	if c.Features == nil {
		c.Features = regress.LinearXYT
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = 32
	}
	if c.MinRegionTuples <= 0 {
		c.MinRegionTuples = 16
	}
	return c
}

// BuildCover runs Ad-KMN over the window W_c and returns the resulting
// model cover. w must contain the raw tuples of window c for window
// length h (callers normally obtain it from the store); it must be
// non-empty.
//
// The algorithm follows §2.1: start from InitialK centroids computed with
// standard k-means over the tuple positions; partition tuples by nearest
// centroid; fit one regression model per region and compute its
// approximation error against the pollutant's normal range. While some
// region exceeds τn (and the centroid budget allows), introduce one new
// centroid at that region's worst-error position — "equivalent to
// splitting the region" — then re-estimate all centroids and refit.
func BuildCover(w tuple.Batch, c int, h float64, cfg Config) (*Cover, error) {
	cfg = cfg.withDefaults()
	if len(w) == 0 {
		return nil, errors.New("core: cannot build a cover over an empty window")
	}
	if h <= 0 {
		return nil, fmt.Errorf("core: window length %v, want > 0", h)
	}
	pts := w.Positions()

	// MaxK caps the cover size from the start: the initial k must respect
	// it too, and neither may exceed the tuple count.
	maxCentroids := cfg.MaxK
	if maxCentroids > len(pts) {
		maxCentroids = len(pts)
	}
	k := cfg.InitialK
	if k > maxCentroids {
		k = maxCentroids
	}
	res, err := kmeans.Run(pts, k, cfg.Cluster)
	if err != nil {
		return nil, fmt.Errorf("core: initial clustering: %w", err)
	}

	normalSpan := normalSpanFor(w, cfg)

	var (
		regions []RegionModel
		rounds  int
		buf     obsBuf
	)
	maxK := maxCentroids
	for rounds = 0; ; rounds++ {
		regions, err = fitRegions(w, res, cfg, normalSpan, &buf)
		if err != nil {
			return nil, err
		}
		if rounds >= cfg.MaxRounds || len(res.Centroids) >= maxK {
			break
		}
		// Collect one split point per offending region: the worst-error
		// tuple position in that region (Figure 2's "positions with worst
		// error" become the injected centroids).
		newCentroids := splitCandidates(w, res, regions, cfg, maxK)
		if len(newCentroids) == 0 {
			break // every region meets τn
		}
		seed := append(append([]geo.Point{}, res.Centroids...), newCentroids...)
		res, err = kmeans.Refine(pts, seed, cfg.Cluster)
		if err != nil {
			return nil, fmt.Errorf("core: refine after split: %w", err)
		}
	}

	start, end := tuple.WindowBounds(c, h)
	lo, hi := clampRange(w)
	return &Cover{
		Pollutant:   cfg.Pollutant,
		WindowIndex: c,
		ValidFrom:   start,
		ValidUntil:  end,
		Regions:     regions,
		Rounds:      rounds,
		ValueLo:     lo,
		ValueHi:     hi,
	}, nil
}

// clampRange returns the window's observed value range widened by 10% on
// each side.
func clampRange(w tuple.Batch) (lo, hi float64) {
	for i, r := range w {
		if i == 0 || r.S < lo {
			lo = r.S
		}
		if i == 0 || r.S > hi {
			hi = r.S
		}
	}
	margin := 0.1 * (hi - lo)
	return lo - margin, hi + margin
}

// normalSpanFor resolves the error-normalization span per Config rules.
func normalSpanFor(w tuple.Batch, cfg Config) float64 {
	if cfg.NormalSpan > 0 {
		return cfg.NormalSpan
	}
	var min, max float64
	for i, r := range w {
		if i == 0 || r.S < min {
			min = r.S
		}
		if i == 0 || r.S > max {
			max = r.S
		}
	}
	if span := max - min; span > 0 {
		return span
	}
	lo, hi := cfg.Pollutant.NormalRange()
	return hi - lo
}

// obsBuf backs fitRegions' per-region observation columns with one array,
// which a BuildCover reuses across its split rounds.
type obsBuf struct {
	cols []float64 // the t, x, y and s columns, len(w) each, grouped by region
	ends []int     // region j's rows end at ends[j] and start where j-1's end
}

// fitRegions fits one model per cluster and computes approximation errors.
// Clusters with fewer than 2·dim observations get a mean-only model in the
// same feature family: a full regression on a handful of points
// extrapolates wildly outside its cluster.
func fitRegions(w tuple.Batch, res *kmeans.Result, cfg Config, normalSpan float64, buf *obsBuf) ([]RegionModel, error) {
	f := cfg.Features
	n, k := len(w), len(res.Centroids)
	// Gather per-region observation columns by counting sort on the
	// assignment (counted from Assign: a synthesized Result has no Sizes).
	// Rows are filled in tuple order, so every region sums its
	// observations in the order appending them would have given.
	if cap(buf.cols) < 4*n {
		buf.cols = make([]float64, 4*n)
	}
	if cap(buf.ends) < k {
		buf.ends = make([]int, k)
	}
	ts, xs, ys, ss := buf.cols[:n], buf.cols[n:2*n], buf.cols[2*n:3*n], buf.cols[3*n:4*n]
	ends := buf.ends[:k]
	clear(ends)
	for _, a := range res.Assign[:n] {
		ends[a]++
	}
	start := 0
	for j, size := range ends {
		ends[j] = start // the fill below advances it to the region's end
		start += size
	}
	for i, r := range w {
		a := res.Assign[i]
		p := ends[a]
		ts[p], xs[p], ys[p], ss[p] = r.T, r.X, r.Y, r.S
		ends[a]++
	}
	regions := make([]RegionModel, 0, k)
	lo := 0
	for j, hi := range ends {
		ots, oxs, oys, oss := ts[lo:hi], xs[lo:hi], ys[lo:hi], ss[lo:hi]
		lo = hi
		if len(oss) == 0 {
			// Lloyd re-seeds empty clusters, so this only occurs when two
			// centroids coincide; such a region contributes nothing and is
			// dropped from the cover.
			continue
		}
		var m *regress.Model
		var err error
		if len(oss) < 2*f.Dim() {
			m, err = regress.MeanModel(f, oss)
		} else {
			m, err = regress.Fit(f, ots, oxs, oys, oss)
		}
		if err != nil {
			return nil, fmt.Errorf("core: fit region %d: %w", j, err)
		}
		var absErr float64
		for i := range oss {
			d := m.Predict(ots[i], oxs[i], oys[i]) - oss[i]
			if d < 0 {
				d = -d
			}
			absErr += d
		}
		regions = append(regions, RegionModel{
			Centroid:    res.Centroids[j],
			Model:       m,
			ApproxError: absErr / float64(len(oss)) / normalSpan,
			N:           len(oss),
		})
	}
	if len(regions) == 0 {
		return nil, errors.New("core: all regions empty")
	}
	return regions, nil
}

// splitCandidates returns new centroid positions for regions whose
// approximation error exceeds τn, capped so the total stays within maxK.
// Regions below MinRegionTuples are never split: their residual error is
// noise, not structure.
func splitCandidates(w tuple.Batch, res *kmeans.Result, regions []RegionModel, cfg Config, maxK int) []geo.Point {
	tau := cfg.ErrThreshold
	budget := maxK - len(res.Centroids)
	if budget <= 0 {
		return nil
	}
	// Map from centroid to region (regions may have dropped empty
	// clusters, so match by centroid value).
	regionOf := make(map[geo.Point]*RegionModel, len(regions))
	for i := range regions {
		regionOf[regions[i].Centroid] = &regions[i]
	}
	// For each offending cluster, find its worst-error tuple position.
	type worst struct {
		pos geo.Point
		err float64
		bad bool
	}
	worstByCluster := make([]worst, len(res.Centroids))
	for i, r := range w {
		a := res.Assign[i]
		reg, ok := regionOf[res.Centroids[a]]
		if !ok || reg.ApproxError <= tau || reg.N < cfg.MinRegionTuples {
			continue
		}
		d := reg.Model.Predict(r.T, r.X, r.Y) - r.S
		if d < 0 {
			d = -d
		}
		if !worstByCluster[a].bad || d > worstByCluster[a].err {
			worstByCluster[a] = worst{pos: r.Pos(), err: d, bad: true}
		}
	}
	var out []geo.Point
	for a := range worstByCluster {
		if !worstByCluster[a].bad {
			continue
		}
		// Do not inject a centroid that coincides with the existing one:
		// it would create a duplicate cluster with no splitting effect.
		if worstByCluster[a].pos == res.Centroids[a] {
			continue
		}
		out = append(out, worstByCluster[a].pos)
		if len(out) >= budget {
			break
		}
	}
	return out
}
