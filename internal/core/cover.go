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
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sync"

	"repro/internal/colblock"
	"repro/internal/geo"
	"repro/internal/kmeans"
	"repro/internal/regress"
	"repro/internal/tuple"
)

// Cover is a model cover: the multi-model abstraction over a region R.
//
// The regions are stored as columns the cover owns, one entry per region
// j in each: its centroid µ_j, its model's coefficients, its approximation
// error and its tuple count. Every region's model is of the one family
// Features, so region j's coefficients are Coefs[j·d : (j+1)·d] with
// d = Features.Dim(), and Model(j) evaluates them in place. A cover is
// never modified once built: readers share it without copying.
type Cover struct {
	// Pollutant identifies what the models predict.
	Pollutant tuple.Pollutant
	// WindowIndex is c, the index of the window the cover was built from.
	WindowIndex int
	// ValidFrom and ValidUntil bound the cover's validity in stream time;
	// ValidUntil is the t_n sent to model-cache clients.
	ValidFrom, ValidUntil float64
	// Features is the model family of every region's model M_j.
	Features regress.Features
	// Centroids holds µ_j, region j's centroid; its length is the number
	// of regions.
	Centroids []geo.Point
	// Coefs holds the regions' model coefficients, Features.Dim() per
	// region, region j's at [j·d, (j+1)·d).
	Coefs []float64
	// ApproxErrors holds each region's approximation error: the mean
	// absolute prediction error over the region's tuples as a fraction of
	// the pollutant's normal range.
	ApproxErrors []float64
	// N holds the number of tuples each region's model was fitted on.
	// Neither N nor ApproxErrors travels on the wire: both are nil on a
	// cover reconstructed from a model download.
	N []int32
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

// Size returns O, the number of models in the cover.
func (cv *Cover) Size() int { return len(cv.Centroids) }

// Model returns M_j, region j's model: a view over the region's
// coefficients in Coefs, valid as long as the cover is.
func (cv *Cover) Model(j int) regress.Model {
	d := cv.Features.Dim()
	return regress.View(cv.Features, cv.Coefs[j*d:(j+1)*d:(j+1)*d])
}

// ValidAt reports whether the cover may serve a query issued at stream
// time t (the model-cache check t_l ≤ t_n).
func (cv *Cover) ValidAt(t float64) bool {
	return t >= cv.ValidFrom && t <= cv.ValidUntil
}

// NearestRegion returns the index of the region whose centroid µ* is
// nearest to p. It returns -1 for an empty cover.
func (cv *Cover) NearestRegion(p geo.Point) int {
	if len(cv.Centroids) == 0 {
		return -1
	}
	return kmeans.Nearest(cv.Centroids, p)
}

// Interpolate answers Query 1 for the query tuple q_l = (t, x, y): find
// the centroid µ* nearest to (x, y) and evaluate its model M*.
func (cv *Cover) Interpolate(t, x, y float64) (float64, error) {
	idx := cv.NearestRegion(geo.Point{X: x, Y: y})
	if idx < 0 {
		return 0, ErrEmptyCover
	}
	v := cv.Model(idx).Predict(t, x, y)
	if cv.ValueLo < cv.ValueHi {
		if v < cv.ValueLo {
			v = cv.ValueLo
		} else if v > cv.ValueHi {
			v = cv.ValueHi
		}
	}
	return v, nil
}

// tuples returns how many tuples the cover's models were fitted on.
func (cv *Cover) tuples() int {
	n := 0
	for _, k := range cv.N {
		n += int(k)
	}
	return n
}

// MaxApproxError returns the largest per-region approximation error.
func (cv *Cover) MaxApproxError() float64 {
	var max float64
	for _, e := range cv.ApproxErrors {
		if e > max {
			max = e
		}
	}
	return max
}

// MeanApproxError returns the tuple-weighted mean approximation error.
func (cv *Cover) MeanApproxError() float64 {
	var sum float64
	var n int
	for j, e := range cv.ApproxErrors {
		sum += e * float64(cv.N[j])
		n += int(cv.N[j])
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

// seedFormat versions what a checkpoint seed means: a change to Ad-KMN
// that moves the covers it builds must change it, so seeds written before
// are not refitted into covers a build would no longer give. Format 2
// chains covers (chainSpan), and a seed's Config word is its chainWord.
const seedFormat = 2

// chainSpan is the length of a cover chain, in windows: a window whose
// index is a multiple of it anchors a chain, and its cover is built cold
// (BuildCover); every later window of the span starts from its
// predecessor's cover (BuildFrom). One day at the paper's H = 1 h, it
// bounds how far a late write cascades and how deep a build waits on its
// predecessors, whatever the window length.
const chainSpan = 24

// chainOffset returns window c's position in its chain: 0 at the anchor.
func chainOffset(c int) int { return (c%chainSpan + chainSpan) % chainSpan }

// warmWins is how many times MinRegionTuples of a window's tuples a
// centroid of the predecessor's cover must win to start the window's
// build: below it, a centroid marks a region the fleet has left, which
// Lloyd would drag across the window instead of letting a split place.
// The accuracy golden fixes it: at 3, PM's regions above τn rise.
const warmWins = 4

// fingerprint hashes the fields of c, defaults applied, that shape the
// cover a build gives, and seedFormat: a checkpoint seed is refitted only
// under the fingerprint it was written with.
func (c Config) fingerprint() uint64 {
	c = c.withDefaults()
	h := fnv.New64a()
	var buf []byte
	for _, v := range [...]uint64{
		seedFormat,
		uint64(c.InitialK), uint64(c.MaxK), math.Float64bits(c.ErrThreshold),
		uint64(c.Pollutant), math.Float64bits(c.NormalSpan), uint64(c.MaxRounds),
		uint64(c.MinRegionTuples), uint64(c.Cluster.MaxIterations),
		math.Float64bits(c.Cluster.Tolerance), uint64(c.Cluster.Seed),
	} {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	buf = append(buf, c.Features.Name()...)
	h.Write(buf)
	return h.Sum64()
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
	b := builders.Get().(*Builder)
	defer builders.Put(b)
	return b.BuildCover(w, c, h, cfg)
}

// builders lends every build its Builder — a scheduler worker's, one on
// the request path, one in a replica mirror alike. While builds follow
// one another (a preload, a written window) each finds the scratch the
// last one left; a node that stops building gives the memory back at the
// next collections instead of holding ≈ 190 KB per worker for good.
var builders = sync.Pool{New: func() any { return new(Builder) }}

// Builder builds covers with scratch it keeps from one split round to the
// next and from one build to the next: the maintainer's copy of the window
// being modeled, the tuple positions, the k-means
// arrays (sized once per build for the window and MaxK), the regions'
// observation columns, the fitter's normal equations and the models of
// the round in progress. A build allocates little beyond the cover it
// returns, which shares no memory with the Builder. A Builder must not be
// used from two goroutines at once; the zero value is ready.
type Builder struct {
	// win is where a Maintainer build copies the window it reads out of the
	// store (Store.WindowInto); BuildCover itself never touches it.
	win tuple.Batch

	pts    []geo.Point
	km     kmeans.Clusterer
	near   kmeans.Index // the centroids a refit or warm start assigns to
	assign []int        // Refit's nearest-centroid assignment
	add    []geo.Point  // the centroids a split round adds
	fit    regress.Fitter

	// The warm start: per centroid of the predecessor's cover, the tuples
	// it wins, and the centroids that survive the prune.
	wins  []int
	start []geo.Point

	// The observations grouped by region: the t, x, y and s columns,
	// len(w) each, in cols; region j's rows end at ends[j] and start where
	// j-1's end.
	cols []float64
	ends []int

	// The round's regions, one per cluster (n is 0 where the cluster is
	// empty), with the coefficients their models view, d per region.
	regions []regionFit
	coefs   []float64
	worst   []worstTuple
}

// regionFit is one cluster's fit in the split round in progress.
type regionFit struct {
	centroid geo.Point
	model    regress.Model // a view over the cluster's share of Builder.coefs
	err      float64       // approximation error
	n        int           // tuples; 0 where the cluster is empty
}

// worstTuple is the position with the largest model error among the tuples
// of one cluster that is due for a split.
type worstTuple struct {
	pos geo.Point
	err float64
	bad bool
}

// BuildCover is the package-level BuildCover on b's scratch.
func (b *Builder) BuildCover(w tuple.Batch, c int, h float64, cfg Config) (*Cover, error) {
	return b.BuildFrom(w, c, h, cfg, nil)
}

// BuildFrom is BuildCover for window c of a cover chain, warm-started
// from prev, the chain's cover of window c−1 (nil when that window holds
// no tuples). It keeps the centroids of prev that win at least
// warmWins·MinRegionTuples of w's tuples (kmeans.Nearest), runs Lloyd
// from them (kmeans.Clusterer.RunFrom) and then the split rounds
// BuildCover runs. The start is cold — BuildFrom is BuildCover, bit for
// bit — when c anchors its chain, prev is nil, or fewer than InitialK
// centroids survive. A build allocates nothing beyond the cover: the
// prune works in b's scratch.
func (b *Builder) BuildFrom(w tuple.Batch, c int, h float64, cfg Config, prev *Cover) (*Cover, error) {
	cfg = cfg.withDefaults()
	if err := checkWindow(w, h); err != nil {
		return nil, err
	}
	pts := b.positions(w)
	return b.buildFrom(w, pts, c, h, cfg, b.warmStart(pts, c, cfg, prev))
}

// warmStart returns, in b's scratch, the centroids of prev that win at
// least warmWins·MinRegionTuples of the tuples at pts, in prev's order:
// where window c's build starts. It returns nil, a cold start, when c
// anchors its chain, prev is nil, or fewer than InitialK (or more than
// MaxK, for a prev of another configuration) survive. cfg has its
// defaults.
func (b *Builder) warmStart(pts []geo.Point, c int, cfg Config, prev *Cover) []geo.Point {
	if prev == nil || prev.Size() == 0 || chainOffset(c) == 0 {
		return nil
	}
	b.wins = slices.Grow(b.wins[:0], prev.Size())[:prev.Size()]
	clear(b.wins)
	b.near.Reset(prev.Centroids)
	for _, p := range pts {
		b.wins[b.near.Nearest(p)]++
	}
	b.start = b.start[:0]
	for j, n := range b.wins {
		if n >= warmWins*cfg.MinRegionTuples {
			b.start = append(b.start, prev.Centroids[j])
		}
	}
	if len(b.start) < cfg.InitialK || len(b.start) > cfg.MaxK {
		return nil
	}
	return b.start
}

// chainWord is the Config word of a checkpoint seed of window c's cover
// built from prev, the chain's cover of window c−1 (nil when that window
// holds no tuples), under the configuration whose fingerprint is fp: fp
// XOR an FNV-1a hash of the bits of prev's centroids, or fp alone when c
// anchors its chain or prev is nil. A chained build's start is a function
// of those centroids and of the window's tuples, which the seed's count
// pins, so a seed is refitted only over the predecessor it was built
// from — and checking that costs no pass over the window.
func chainWord(fp uint64, c int, prev *Cover) uint64 {
	if prev == nil || chainOffset(c) == 0 {
		return fp
	}
	h := uint64(14695981039346656037)
	for _, p := range prev.Centroids {
		for _, v := range [2]uint64{math.Float64bits(p.X), math.Float64bits(p.Y)} {
			for range 8 {
				h = (h ^ v&0xff) * 1099511628211
				v >>= 8
			}
		}
	}
	return fp ^ h
}

// buildFrom runs Ad-KMN over w, whose tuple positions are pts, from the
// centroids start — k-means++ seeds when start is nil — with cfg's
// defaults applied.
func (b *Builder) buildFrom(w tuple.Batch, pts []geo.Point, c int, h float64, cfg Config, start []geo.Point) (*Cover, error) {
	// MaxK caps the cover size from the start: the initial k must respect
	// it too, and neither may exceed the tuple count. A warm start does:
	// it is at most MaxK centroids that each won warmWins·MinRegionTuples
	// tuples.
	maxK := min(cfg.MaxK, len(pts))
	b.km.Reserve(len(pts), maxK)
	b.reserve(len(w), maxK, cfg.Features.Dim())
	var res *kmeans.Result
	var err error
	if start == nil {
		res, err = b.km.Run(pts, min(cfg.InitialK, maxK), cfg.Cluster)
	} else {
		res, err = b.km.RunFrom(pts, start, cfg.Cluster)
	}
	if err != nil {
		return nil, fmt.Errorf("core: initial clustering: %w", err)
	}

	normalSpan := normalSpanFor(w, cfg)
	var rounds int
	for rounds = 0; ; rounds++ {
		if err := b.fitRegions(w, res, cfg, normalSpan); err != nil {
			return nil, err
		}
		if rounds >= cfg.MaxRounds || len(res.Centroids) >= maxK {
			break
		}
		// Collect one split point per offending region: the worst-error
		// tuple position in that region (Figure 2's "positions with worst
		// error" become the injected centroids).
		b.add = b.add[:0]
		b.splitCandidates(w, res, cfg, maxK-len(res.Centroids))
		if len(b.add) == 0 {
			break // every region meets τn
		}
		// Lloyd continues from the round's converged state.
		res, err = b.km.Split(pts, b.add, cfg.Cluster)
		if err != nil {
			return nil, fmt.Errorf("core: re-estimate after split: %w", err)
		}
	}
	cv := b.cover(w, c, h, cfg)
	cv.Rounds = rounds
	return cv, nil
}

// Refit is BuildCover for a window whose build converged on centroids in
// rounds split rounds: it skips the search for the regions — seeding and
// every Lloyd round — and gives each tuple to its nearest centroid
// (kmeans.Nearest, found by the pruned kmeans.Index, which answers as it
// does) and fits one model per region, as the build's last
// round did. For the centroids and rounds of the cover BuildCover or
// BuildFrom gave over w with cfg it returns that cover, bit for bit: the
// bounded Lloyd's final assignment is Nearest over the converged
// centroids, the regions are fit in the same order over the same tuples,
// and a region the build dropped as empty never won a tuple, so leaving it
// out moves none. A centroid that wins no tuple here means the centroids
// are not of this window; Refit refuses them.
func (b *Builder) Refit(w tuple.Batch, c int, h float64, cfg Config, centroids []geo.Point, rounds int) (*Cover, error) {
	cfg = cfg.withDefaults()
	if err := checkWindow(w, h); err != nil {
		return nil, err
	}
	k := len(centroids)
	if k == 0 || k > min(cfg.MaxK, len(w)) {
		return nil, fmt.Errorf("core: refit %d centroids over %d tuples (MaxK %d)", k, len(w), cfg.MaxK)
	}
	pts := b.positions(w)
	b.assign = slices.Grow(b.assign[:0], len(pts))[:len(pts)]
	b.near.Reset(centroids)
	for i, p := range pts {
		b.assign[i] = b.near.Nearest(p)
	}
	b.reserve(len(w), k, cfg.Features.Dim())
	res := kmeans.Result{Centroids: centroids, Assign: b.assign}
	if err := b.fitRegions(w, &res, cfg, normalSpanFor(w, cfg)); err != nil {
		return nil, err
	}
	for j, r := range b.regions {
		if r.n == 0 {
			return nil, fmt.Errorf("core: refit region %d wins no tuple", j)
		}
	}
	cv := b.cover(w, c, h, cfg)
	cv.Rounds = rounds
	return cv, nil
}

// seed is what a checkpoint keeps of cv, a cover built over n tuples, for
// Refit to fit it again; word is its chainWord. It shares cv's centroids,
// which a cover never modifies.
func (cv *Cover) seed(n int, word uint64) colblock.Seed {
	return colblock.Seed{Count: n, Config: word, Rounds: cv.Rounds, Centroids: cv.Centroids}
}

func checkWindow(w tuple.Batch, h float64) error {
	if len(w) == 0 {
		return errors.New("core: cannot build a cover over an empty window")
	}
	if h <= 0 {
		return fmt.Errorf("core: window length %v, want > 0", h)
	}
	return nil
}

// positions extracts the tuple positions into b's array.
func (b *Builder) positions(w tuple.Batch) []geo.Point {
	if cap(b.pts) < len(w) {
		b.pts = make([]geo.Point, len(w))
	}
	pts := b.pts[:len(w)]
	for i, r := range w {
		pts[i] = r.Pos()
	}
	return pts
}

// reserve sizes the scratch fitRegions and splitCandidates use for a
// window of n tuples, at most k clusters and d coefficients per model.
func (b *Builder) reserve(n, k, d int) {
	if cap(b.cols) < 4*n {
		b.cols = make([]float64, 4*n)
	}
	if cap(b.ends) < k {
		b.ends = make([]int, k)
		b.worst = make([]worstTuple, k)
		b.regions = make([]regionFit, k)
	}
	if cap(b.coefs) < k*d {
		b.coefs = make([]float64, k*d)
	}
}

// cover returns the cover of window c made of the non-empty regions
// fitRegions last fitted, copied out of b's scratch into columns of their
// own: one array for the centroids, one for the coefficients followed by
// the approximation errors, and one for the tuple counts.
func (b *Builder) cover(w tuple.Batch, c int, h float64, cfg Config) *Cover {
	size := 0
	for _, r := range b.regions {
		if r.n > 0 {
			size++
		}
	}
	d := cfg.Features.Dim()
	centroids := make([]geo.Point, size)
	floats := make([]float64, size*d+size)
	coefs, errs := floats[:size*d:size*d], floats[size*d:]
	ns := make([]int32, size)
	i := 0
	for j, r := range b.regions {
		if r.n == 0 {
			continue
		}
		centroids[i] = r.centroid
		copy(coefs[i*d:(i+1)*d], b.coefs[j*d:(j+1)*d])
		errs[i] = r.err
		ns[i] = int32(r.n)
		i++
	}
	start, end := tuple.WindowBounds(c, h)
	lo, hi := clampRange(w)
	return &Cover{
		Pollutant:    cfg.Pollutant,
		WindowIndex:  c,
		ValidFrom:    start,
		ValidUntil:   end,
		Features:     cfg.Features,
		Centroids:    centroids,
		Coefs:        coefs,
		ApproxErrors: errs,
		N:            ns,
		ValueLo:      lo,
		ValueHi:      hi,
	}
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

// fitRegions fits one model per cluster of res into b.regions, which
// reserve has sized, and computes approximation errors. Clusters with
// fewer than 2·dim observations get a mean-only model in the same feature
// family: a full regression on a handful of points extrapolates wildly
// outside its cluster.
func (b *Builder) fitRegions(w tuple.Batch, res *kmeans.Result, cfg Config, normalSpan float64) error {
	f := cfg.Features
	n, k, d := len(w), len(res.Centroids), f.Dim()
	// Gather per-region observation columns by counting sort on the
	// assignment (counted from Assign: a synthesized Result has no Sizes).
	// Rows are filled in tuple order, so every region sums its
	// observations in the order appending them would have given.
	ts, xs, ys, ss := b.cols[:n], b.cols[n:2*n], b.cols[2*n:3*n], b.cols[3*n:4*n]
	ends := b.ends[:k]
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
	b.regions = b.regions[:k]
	lo := 0
	for j, hi := range ends {
		ots, oxs, oys, oss := ts[lo:hi], xs[lo:hi], ys[lo:hi], ss[lo:hi]
		lo = hi
		if len(oss) == 0 {
			// Lloyd re-seeds empty clusters, so this only occurs when two
			// centroids coincide; such a region contributes nothing and is
			// dropped from the cover.
			b.regions[j] = regionFit{}
			continue
		}
		coef := b.coefs[j*d : (j+1)*d]
		var err error
		if len(oss) < 2*d {
			err = regress.MeanInto(coef, f, oss)
		} else {
			err = b.fit.Fit(coef, f, ots, oxs, oys, oss)
		}
		if err != nil {
			return fmt.Errorf("core: fit region %d: %w", j, err)
		}
		m := regress.View(f, coef)
		var absErr float64
		for i := range oss {
			d := m.Predict(ots[i], oxs[i], oys[i]) - oss[i]
			if d < 0 {
				d = -d
			}
			absErr += d
		}
		b.regions[j] = regionFit{
			centroid: res.Centroids[j],
			model:    m,
			err:      absErr / float64(len(oss)) / normalSpan,
			n:        len(oss),
		}
	}
	return nil
}

// splitCandidates appends to b.add new centroid positions for regions
// whose approximation error exceeds τn, at most budget of them. Regions
// below MinRegionTuples are never split: their residual error is noise,
// not structure.
func (b *Builder) splitCandidates(w tuple.Batch, res *kmeans.Result, cfg Config, budget int) {
	tau := cfg.ErrThreshold
	// For each offending cluster, find its worst-error tuple position.
	worst := b.worst[:len(res.Centroids)]
	clear(worst)
	for i, r := range w {
		a := res.Assign[i]
		reg := &b.regions[a]
		if reg.err <= tau || reg.n < cfg.MinRegionTuples {
			continue
		}
		d := reg.model.Predict(r.T, r.X, r.Y) - r.S
		if d < 0 {
			d = -d
		}
		if !worst[a].bad || d > worst[a].err {
			worst[a] = worstTuple{pos: r.Pos(), err: d, bad: true}
		}
	}
	for a := range worst {
		if len(b.add) >= budget {
			break
		}
		// Do not inject a centroid that coincides with the existing one:
		// it would create a duplicate cluster with no splitting effect.
		if worst[a].bad && worst[a].pos != res.Centroids[a] {
			b.add = append(b.add, worst[a].pos)
		}
	}
}
