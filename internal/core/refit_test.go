package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/kmeans"
	"repro/internal/regress"
	"repro/internal/tuple"
)

// requireRefitIsBuild builds w's cover from prev (BuildFrom; cold when
// prev is nil), refits it from the seed a
// checkpoint would keep of it, and requires the two to be the same cover:
// the same digest and every column deep-equal. It reports whether the
// build started warm, whether it dropped an empty region and the smallest
// region's tuple count.
func requireRefitIsBuild(t *testing.T, name string, w tuple.Batch, c int, h float64, cfg Config, prev *Cover) (warm, dropped bool, smallest int32) {
	t.Helper()
	var b Builder
	want, err := b.BuildFrom(w, c, h, cfg, prev)
	warm = b.warmStart(b.positions(w), c, cfg.withDefaults(), prev) != nil
	if err != nil {
		t.Fatalf("%s: build: %v", name, err)
	}
	dropped = len(b.regions) > want.Size()
	sd := want.seed(len(w), cfg.fingerprint())
	got, err := new(Builder).Refit(w, c, h, cfg, sd.Centroids, sd.Rounds)
	if err != nil {
		t.Fatalf("%s: refit: %v", name, err)
	}
	if coverDigest(got) != coverDigest(want) || !reflect.DeepEqual(got, want) {
		t.Errorf("%s: refit %d regions, %d rounds, digest %s; build %d regions, %d rounds, digest %s",
			name, got.Size(), got.Rounds, coverDigest(got), want.Size(), want.Rounds, coverDigest(want))
	}
	smallest = math.MaxInt32
	for _, n := range want.N {
		smallest = min(smallest, n)
	}
	return warm, dropped, smallest
}

// TestRefitMatchesBuild: a cover refitted from its own seed is the cover
// the build gave, bit for bit — on the benchmark fleet's 24 Lausanne
// windows, on each window's three thirds by position (what a node of a
// three-node ring holds of it), and on windows whose points repeat and
// line up, where clusters collide and regions fall empty or shrink to a
// tuple. At least one build must drop an empty region and one keep a
// one-tuple region, or the test would not see a seed that loses the one
// or keeps the other.
func TestRefitMatchesBuild(t *testing.T) {
	anyDropped, anySingle := false, false
	note := func(_, dropped bool, smallest int32) {
		anyDropped = anyDropped || dropped
		anySingle = anySingle || smallest == 1
	}
	for c, w := range lausanneWindows() {
		note(requireRefitIsBuild(t, fmt.Sprintf("hour%02d", c), w, c, 3600, lausanneConfig, nil))
		lo, hi := w[0].X, w[0].X
		for _, r := range w {
			lo, hi = min(lo, r.X), max(hi, r.X)
		}
		var thirds [3]tuple.Batch
		for _, r := range w {
			i := min(int(3*(r.X-lo)/(hi-lo)), 2)
			thirds[i] = append(thirds[i], r)
		}
		for i, part := range thirds {
			if len(part) > 0 {
				note(requireRefitIsBuild(t, fmt.Sprintf("hour%02d/third%d", c, i), part, c, 3600, lausanneConfig, nil))
			}
		}
	}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{InitialK: 1 + rng.Intn(6), MaxK: 4 + rng.Intn(40), ErrThreshold: 0.005, Cluster: clusterSeed(seed)}
		note(requireRefitIsBuild(t, fmt.Sprintf("duplicated/%d", seed), duplicatedWindow(rng, 40+rng.Intn(300)), 0, 1000, cfg, nil))
		note(requireRefitIsBuild(t, fmt.Sprintf("collinear/%d", seed), collinearWindow(rng, 40+rng.Intn(300)), 0, 1000, cfg, nil))
	}
	if !anyDropped || !anySingle {
		t.Errorf("no build dropped an empty region (%v) or kept a one-tuple region (%v)", anyDropped, anySingle)
	}
}

// duplicatedWindow returns n tuples at a handful of positions, each
// repeated many times with its own time and value, so centroids coincide.
func duplicatedWindow(rng *rand.Rand, n int) tuple.Batch {
	sites := make([][2]float64, 2+rng.Intn(6))
	for i := range sites {
		sites[i] = [2]float64{math.Round(rng.Float64() * 2000), math.Round(rng.Float64() * 2000)}
	}
	w := make(tuple.Batch, n)
	for i := range w {
		s := sites[rng.Intn(len(sites))]
		w[i] = tuple.Raw{T: float64(i) * 1000 / float64(n), X: s[0], Y: s[1], S: 400 + 50*rng.NormFloat64()}
	}
	return w
}

// collinearWindow returns n tuples on one line, a third of them on a
// few repeated points of it.
func collinearWindow(rng *rand.Rand, n int) tuple.Batch {
	x0, y0 := rng.Float64()*1000, rng.Float64()*1000
	dx, dy := rng.NormFloat64(), rng.NormFloat64()
	w := make(tuple.Batch, n)
	for i := range w {
		u := rng.Float64() * 1500
		if i%3 == 0 {
			u = float64(rng.Intn(4)) * 400
		}
		w[i] = tuple.Raw{T: float64(i) * 1000 / float64(n), X: x0 + u*dx, Y: y0 + u*dy, S: 400 + math.Sin(u/200)*80 + rng.NormFloat64()}
	}
	return w
}

// TestRefitRefusesForeignCentroids: centroids that are not the window's —
// one of them far from every tuple, so it wins none — are refused, and so
// are none at all or more than MaxK.
func TestRefitRefusesForeignCentroids(t *testing.T) {
	w := lausanneWindows()[8]
	cv, err := BuildCover(w, 8, 3600, lausanneConfig)
	if err != nil {
		t.Fatal(err)
	}
	far := append(cv.Centroids[:len(cv.Centroids):len(cv.Centroids)], cv.Centroids[0])
	far[len(far)-1].X += 1e9
	for _, tc := range []struct {
		name string
		c    int
	}{{"a centroid that wins no tuple", len(far)}, {"no centroids", 0}} {
		if _, err := new(Builder).Refit(w, 8, 3600, lausanneConfig, far[:tc.c], cv.Rounds); err == nil {
			t.Errorf("%s: refit accepted", tc.name)
		}
	}
	small := lausanneConfig
	small.MaxK = cv.Size() - 1
	if _, err := new(Builder).Refit(w, 8, 3600, small, cv.Centroids, cv.Rounds); err == nil {
		t.Error("more centroids than MaxK: refit accepted")
	}
}

// TestConfigFingerprint: the fingerprint follows every field that shapes a
// build, and sees a field left zero and its default as the same.
func TestConfigFingerprint(t *testing.T) {
	base := Config{}.fingerprint()
	if (Config{InitialK: 2, MaxK: 64, ErrThreshold: 0.02}).fingerprint() != base {
		t.Error("explicit defaults fingerprint differently from zero fields")
	}
	for name, cfg := range map[string]Config{
		"InitialK": {InitialK: 3}, "MaxK": {MaxK: 32}, "ErrThreshold": {ErrThreshold: 0.03},
		"Pollutant": {Pollutant: tuple.PM}, "NormalSpan": {NormalSpan: 100}, "MaxRounds": {MaxRounds: 5},
		"MinRegionTuples": {MinRegionTuples: 8}, "Cluster.Seed": {Cluster: clusterSeed(9)},
		"Features":              {Features: regress.LinearT},
		"Cluster.MaxIterations": {Cluster: kmeans.Config{MaxIterations: 7}},
		"Cluster.Tolerance":     {Cluster: kmeans.Config{Tolerance: 2}},
	} {
		if cfg.fingerprint() == base {
			t.Errorf("%s: a changed field leaves the fingerprint as it was", name)
		}
	}
}
