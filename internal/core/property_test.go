package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/geo"
	"repro/internal/tuple"
)

// randomWindow builds a random but valid window from a seed.
func randomWindow(seed int64, n int) tuple.Batch {
	rng := rand.New(rand.NewSource(seed))
	w := make(tuple.Batch, n)
	for i := range w {
		w[i] = tuple.Raw{
			T: rng.Float64() * 1000,
			X: rng.Float64() * 3000,
			Y: rng.Float64() * 3000,
			S: 400 + rng.Float64()*600,
		}
	}
	return w
}

// TestCoverInvariants checks, across random windows and configurations,
// the structural invariants every Ad-KMN cover must satisfy.
func TestCoverInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(300)
		w := randomWindow(seed, n)
		cfg := Config{
			InitialK:        1 + rng.Intn(4),
			MaxK:            2 + rng.Intn(30),
			ErrThreshold:    0.005 + rng.Float64()*0.1,
			MinRegionTuples: 2 + rng.Intn(20),
			Cluster:         clusterSeed(seed),
		}
		cv, err := BuildCover(w, 0, 2000, cfg)
		if err != nil {
			return false
		}
		// 1. Cover size within [1, min(MaxK, n)].
		maxK := cfg.MaxK
		if maxK > n {
			maxK = n
		}
		if cv.Size() < 1 || cv.Size() > maxK {
			return false
		}
		// 2. Region tuple counts sum to n.
		total := 0
		if len(cv.N) != cv.Size() || len(cv.Coefs) != cv.Size()*cv.Features.Dim() {
			return false
		}
		for _, rn := range cv.N {
			if rn <= 0 {
				return false
			}
			total += int(rn)
		}
		if total != n {
			return false
		}
		// 3. Validity matches the window bounds.
		if cv.ValidFrom != 0 || cv.ValidUntil != 2000 {
			return false
		}
		// 4. Interpolations are clamped to the announced range.
		for trial := 0; trial < 20; trial++ {
			v, err := cv.Interpolate(rng.Float64()*2000, rng.Float64()*5000-1000, rng.Float64()*5000-1000)
			if err != nil {
				return false
			}
			if v < cv.ValueLo-1e-9 || v > cv.ValueHi+1e-9 {
				return false
			}
		}
		// 5. NearestRegion is a true argmin over centroids.
		for trial := 0; trial < 20; trial++ {
			p := geo.Point{X: rng.Float64() * 4000, Y: rng.Float64() * 4000}
			got := cv.NearestRegion(p)
			best, bestD := 0, cv.Centroids[0].Dist2(p)
			for i, c := range cv.Centroids {
				if d := c.Dist2(p); d < bestD {
					best, bestD = i, d
				}
			}
			if cv.Centroids[got].Dist2(p) != cv.Centroids[best].Dist2(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestCoverDeterminism: the same window and config always produce the
// same cover — required for the reproducibility of every experiment.
func TestCoverDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		w := randomWindow(seed, 200)
		cfg := Config{Cluster: clusterSeed(seed)}
		a, err1 := BuildCover(w, 0, 2000, cfg)
		b, err2 := BuildCover(w, 0, 2000, cfg)
		if err1 != nil || err2 != nil {
			return false
		}
		if a.Size() != b.Size() || a.Rounds != b.Rounds {
			return false
		}
		if !slices.Equal(a.Centroids, b.Centroids) || !slices.Equal(a.Coefs, b.Coefs) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestTighterThresholdNeverFewerModels: decreasing τn (holding everything
// else fixed) cannot shrink the cover — adaptation is monotone in the
// threshold.
func TestTighterThresholdNeverFewerModels(t *testing.T) {
	f := func(seed int64) bool {
		w := randomWindow(seed, 300)
		loose, err := BuildCover(w, 0, 2000, Config{
			ErrThreshold: 0.10, MinRegionTuples: 4, Cluster: clusterSeed(seed)})
		if err != nil {
			return false
		}
		tight, err := BuildCover(w, 0, 2000, Config{
			ErrThreshold: 0.01, MinRegionTuples: 4, Cluster: clusterSeed(seed)})
		if err != nil {
			return false
		}
		return tight.Size() >= loose.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
