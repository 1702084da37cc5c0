package core

import (
	"math/rand"
	"testing"

	"repro/internal/tuple"
)

func benchWindow(n int) tuple.Batch {
	rng := rand.New(rand.NewSource(1))
	w := make(tuple.Batch, n)
	for i := range w {
		x, y := rng.Float64()*4000, rng.Float64()*4000
		w[i] = tuple.Raw{T: rng.Float64() * 3600, X: x, Y: y,
			S: 420 + 0.05*x + rng.NormFloat64()*12}
	}
	return w
}

func BenchmarkBuildCover1000(b *testing.B) {
	w := benchWindow(1000)
	cfg := Config{Cluster: clusterSeed(1)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildCover(w, 0, 3600, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpolate(b *testing.B) {
	w := benchWindow(1000)
	cv, err := BuildCover(w, 0, 3600, Config{Cluster: clusterSeed(1)})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := float64(i % 1000)
		if _, err := cv.Interpolate(f, f*4, f*3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoverAtHit is the call the engine makes per query point, on a
// cached cover.
func BenchmarkCoverAtHit(b *testing.B) {
	_, m := lazyPrimedMaintainer(b, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.CoverAt(float64(i % 400)); err != nil {
			b.Fatal(err)
		}
	}
}
