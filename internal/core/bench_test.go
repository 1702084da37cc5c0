package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
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

// BenchmarkBuildCoverLausanne builds the 24 corridor windows of the
// end-to-end benchmark's fleet in turn, as its servers do (run it with
// -benchtime 240x or another multiple of 24 so every run builds the same
// mix). The uniform window above under-reports what a change to the build
// kernel does end to end: on two bus lines most points sit far nearer to
// one centroid than to the next.
func BenchmarkBuildCoverLausanne(b *testing.B) {
	ws := lausanneWindows()
	var rounds, regions int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := i % len(ws)
		cv, err := BuildCover(ws[c], c, 3600, lausanneConfig)
		if err != nil {
			b.Fatal(err)
		}
		rounds += cv.Rounds
		regions += cv.Size()
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
	b.ReportMetric(float64(regions)/float64(b.N), "regions/op")
}

// BenchmarkBuildDay builds the 24 covers of one day of the end-to-end
// benchmark's fleet (16 buses sampling every 30 s) on one Builder, cold —
// each window from no predecessor, as before cover chains — and chained —
// each from its predecessor's cover, as a store's maintainer builds them
// — for fleet seeds 1, 37 and 53. It reports the day's milliseconds, split
// rounds and regions.
func BenchmarkBuildDay(b *testing.B) {
	for _, seed := range []int64{1, 37, 53} {
		data, err := sim.Generate(lausanneFleet(seed))
		if err != nil {
			b.Fatal(err)
		}
		ws := hourWindows(data)
		for _, chained := range []bool{false, true} {
			name := map[bool]string{false: "cold", true: "chained"}[chained]
			b.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(b *testing.B) {
				var bl Builder
				var rounds, regions int
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rounds, regions = 0, 0
					var prev *Cover
					for c, w := range ws {
						cv, err := bl.BuildFrom(w, c, 3600, lausanneConfig, prev)
						if err != nil {
							b.Fatal(err)
						}
						if chained {
							prev = cv
						}
						rounds += cv.Rounds
						regions += cv.Size()
					}
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/day")
				b.ReportMetric(float64(rounds), "rounds")
				b.ReportMetric(float64(regions), "regions")
			})
		}
	}
}

// BenchmarkRefitDay refits every window of the golden day (the
// benchmark fleet, seed 1) from the centroids and rounds of its own
// chained build: the work a restart does per checkpointed window.
func BenchmarkRefitDay(b *testing.B) {
	ws := lausanneWindows()
	var bl Builder
	covers := make([]*Cover, len(ws))
	var prev *Cover
	for c, w := range ws {
		cv, err := bl.BuildFrom(w, c, 3600, lausanneConfig, prev)
		if err != nil {
			b.Fatal(err)
		}
		covers[c], prev = cv, cv
	}
	b.ReportAllocs()
	for b.Loop() {
		for c, w := range ws {
			if _, err := bl.Refit(w, c, 3600, lausanneConfig, covers[c].Centroids, covers[c].Rounds); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/day")
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
	_, m := warmRestartedMaintainer(b, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.CoverAt(float64(i % 400)); err != nil {
			b.Fatal(err)
		}
	}
}
