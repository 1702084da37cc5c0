package core

import (
	"math/rand"
	"sync"

	"repro/internal/geo"
	"repro/internal/sim"
	"repro/internal/tuple"
)

// lausanneWindows returns the first day of the end-to-end benchmark's own
// fleet as 24 one-hour windows: sim.DefaultLausanne(1), lines 0 and 2
// served by 16 buses sampling every 30 s (benchmark/gen.go's fleet).
// Corridor data is what a production build sees — points on two
// polylines, where centroid bounds prune far more than on uniform noise.
var lausanneWindows = sync.OnceValue(func() []tuple.Batch {
	const (
		seed      = 1
		vehicles  = 16
		hours     = 24
		windowLen = 3600.0
	)
	cfg := sim.DefaultLausanne(seed)
	lines := []*geo.Polyline{cfg.Vehicles[0].Route, cfg.Vehicles[2].Route}
	rng := rand.New(rand.NewSource(seed))
	vs := make([]sim.Vehicle, vehicles)
	for i := range vs {
		line := lines[i%len(lines)]
		vs[i] = sim.Vehicle{
			Route:       line,
			SpeedMPS:    6 + 2*rng.Float64(),
			StartOffset: line.Length() * rng.Float64(),
		}
	}
	cfg.Vehicles = vs
	cfg.SamplingInterval = 30
	cfg.Duration = hours * windowLen
	data, err := sim.Generate(cfg)
	if err != nil {
		panic(err)
	}
	ws := make([]tuple.Batch, hours)
	for _, r := range data {
		c := tuple.WindowIndex(r.T, windowLen)
		ws[c] = append(ws[c], r)
	}
	return ws
})

// lausanneConfig is the Ad-KMN configuration the benchmark's servers
// build with.
var lausanneConfig = Config{Pollutant: tuple.CO2}
