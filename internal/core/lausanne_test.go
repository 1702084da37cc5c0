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
	data, err := sim.Generate(lausanneFleet(1))
	if err != nil {
		panic(err)
	}
	return hourWindows(data)
})

// lausanneHours is the number of one-hour windows lausanneFleet covers.
const lausanneHours = 24

// lausanneFleet is the benchmark fleet's deployment for seed: the CO2
// field, lines 0 and 2 of sim.DefaultLausanne(seed) served by 16 buses
// sampling every 30 s for lausanneHours.
func lausanneFleet(seed int64) sim.Config {
	const vehicles = 16
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
	cfg.Duration = lausanneHours * 3600
	return cfg
}

// hourWindows splits a day of data into its one-hour windows.
func hourWindows(data tuple.Batch) []tuple.Batch {
	ws := make([]tuple.Batch, lausanneHours)
	for _, r := range data {
		c := tuple.WindowIndex(r.T, 3600)
		ws[c] = append(ws[c], r)
	}
	return ws
}

// lausanneConfig is the Ad-KMN configuration the benchmark's servers
// build with.
var lausanneConfig = Config{Pollutant: tuple.CO2}
