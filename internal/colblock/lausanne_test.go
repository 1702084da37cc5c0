package colblock

import (
	"math/rand"
	"sync"

	"repro/internal/geo"
	"repro/internal/sim"
	"repro/internal/tuple"
)

// lausanneWindows returns the first day of the end-to-end benchmark's own
// fleet as 24 one-hour windows in append order: sim.DefaultLausanne(1),
// lines 0 and 2 served by 16 buses sampling every 30 s (benchmark/gen.go's
// fleet; internal/core's goldens use the same day). It is what a
// production checkpoint holds — ≈ 1 890 tuples a window on two polylines.
var lausanneWindows = sync.OnceValue(func() []WindowData {
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
	ws := make([]WindowData, hours)
	for c := range ws {
		ws[c].Window = c
	}
	for _, r := range data {
		c := tuple.WindowIndex(r.T, windowLen)
		ws[c].Tuples = append(ws[c].Tuples, r)
	}
	return ws
})
