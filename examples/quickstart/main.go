// Quickstart: the minimal end-to-end EnviroMeter flow on the v1 API.
//
// Simulate a morning of community-sensed CO2 data, ingest it into the
// platform, and ask for the pollution at a position — first as a raw
// value, then with the OSHA classification the app displays.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	ctx := context.Background()

	// A platform with one-hour modeling windows, in memory. Without
	// Config.Pollutants it monitors CO2 alone.
	platform, err := repro.Open(repro.Config{WindowSeconds: 3600})
	if err != nil {
		log.Fatal(err)
	}
	defer platform.Close()

	// Six hours of the simulated Lausanne deployment: two bus lines, four
	// vehicles, one CO2 sample per vehicle per minute.
	readings, err := repro.SimulateLausanne(42, 6*3600)
	if err != nil {
		log.Fatal(err)
	}
	if err := platform.Ingest(ctx, repro.CO2, readings); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d raw tuples\n", platform.Len())

	// Point query: the CO2 concentration near the city-center plume at
	// 05:30 into the stream (t = 19800 s), answered from the window's
	// Ad-KMN model cover. The zero Pollutant of a Request is CO2. Nobody
	// has read these windows yet, so this first query models the window
	// (and the earlier windows its cover is chained from) on its way.
	req := repro.Request{T: 19800, X: 1200, Y: 800, Pollutant: repro.CO2}
	value, err := platform.Query(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	band := repro.ClassifyCO2(value)
	fmt.Printf("CO2 at (%.0f m, %.0f m) at t=%.0fs: %.0f ppm [%s]\n",
		req.X, req.Y, req.T, value, band)
	fmt.Println(band.Advice())

	// From now on those covers are held: more readings for their windows
	// are modeled in the background (see Config.Maintenance to tune or
	// disable this), and until a rebuild lands the previous cover keeps
	// answering. WaitMaintenance is the barrier after which every answer
	// reflects every acknowledged reading.
	more, err := repro.SimulateLausanne(43, 6*3600)
	if err != nil {
		log.Fatal(err)
	}
	if err := platform.Ingest(ctx, repro.CO2, more); err != nil {
		log.Fatal(err)
	}
	platform.WaitMaintenance()
	fmt.Printf("ingested %d more; background builds: %d covers ready\n",
		len(more), platform.MaintenanceStats().Built)

	// The model cover behind that answer.
	cover, err := platform.Cover(ctx, repro.CO2, req.T)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model cover: %d regions, valid until t=%.0fs, built in %d adaptive rounds\n",
		cover.Size(), cover.ValidUntil, cover.Rounds)
}
