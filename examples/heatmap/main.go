// Heatmap: the web-interface scenario (§3, Figure 5b).
//
// Build the model cover over a window of community-sensed data, rasterize
// it into a city heatmap, write it as a PNG on the app's green-to-red
// scale, and list the "emitting points" — the Ad-KMN centroids with their
// pollution levels — exactly what the demo's heatmap visualization showed.
//
// Run with: go run ./examples/heatmap [-out heatmap.png]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"repro"
	"repro/internal/heatmap"
)

func main() {
	out := flag.String("out", "heatmap.png", "output PNG path")
	flag.Parse()

	ctx := context.Background()
	platform, err := repro.Open(repro.Config{WindowSeconds: 4 * 3600})
	if err != nil {
		log.Fatal(err)
	}
	defer platform.Close()

	readings, err := repro.SimulateLausanne(11, 8*3600)
	if err != nil {
		log.Fatal(err)
	}
	if err := platform.Ingest(ctx, repro.CO2, readings); err != nil {
		log.Fatal(err)
	}

	// Rasterize the cover seven hours into the stream, over the sensed
	// region.
	const t = 7 * 3600
	grid, err := platform.Heatmap(ctx, repro.CO2, t, 256, 192)
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if err := grid.WritePNG(f, repro.CO2); err != nil {
		f.Close()
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	min, max := grid.MinMax()
	fmt.Printf("wrote %s (%dx%d, CO2 %.0f–%.0f ppm)\n", *out, grid.Cols, grid.Rows, min, max)

	// The emitting points: centroids computed by Ad-KMN with their levels.
	cover, err := platform.Cover(ctx, repro.CO2, t)
	if err != nil {
		log.Fatal(err)
	}
	markers, err := heatmap.Markers(cover, t)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d emitting points (Ad-KMN centroids):\n", len(markers))
	for i, m := range markers {
		if i >= 10 {
			fmt.Printf("  … and %d more\n", len(markers)-10)
			break
		}
		fmt.Printf("  (%7.0f, %7.0f)  %6.0f ppm  %s\n", m.Pos.X, m.Pos.Y, m.Value, m.Band)
	}
}
