package colblock

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/sim"
	"repro/internal/tuple"
)

// lausanneWindows returns the first day of the end-to-end benchmark's own
// fleet as 24 one-hour windows in append order: sim.DefaultLausanne(1),
// lines 0 and 2 served by 16 buses sampling every 30 s (benchmark/gen.go's
// fleet; internal/core's goldens use the same day). It is what a
// production checkpoint holds — ≈ 1 890 tuples a window on two polylines.
var lausanneWindows = sync.OnceValue(func() []testWindow {
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
	ws := make([]testWindow, hours)
	for c := range ws {
		ws[c].Window = c
	}
	for _, r := range data {
		c := tuple.WindowIndex(r.T, windowLen)
		ws[c].Tuples = append(ws[c].Tuples, r)
	}
	return ws
})

// lausanneRegions are the region counts of the covers Ad-KMN builds over
// lausanneWindows, hour by hour — internal/core's
// TestLausanneCoversMatchParentGolden pins them. A checkpoint's seed
// record for a window holds one centroid per region.
var lausanneRegions = [24]int{22, 28, 17, 15, 13, 16, 13, 16, 18, 64, 64, 64, 64, 64, 64, 64, 64, 57, 64, 9, 14, 11, 15, 20}

// TestCheckpointBytesPerTupleLausanne holds the file the benchmark's 24
// windows encode to, each with the seed of its cover, under 23 bytes a
// tuple (version 2 wrote 28.07, version 3 23.91 without seeds): an
// encoder change that widens a column fails here, not only in the
// end-to-end benchmark's disk_bytes_per_tuple. The log says where the
// bytes go, column by column, and what the seeds take.
func TestCheckpointBytesPerTupleLausanne(t *testing.T) {
	ws := slices.Clone(lausanneWindows())
	for c := range ws {
		sd := Seed{Count: len(ws[c].Tuples), Config: 1, Rounds: 9}
		for _, r := range ws[c].Tuples[:lausanneRegions[c]] {
			sd.Centroids = append(sd.Centroids, r.Pos())
		}
		ws[c].Seed = sd
	}
	var buf bytes.Buffer
	st, err := Encode(&buf, Meta{Seq: 1}, windowData(ws...))
	if err != nil {
		t.Fatal(err)
	}
	var colBytes [4]int
	for _, cols := range blockColumns(t, buf.Bytes()) {
		for i, col := range cols {
			colBytes[i] += 4 + 8 + len(col.data) // header, base, offsets
		}
	}
	seedBytes := 0
	for _, c := range lausanneRegions {
		seedBytes += seedFixed + seedRegion*c + dirEntrySize
	}
	n := float64(st.Tuples)
	perTuple := float64(st.Bytes) / n
	t.Logf("%d tuples, %d bytes: %.3f B/tuple; per column T %.2f X %.2f Y %.2f S %.2f; seeds %.2f",
		st.Tuples, st.Bytes, perTuple, float64(colBytes[0])/n, float64(colBytes[1])/n,
		float64(colBytes[2])/n, float64(colBytes[3])/n, float64(seedBytes)/n)
	if perTuple > 23.0 {
		t.Errorf("the benchmark's 24 windows and their seeds encode to %.3f bytes a tuple, want ≤ 23.0", perTuple)
	}
}
