package wire

// Round-trip and robustness tests for the cluster messages: ring
// exchange, wire ingest, heatmap scatter frames, and the Forwarded
// wrapper.

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/geo"
	"repro/internal/heatmap"
	"repro/internal/tuple"
)

func clusterMessages() []Message {
	return []Message{
		RingRequest{},
		RingResponse{
			Nodes:  []string{"10.0.0.1:8081", "10.0.0.2:8081", "edge.example:9000"},
			Cells:  []geo.Point{{X: -500, Y: 250}, {X: 900, Y: -1200}},
			VNodes: 64,
		},
		IngestRequest{
			Pollutant: tuple.PM,
			Tuples: []tuple.Raw{
				{T: 12, X: 1, Y: 2, S: 420},
				{T: 60, X: -3, Y: 4.5, S: 431.25},
			},
		},
		IngestResponse{Ingested: 2},
		HeatmapRequest{T: 1800, Pollutant: tuple.CO, Cols: 32, Rows: 16},
		HeatmapRequest{
			T: 1800, Pollutant: tuple.CO2, Cols: 4, Rows: 2, HasRegion: true,
			Region: geo.Rect{Min: geo.Point{X: -10, Y: -20}, Max: geo.Point{X: 30, Y: 40}},
		},
		HeatmapResponse{
			Region: geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 100, Y: 100}},
			Cols:   2, Rows: 2, T: 1800,
			Values: []float64{400, 410, 420, 430},
		},
		Forwarded{Inner: QueryRequest{T: 5, X: 6, Y: 7, Pollutant: tuple.PM}},
		Forwarded{Inner: IngestRequest{Pollutant: tuple.CO2, Tuples: []tuple.Raw{{T: 1, X: 2, Y: 3, S: 4}}}},
	}
}

func TestClusterMessageRoundTrip(t *testing.T) {
	for _, m := range clusterMessages() {
		enc, err := Binary.Encode(m)
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		dec, err := Binary.Decode(enc)
		if err != nil {
			t.Fatalf("decode %T: %v", m, err)
		}
		if !reflect.DeepEqual(m, dec) {
			t.Fatalf("round trip of %T:\n got %#v\nwant %#v", m, dec, m)
		}
	}
}

func TestForwardedNeverNests(t *testing.T) {
	inner := Forwarded{Inner: QueryRequest{T: 1}}
	if _, err := Binary.Encode(Forwarded{Inner: inner}); err == nil {
		t.Errorf("encoded a nested forwarded frame")
	}
	// A hand-crafted nested binary frame must be rejected, not recursed.
	innerB, err := Binary.Encode(inner)
	if err != nil {
		t.Fatal(err)
	}
	nested := append([]byte{byte(TypeForwarded), 3, 0, 0, 0, 0, 0, 0, 0}, innerB...)
	if _, err := Binary.Decode(nested); !errors.Is(err, ErrMalformed) {
		t.Errorf("nested forwarded frame decoded: %v", err)
	}
	if _, err := Binary.Encode(Forwarded{}); err == nil {
		t.Error("forwarded frame without inner message encoded")
	}
}

func TestClusterDecodeRobustness(t *testing.T) {
	cases := [][]byte{
		{byte(TypeRingRequest), 0},                       // trailing byte
		{byte(TypeRingResponse), 5, 0},                   // claims 5 nodes, has none
		{byte(TypeIngestRequest), 0},                     // truncated header
		{byte(TypeIngestRequest), 0, 255, 255, 255, 255}, // huge count, no body
		{byte(TypeIngestResponse), 1, 2},                 // short
		{byte(TypeHeatmapRequest), 1, 2, 3},              // short
		{byte(TypeHeatmapResponse), 0, 0},                // short header
		{byte(TypeForwarded)},                            // no epoch
		{byte(TypeForwarded), 1, 0, 0, 0, 0, 0, 0, 0},    // no inner
	}
	for _, data := range cases {
		if _, err := Binary.Decode(data); err == nil {
			t.Errorf("malformed frame % x decoded", data)
		}
	}
	// A heatmap response whose length disagrees with cols*rows is
	// rejected before allocation.
	hr, _ := Binary.Encode(HeatmapResponse{Cols: 1, Rows: 1, Values: []float64{1}})
	hr[33] = 0xFF // cols := 255
	hr[34] = 0xFF
	if _, err := Binary.Decode(hr); err == nil {
		t.Error("heatmap length mismatch decoded")
	}
}

func TestHeatmapGridConversion(t *testing.T) {
	g := &heatmap.Grid{
		Region: geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 10, Y: 10}},
		Cols:   2, Rows: 3, T: 60,
		Values: []float64{1, 2, 3, 4, 5, 6},
	}
	resp, err := HeatmapResponseFromGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	back := resp.Grid()
	if !reflect.DeepEqual(g, back) {
		t.Fatalf("grid conversion not a round trip:\n got %#v\nwant %#v", back, g)
	}
	if _, err := HeatmapResponseFromGrid(nil); err == nil {
		t.Error("nil grid converted")
	}
	if _, err := HeatmapResponseFromGrid(&heatmap.Grid{Cols: math.MaxUint16 + 1, Rows: 1}); err == nil {
		t.Error("oversized grid converted")
	}
	if _, err := Binary.Encode(HeatmapResponse{Cols: 2, Rows: 2, Values: []float64{1}}); err == nil {
		t.Error("inconsistent heatmap response encoded")
	}
}
