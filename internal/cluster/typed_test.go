package cluster_test

// The node's typed serving surface — the methods the facade and the HTTP
// API call on a clustered platform: ingest sheds instead of waiting, and
// the cover is the merged model's.

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/ingest"
	"repro/internal/tuple"
	"repro/internal/wire"
)

func TestNodeTryIngestSheds(t *testing.T) {
	p := newTCPPair(t)
	release := p.saturate(t)
	defer release()
	b := tuple.Batch{{T: queryT, X: p.foreign.X, Y: p.foreign.Y, S: 400}}
	// Node 1's own slice and the slice node 0 forwards to it alike.
	for i, node := range []*cluster.Node{p.nodes[1], p.nodes[0]} {
		if err := node.TryIngest(context.Background(), tuple.CO2, b); !errors.Is(err, ingest.ErrSaturated) {
			t.Errorf("node %d TryIngest into a saturated owner: %v, want ErrSaturated", 1-i, err)
		}
	}
}

func TestNodeCoverIsTheMergedModel(t *testing.T) {
	f := newFixture(t)
	f.load(t, makeData())
	ctx := context.Background()
	mr, err := f.nodes[1].Model(ctx, tuple.CO2, queryT)
	if err != nil {
		t.Fatal(err)
	}
	want, err := wire.CoverFromModelResponse(mr)
	if err != nil {
		t.Fatal(err)
	}
	cv, err := f.nodes[0].CoverAt(ctx, tuple.CO2, queryT)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cv, want) {
		t.Error("CoverAt differs from the cover rebuilt from the merged model")
	}
	// The heatmap's markers come from that cover, beside the scattered raster.
	grid, markerCover, err := f.nodes[2].HeatmapCoverInto(ctx, nil, tuple.CO2, queryT, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	raster, err := f.nodes[2].Heatmap(ctx, tuple.CO2, queryT, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(grid, raster) || !reflect.DeepEqual(markerCover, want) {
		t.Error("HeatmapCoverInto differs from Heatmap and CoverAt")
	}
}
