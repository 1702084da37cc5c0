package cluster_test

// The node's typed serving surface — the methods the facade and the HTTP
// API call on a clustered platform: processor options answer only on
// owned shards, ingest sheds instead of waiting, and the cover is the
// merged model's.

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/geo"
	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// samplesByOwner picks, from sampleRequests, the requests node owns and
// the ones it does not.
func samplesByOwner(f *fixture, data tuple.Batch, node int) (owned, foreign []query.Request) {
	for _, req := range sampleRequests(data) {
		if f.ring.Owner(tuple.CO2, geo.Point{X: req.X, Y: req.Y}) == node {
			owned = append(owned, req)
		} else {
			foreign = append(foreign, req)
		}
	}
	return owned, foreign
}

func TestNodeProcessorOptions(t *testing.T) {
	f := newFixture(t)
	data := makeData()
	f.load(t, data)
	ctx := context.Background()
	radius := query.Options{Kind: query.KindNaive, Radius: 500}
	owned, foreign := samplesByOwner(f, data, 0)
	if len(owned) == 0 || len(foreign) == 0 {
		t.Fatalf("node 0 owns %d of %d samples", len(owned), len(owned)+len(foreign))
	}
	node := f.nodes[0]

	// Owned shards: the local engine answers, nothing crosses the wire.
	before := node.Stats()
	for _, req := range owned {
		got, err := node.QueryOpts(ctx, req, radius)
		if err != nil {
			t.Fatal(err)
		}
		want, err := f.engines[0].QueryOpts(ctx, req, radius)
		if err != nil || got != want {
			t.Fatalf("owned shard at (%v,%v): %v, engine answers %v (%v)", req.X, req.Y, got, want, err)
		}
	}
	rs, err := node.QueryBatchOpts(ctx, owned, radius)
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.engines[0].QueryBatchOpts(ctx, owned, radius)
	if err != nil || !reflect.DeepEqual(rs, want) {
		t.Fatalf("owned batch: %v, engine answers %v (%v)", rs, want, err)
	}
	if after := node.Stats(); after != before {
		t.Errorf("owned-shard options were routed: stats %+v -> %+v", before, after)
	}

	// Foreign shards, a batch spanning both, and a router that owns
	// nothing: refused before routing.
	if _, err := node.QueryOpts(ctx, foreign[0], radius); !errors.Is(err, cluster.ErrNotRoutable) {
		t.Errorf("foreign shard with options: %v, want ErrNotRoutable", err)
	}
	if _, err := node.QueryBatchOpts(ctx, append(owned[:1:1], foreign[0]), radius); !errors.Is(err, cluster.ErrNotRoutable) {
		t.Errorf("batch spanning shards with options: %v, want ErrNotRoutable", err)
	}
	router, err := cluster.NewNode(cluster.NodeConfig{
		Ring: f.ring, Self: -1, Default: tuple.CO2,
		Transports: []cluster.Transport{&nodeTransport{f: f, to: 0}, &nodeTransport{f: f, to: 1}, &nodeTransport{f: f, to: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := router.QueryOpts(ctx, owned[0], radius); !errors.Is(err, cluster.ErrNotRoutable) {
		t.Errorf("router with options: %v, want ErrNotRoutable", err)
	}
	if _, err := router.QueryBatchOpts(ctx, owned, radius); !errors.Is(err, cluster.ErrNotRoutable) {
		t.Errorf("router batch with options: %v, want ErrNotRoutable", err)
	}
	// Without options the router forwards.
	got, err := router.QueryOpts(ctx, owned[0], query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want, err := f.engines[0].Query(ctx, owned[0]); err != nil || got != want {
		t.Errorf("router without options: %v, owner answers %v (%v)", got, want, err)
	}
}

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
