package server

// Engine-level checkpoint tests: the checkpoint singleflight that
// serializes the periodic ticker against manual triggers, and the
// restart equivalence property — Query, CoverAt and Heatmap must be
// byte-identical whether a shard scans the lazy windows of a recovered
// checkpoint or holds the same tuples in memory.

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kmeans"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// columnarStores opens one store per pollutant under root; an empty root
// gives memory stores.
func columnarStores(t *testing.T, root string) map[tuple.Pollutant]*store.Store {
	t.Helper()
	out := make(map[tuple.Pollutant]*store.Store)
	for _, pol := range []tuple.Pollutant{tuple.CO2, tuple.PM} {
		cfg := store.Config{WindowLength: 600}
		if root != "" {
			cfg.Dir = filepath.Join(root, pol.String())
		}
		st, err := store.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[pol] = st
	}
	return out
}

// TestEngineColumnarEquivalence is the property test at the API layer:
// after a checkpointed restart, an engine whose shards scan column blocks
// and one that was fed the same batches into memory stores must return
// bit-equal answers for cover queries, cover payloads, and both heatmap
// forms.
func TestEngineColumnarEquivalence(t *testing.T) {
	root := t.TempDir()
	stores := columnarStores(t, root)
	cfg := core.Config{Cluster: kmeans.Config{Seed: 11}}
	e, err := NewMultiEngineOpts(stores, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	storesRow := columnarStores(t, "")
	er, err := NewMultiEngineOpts(storesRow, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))
	for _, pol := range []tuple.Pollutant{tuple.CO2, tuple.PM} {
		var b tuple.Batch
		for c := 0; c < 3; c++ {
			for i := 0; i < 200; i++ {
				x, y := rng.Float64()*2000, rng.Float64()*1500
				b = append(b, tuple.Raw{
					T: float64(c)*600 + rng.Float64()*600,
					X: x, Y: y,
					S: 400 + 0.04*x + 0.03*y + rng.NormFloat64(),
				})
			}
		}
		if err := e.Ingest(ctx, pol, b); err != nil {
			t.Fatal(err)
		}
		if err := er.Ingest(ctx, pol, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for _, st := range stores {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}

	storesCol := columnarStores(t, root)
	ec, err := NewMultiEngineOpts(storesCol, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ec.Close()
		er.Close()
		for _, st := range storesCol {
			st.Close()
		}
		for _, st := range storesRow {
			st.Close()
		}
	}()

	cs := ec.ColumnarStats()
	if cs.LazyWindows == 0 {
		t.Fatalf("recovered engine stats %+v: want lazily recovered windows", cs)
	}
	if rs := er.ColumnarStats(); rs != (store.ColumnarStats{}) {
		t.Fatalf("memory engine stats %+v: it has no checkpoint to read", rs)
	}

	for _, pol := range []tuple.Pollutant{tuple.CO2, tuple.PM} {
		for i := 0; i < 60; i++ {
			req := query.Request{
				T:         rng.Float64() * 1800,
				X:         rng.Float64() * 2000,
				Y:         rng.Float64() * 1500,
				Pollutant: pol,
			}
			vc, errC := ec.Query(ctx, req)
			vr, errR := er.Query(ctx, req)
			if (errC == nil) != (errR == nil) {
				t.Fatalf("%v query %+v: errors diverge: %v vs %v", pol, req, errC, errR)
			}
			if errC == nil && math.Float64bits(vc) != math.Float64bits(vr) {
				t.Fatalf("%v query %+v: %v vs %v", pol, req, vc, vr)
			}
		}
		for c := 0; c < 3; c++ {
			tt := float64(c)*600 + 300
			cvc, errC := ec.CoverAt(ctx, pol, tt)
			cvr, errR := er.CoverAt(ctx, pol, tt)
			if (errC == nil) != (errR == nil) {
				t.Fatalf("%v cover t=%v: errors diverge: %v vs %v", pol, tt, errC, errR)
			}
			if errC != nil {
				continue
			}
			if cvc.Size() != cvr.Size() {
				t.Fatalf("%v cover t=%v: size %d vs %d", pol, tt, cvc.Size(), cvr.Size())
			}
			gc, errC := ec.Heatmap(ctx, pol, tt, 16, 12)
			gr, errR := er.Heatmap(ctx, pol, tt, 16, 12)
			if errC != nil || errR != nil {
				t.Fatalf("%v heatmap t=%v: %v / %v", pol, tt, errC, errR)
			}
			if gc.Region != gr.Region {
				t.Fatalf("%v heatmap t=%v: region %+v vs %+v", pol, tt, gc.Region, gr.Region)
			}
			for i := range gc.Values {
				if math.Float64bits(gc.Values[i]) != math.Float64bits(gr.Values[i]) {
					t.Fatalf("%v heatmap t=%v cell %d: %v vs %v", pol, tt, i, gc.Values[i], gr.Values[i])
				}
			}
			// The explicit-region raster a cluster router asks each node for.
			req := wire.HeatmapRequest{T: tt, Pollutant: pol, Cols: 8, Rows: 8, HasRegion: true, Region: gc.Region.Inflate(-50)}
			rc, okC := ec.HandleMessage(req).(wire.HeatmapResponse)
			rr, okR := er.HandleMessage(req).(wire.HeatmapResponse)
			if !okC || !okR {
				t.Fatalf("%v heatmap region t=%v: not answered", pol, tt)
			}
			for i := range rc.Values {
				if math.Float64bits(rc.Values[i]) != math.Float64bits(rr.Values[i]) {
					t.Fatalf("%v heatmap region t=%v cell %d differs", pol, tt, i)
				}
			}
		}
	}
	lazy := cs.LazyWindows
	cs = ec.ColumnarStats()
	if cs.BlocksScanned == 0 || cs.BytesRead == 0 || cs.Materializations == 0 {
		t.Fatalf("columnar engine stats %+v: queries did not touch the block path", cs)
	}
	if cs.LazyWindows != lazy || cs.MaterializeFailures != 0 {
		t.Fatalf("columnar engine stats %+v: reads decode, they do not install — want the %d recovered windows still lazy", cs, lazy)
	}

	// The stats endpoint must expose the columnar section.
	srv := httptest.NewServer(NewAPI(ec))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Columnar struct {
			SidecarsWritten  int64 `json:"sidecarsWritten"`
			LazyWindows      int64 `json:"lazyWindows"`
			Materializations int64 `json:"materializations"`
			BlocksScanned    int64 `json:"blocksScanned"`
			BytesRead        int64 `json:"bytesRead"`
		} `json:"columnar"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Columnar.BlocksScanned == 0 ||
		body.Columnar.Materializations == 0 || body.Columnar.BytesRead == 0 {
		t.Errorf("/v1/stats columnar section = %+v", body.Columnar)
	}
}

// TestEngineCheckpointSingleflight drives the periodic ticker against
// concurrent manual Checkpoint calls and concurrent ingest: the
// regression shape for the ticker/manual race. All calls must succeed,
// and late arrivals must join the in-flight pass rather than stack.
func TestEngineCheckpointSingleflight(t *testing.T) {
	root := t.TempDir()
	stores := columnarStores(t, root)
	e, err := NewMultiEngineOpts(stores, core.Config{Cluster: kmeans.Config{Seed: 3}}, Options{
		Checkpoint: CheckpointConfig{Interval: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	errCh := make(chan error, 16) // one slot per goroutine below
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				b := tuple.Batch{{T: float64(g*100 + i), X: float64(i), Y: float64(g), S: 410}}
				if err := e.Ingest(ctx, tuple.CO2, b); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if err := e.Checkpoint(); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("concurrent checkpoint/ingest: %v", err)
	}
	cs := e.CheckpointStats()
	if cs.Failures != 0 {
		t.Fatalf("CheckpointStats %+v: failures under concurrency", cs)
	}
	if cs.Checkpoints == 0 {
		t.Fatal("no checkpoints completed")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for _, st := range stores {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
