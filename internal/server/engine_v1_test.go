package server

// Tests for the multi-pollutant v1 engine: shard isolation, error
// taxonomy, batch cancellation, and pollutant routing through
// HandleMessage.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/kmeans"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// newMultiEngine builds an engine with distinct linear fields for CO2
// and PM so cross-shard leaks are detectable by magnitude.
func newMultiEngine(t *testing.T) *Engine {
	t.Helper()
	mk := func(base, slope float64) *store.Store {
		st := store.MustOpenMemory(600)
		rng := rand.New(rand.NewSource(5))
		var b tuple.Batch
		for i := 0; i < 400; i++ {
			x, y := rng.Float64()*2000, rng.Float64()*2000
			b = append(b, tuple.Raw{T: rng.Float64() * 600, X: x, Y: y, S: base + slope*x})
		}
		if err := st.Append(b); err != nil {
			t.Fatal(err)
		}
		return st
	}
	e, err := NewMultiEngineOpts(map[tuple.Pollutant]*store.Store{
		tuple.CO2: mk(420, 0.05),
		tuple.PM:  mk(20, 0.005),
	}, core.Config{Cluster: kmeans.Config{Seed: 7}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestMultiEngineShardIsolation(t *testing.T) {
	e := newMultiEngine(t)
	ctx := context.Background()
	co2, err := e.Query(ctx, query.Request{T: 300, X: 1000, Y: 1000, Pollutant: tuple.CO2})
	if err != nil {
		t.Fatal(err)
	}
	pm, err := e.Query(ctx, query.Request{T: 300, X: 1000, Y: 1000, Pollutant: tuple.PM})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(co2-470) > 30 {
		t.Errorf("CO2 = %v, want ~470", co2)
	}
	if math.Abs(pm-25) > 10 {
		t.Errorf("PM = %v, want ~25", pm)
	}
	if got := e.Pollutants(); len(got) != 2 || got[0] != tuple.CO2 || got[1] != tuple.PM {
		t.Errorf("Pollutants = %v", got)
	}
	if !e.Serves(tuple.PM) || e.Serves(tuple.CO) {
		t.Error("Serves misreports the shard set")
	}
}

func TestEngineErrorTaxonomy(t *testing.T) {
	e := newMultiEngine(t)
	ctx := context.Background()
	if _, err := e.Query(ctx, query.Request{T: 300, Pollutant: tuple.CO}); !errors.Is(err, query.ErrUnknownPollutant) {
		t.Errorf("unmonitored pollutant: %v", err)
	}
	if _, err := e.Query(ctx, query.Request{T: 1e9}); !errors.Is(err, query.ErrOutOfWindow) {
		t.Errorf("empty window: %v", err)
	}
	if _, err := e.Query(ctx, query.Request{T: -3}); !errors.Is(err, query.ErrOutOfWindow) {
		t.Errorf("negative time: %v", err)
	}
	if _, err := e.CoverAt(ctx, tuple.CO, 300); !errors.Is(err, query.ErrUnknownPollutant) {
		t.Errorf("CoverAt unmonitored: %v", err)
	}
	if err := e.Ingest(ctx, tuple.CO, tuple.Batch{{T: 1, S: 1}}); !errors.Is(err, query.ErrUnknownPollutant) {
		t.Errorf("Ingest unmonitored: %v", err)
	}
	if _, err := e.Heatmap(ctx, tuple.CO, 300, 8, 8); !errors.Is(err, query.ErrUnknownPollutant) {
		t.Errorf("Heatmap unmonitored: %v", err)
	}
}

func TestEngineBatchCancellation(t *testing.T) {
	e := newMultiEngine(t)
	reqs := make([]query.Request, 32)
	for i := range reqs {
		reqs[i] = query.Request{T: 300, X: float64(i * 10), Y: 500}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.QueryBatch(ctx, reqs); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch: %v", err)
	}
	vs, err := e.QueryBatch(context.Background(), reqs)
	if err != nil || len(vs) != len(reqs) {
		t.Fatalf("live batch: %d values, err %v", len(vs), err)
	}
	if _, err := e.QueryBatch(context.Background(), nil); err == nil {
		t.Error("empty batch should error")
	}
}

func TestHandleMessageRoutesTagsLiterally(t *testing.T) {
	// Every frame names its pollutant and is routed literally — including
	// an explicit CO2 on a server without a CO2 shard — so a mistagged
	// request fails loudly, coded ErrUnknownPollutant, rather than
	// silently answering from another pollutant's models.
	st := store.MustOpenMemory(600)
	var b tuple.Batch
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		b = append(b, tuple.Raw{T: rng.Float64() * 600, X: x, Y: y, S: 30})
	}
	if err := st.Append(b); err != nil {
		t.Fatal(err)
	}
	e, err := NewMultiEngineOpts(map[tuple.Pollutant]*store.Store{tuple.PM: st},
		core.Config{Pollutant: tuple.PM, Cluster: kmeans.Config{Seed: 1}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	qr, ok := e.HandleMessage(wire.QueryRequest{T: 300, X: 500, Y: 500, Pollutant: tuple.PM}).(wire.QueryResponse)
	if !ok || math.Abs(qr.Value-30) > 5 {
		t.Errorf("PM frame on the PM server = %v (ok %v), want ~30", qr.Value, ok)
	}
	for _, req := range []wire.Message{
		wire.QueryRequest{T: 300, Pollutant: tuple.CO},
		wire.QueryRequest{T: 300, Pollutant: tuple.CO2},
		wire.ModelRequest{T: 300, Pollutant: tuple.CO2},
	} {
		if er, _ := e.HandleMessage(req).(wire.ErrorResponse); er.Code != wire.CodeUnknownPollutant {
			t.Errorf("%#v on a PM-only server = %#v, want an error coded unknown-pollutant", req, er)
		}
	}
}

func TestHandleMessageRoutesPollutant(t *testing.T) {
	e := newMultiEngine(t)
	co2 := e.HandleMessage(wire.QueryRequest{T: 300, X: 1000, Y: 1000, Pollutant: tuple.CO2})
	pm := e.HandleMessage(wire.QueryRequest{T: 300, X: 1000, Y: 1000, Pollutant: tuple.PM})
	v1, ok1 := co2.(wire.QueryResponse)
	v2, ok2 := pm.(wire.QueryResponse)
	if !ok1 || !ok2 {
		t.Fatalf("responses %T / %T", co2, pm)
	}
	if v1.Value <= v2.Value {
		t.Errorf("pollutant routing collapsed: co2=%v pm=%v", v1.Value, v2.Value)
	}
	// Model requests carry the tag through to the response.
	mr := e.HandleMessage(wire.ModelRequest{T: 300, Pollutant: tuple.PM})
	m, ok := mr.(wire.ModelResponse)
	if !ok {
		t.Fatalf("model response %T", mr)
	}
	if tuple.Pollutant(m.Pollutant) != tuple.PM {
		t.Errorf("model pollutant = %d, want PM", m.Pollutant)
	}
	// Unmonitored pollutants come back as protocol errors.
	if _, ok := e.HandleMessage(wire.QueryRequest{T: 300, Pollutant: tuple.CO}).(wire.ErrorResponse); !ok {
		t.Error("unmonitored pollutant should yield ErrorResponse")
	}
}

func TestEngineBatchPerItemErrors(t *testing.T) {
	e := newMultiEngine(t)
	reqs := []query.Request{
		{T: 300, X: 1000, Y: 1000, Pollutant: tuple.CO2}, // answerable
		{T: 1e9, X: 0, Y: 0, Pollutant: tuple.CO2},       // beyond the data
		{T: 300, X: 1000, Y: 1000, Pollutant: tuple.CO},  // not monitored
		{T: 300, X: 900, Y: 900, Pollutant: tuple.PM},    // answerable
	}
	rs, err := e.QueryBatch(context.Background(), reqs)
	if err != nil {
		t.Fatalf("call-level error: %v", err)
	}
	if len(rs) != len(reqs) {
		t.Fatalf("got %d results, want %d", len(rs), len(reqs))
	}
	if rs[0].Err != nil || rs[3].Err != nil {
		t.Errorf("good items errored: %v, %v", rs[0].Err, rs[3].Err)
	}
	if !errors.Is(rs[1].Err, query.ErrOutOfWindow) {
		t.Errorf("item 1: got %v, want ErrOutOfWindow", rs[1].Err)
	}
	if !errors.Is(rs[2].Err, query.ErrUnknownPollutant) {
		t.Errorf("item 2: got %v, want ErrUnknownPollutant", rs[2].Err)
	}
	if math.Abs(rs[0].Value-470) > 30 {
		t.Errorf("item 0 = %v, want ~470", rs[0].Value)
	}
}

// TestEngineBatchMatchesPointQueries: a batch answers each of its items
// exactly as a Query of that item does, value for value and error for
// error.
func TestEngineBatchMatchesPointQueries(t *testing.T) {
	e := newMultiEngine(t)
	rng := rand.New(rand.NewSource(11))
	reqs := make([]query.Request, 200)
	for i := range reqs {
		pol := tuple.CO2
		if i%2 == 1 {
			pol = tuple.PM
		}
		reqs[i] = query.Request{
			T: rng.Float64() * 600, X: rng.Float64() * 2000, Y: rng.Float64() * 2000,
			Pollutant: pol,
		}
	}
	ctx := context.Background()
	rs, err := e.QueryBatch(ctx, reqs)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	for i, req := range reqs {
		v, err := e.Query(ctx, req)
		if (err == nil) != (rs[i].Err == nil) || (err != nil && err.Error() != rs[i].Err.Error()) {
			t.Fatalf("item %d: Query err %v, batch err %v", i, err, rs[i].Err)
		}
		if err == nil && v != rs[i].Value {
			t.Fatalf("item %d: Query %v != batch %v", i, v, rs[i].Value)
		}
	}
}

func TestHandleMessageBatch(t *testing.T) {
	e := newMultiEngine(t)
	resp := e.HandleMessage(wire.BatchQueryRequest{Items: []wire.QueryRequest{
		{T: 300, X: 1000, Y: 1000, Pollutant: tuple.CO2},
		{T: 1e9, X: 0, Y: 0, Pollutant: tuple.CO2},
		{T: 300, X: 1000, Y: 1000, Pollutant: tuple.PM},
	}})
	br, ok := resp.(wire.BatchQueryResponse)
	if !ok {
		t.Fatalf("got %T: %+v", resp, resp)
	}
	if len(br.Items) != 3 {
		t.Fatalf("items = %d, want 3", len(br.Items))
	}
	if br.Items[0].Err != "" || br.Items[2].Err != "" {
		t.Errorf("good items errored: %+v", br.Items)
	}
	if br.Items[1].Err == "" {
		t.Error("out-of-window item must carry its error")
	}
	if math.Abs(br.Items[0].Value-470) > 30 || math.Abs(br.Items[2].Value-25) > 10 {
		t.Errorf("batch values leaked across shards: %+v", br.Items)
	}
	// An empty batch is a protocol-level error response.
	if _, ok := e.HandleMessage(wire.BatchQueryRequest{}).(wire.ErrorResponse); !ok {
		t.Error("empty batch should answer with ErrorResponse")
	}
}
