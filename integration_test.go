package repro

// Full-pipeline integration test: simulate the deployment, stream it in
// through the ingest path, serve the wire protocol over TCP, run a
// model-cache mobile client against it, and check the answers against
// both the server's direct engine and the simulator's ground truth.

import (
	"context"
	"math"
	"testing"

	"repro/internal/client"
	"repro/internal/eval"
	"repro/internal/proto"
	"repro/internal/query"
	"repro/internal/sim"
)

func TestFullPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline test skipped in -short mode")
	}
	// 1. Simulate six hours of the deployment.
	cfg := sim.DefaultLausanne(21)
	cfg.Duration = 6 * 3600
	data, err := sim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// 2. Stream it into a platform the way buses upload: one
	// Platform.Ingest per 300 s of stream time, unpaced.
	p, err := Open(Config{WindowSeconds: 3600})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for start := 0; start < len(data); {
		end := start + 1
		for end < len(data) && data[end].T < data[start].T+300 {
			end++
		}
		if err := p.Ingest(context.Background(), CO2, []Reading(data[start:end])); err != nil {
			t.Fatal(err)
		}
		start = end
	}
	if got := p.Len(); got != len(data) {
		t.Fatalf("ingested %d of %d tuples", got, len(data))
	}
	// The accuracy check below is about the covers of the loaded data:
	// wait for the rebuilds the load queued instead of racing them.
	p.WaitMaintenance()

	// 3. Serve the wire protocol over TCP.
	srv, addr, err := p.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// 4. A model-cache mobile client rides along route 0 for an hour.
	conn, err := proto.Dial(addr.String(), proto.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	mc := client.NewModelCache(conn)
	routePl := cfg.Vehicles[0].Route
	qs := make([]query.Request, 60)
	for i := range qs {
		tm := 2*3600 + float64(i)*60
		pos := routePl.AtLoop(6 * float64(i) * 60)
		qs[i] = query.Request{T: tm, X: pos.X, Y: pos.Y}
	}
	answers, err := client.RunContinuousCtx(context.Background(), mc, qs)
	if err != nil {
		t.Fatal(err)
	}

	// 5a. Client answers must match the server's own interpolation.
	for i, a := range answers {
		want, err := p.Query(context.Background(), qs[i])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a.Value-want) > 1e-9 {
			t.Fatalf("query %d: client %v vs server %v", i, a.Value, want)
		}
	}
	// All but the first answer are local (one window, one fetch).
	st := mc.CacheStats()
	if st.Refreshes != 1 || st.Hits != 59 {
		t.Errorf("cache stats = %+v, want 1 refresh / 59 hits", st)
	}

	// 5b. Accuracy against ground truth: the on-route answers should be
	// well under 10% NRMSE (the queries sit exactly on sensed corridors).
	est := make([]float64, len(answers))
	truth := make([]float64, len(answers))
	for i, a := range answers {
		est[i] = a.Value
		truth[i] = cfg.Field.TrueValue(qs[i].T, qs[i].X, qs[i].Y)
	}
	nrmse, err := eval.NRMSE(est, truth)
	if err != nil {
		t.Fatal(err)
	}
	if nrmse > 12 {
		t.Errorf("end-to-end NRMSE = %.2f%%, want < 12%%", nrmse)
	}
}
