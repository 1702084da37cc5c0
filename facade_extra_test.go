package repro

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/proto"
	"repro/internal/route"
	"repro/internal/wire"
)

func TestListenTCPServesClients(t *testing.T) {
	p := openWithData(t)
	defer p.Close()
	srv, addr, err := p.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := proto.Dial(addr.String(), proto.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Exchange(wire.QueryRequest{T: 7200, X: 800, Y: 600})
	if err != nil {
		t.Fatal(err)
	}
	qr, ok := resp.(wire.QueryResponse)
	if !ok {
		t.Fatalf("got %T", resp)
	}
	want, err := p.Query(context.Background(), Request{T: 7200, X: 800, Y: 600})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(qr.Value-want) > 1e-9 {
		t.Errorf("TCP answer %v vs direct %v", qr.Value, want)
	}
}

func TestRouteSummaryAgainstPlatform(t *testing.T) {
	// The app-side flow: record a route, summarize it against the
	// platform's query engine as the oracle.
	p := openWithData(t)
	defer p.Close()
	rec := route.NewRecorder()
	for i := 0; i < 10; i++ {
		rec.Add(route.Fix{
			T:   7200 + float64(i)*60,
			Pos: Point{X: 200 + float64(i)*120, Y: 450 + float64(i)*60},
		})
	}
	rt, err := rec.Finish()
	if err != nil {
		t.Fatal(err)
	}
	sum, err := route.Summarize(rt, CO2, func(t, x, y float64) (float64, error) {
		return p.Query(context.Background(), Request{T: t, X: x, Y: y})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Points) != rt.Len() {
		t.Fatalf("summary points = %d, route fixes = %d", len(sum.Points), rt.Len())
	}
	if sum.Average <= 0 || sum.Advice == "" {
		t.Errorf("summary incomplete: %+v", sum)
	}
}

// TestPlatformAsyncIngestKnobs exercises the ISSUE 3 facade surface:
// durable ingest, the ingest pipeline counters, background cover
// maintenance, and the closed-platform write refusal.
func TestPlatformAsyncIngestKnobs(t *testing.T) {
	p, err := Open(Config{
		WindowSeconds: 3600,
		Dir:           t.TempDir(),
		IngestQueue:   PipelineConfig{QueueDepth: 16},
		Maintenance:   SchedulerConfig{Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	readings, err := SimulateLausanne(11, 2*3600)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := p.Ingest(ctx, CO2, readings); err != nil {
		t.Fatal(err)
	}
	p.WaitMaintenance()
	if ms := p.MaintenanceStats(); ms.Built < 2 {
		t.Fatalf("MaintenanceStats = %+v, want both windows prebuilt", ms)
	}
	if is := p.IngestStats(); is.Submitted != 1 || is.Appends != 1 {
		t.Fatalf("IngestStats = %+v, want one submitted upload and one append", is)
	}
	// The prebuilt cover answers without a query-path build.
	if _, err := p.Query(ctx, Request{T: 1800, X: 500, Y: 500}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Ingest(ctx, CO2, readings); !errors.Is(err, ErrClosed) {
		t.Fatalf("Ingest after Close = %v, want ErrClosed", err)
	}
}
