package repro

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http/httptest"
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

// TestPlatformAsyncIngestKnobs exercises the facade's asynchronous
// ingest surface: durable ingest, the ingest pipeline counters, background cover
// maintenance, and the closed-platform write refusal. Maintenance models
// for readers: an upload into windows nobody has read builds nothing, the
// first query of each window builds it, and an upload into windows a
// reader holds rebuilds them in the background.
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
	if ms := p.MaintenanceStats(); ms.Scheduled != 0 || ms.Built != 0 {
		t.Fatalf("MaintenanceStats = %+v, want no build for windows nobody has read", ms)
	}
	if is := p.IngestStats(); is.Submitted != 1 || is.Appends != 1 {
		t.Fatalf("IngestStats = %+v, want one submitted upload and one append", is)
	}
	// The first query of each window builds its cover, once.
	first := make(map[float64]*Cover)
	for _, tm := range []float64{1800, 5400} {
		if _, err := p.Query(ctx, Request{T: tm, X: 500, Y: 500}); err != nil {
			t.Fatal(err)
		}
		if first[tm], err = p.Cover(ctx, CO2, tm); err != nil {
			t.Fatal(err)
		}
	}
	for _, tm := range []float64{1800, 5400} {
		if _, err := p.Query(ctx, Request{T: tm, X: 500, Y: 500}); err != nil {
			t.Fatal(err)
		}
		if cv, err := p.Cover(ctx, CO2, tm); err != nil || cv != first[tm] {
			t.Fatalf("t=%v: second read got cover %p (err %v), want the first query's %p", tm, cv, err, first[tm])
		}
	}
	if ms := p.MaintenanceStats(); ms.Built != 0 {
		t.Fatalf("MaintenanceStats = %+v, want the first queries' builds on the read path", ms)
	}

	// Both windows are held now: an upload into them rebuilds them in
	// the background.
	more, err := SimulateLausanne(12, 2*3600)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Ingest(ctx, CO2, more); err != nil {
		t.Fatal(err)
	}
	p.WaitMaintenance()
	if ms := p.MaintenanceStats(); ms.Built < 2 {
		t.Fatalf("MaintenanceStats = %+v, want both held windows rebuilt", ms)
	}
	if is := p.IngestStats(); is.Submitted != 2 || is.Appends != 2 {
		t.Fatalf("IngestStats = %+v, want two submitted uploads and two appends", is)
	}
	// The rebuilt cover answers without a query-path build.
	for _, tm := range []float64{1800, 5400} {
		rebuilt, err := p.Cover(ctx, CO2, tm)
		if err != nil {
			t.Fatal(err)
		}
		if rebuilt == first[tm] {
			t.Fatalf("t=%v: the held window's cover was not rebuilt", tm)
		}
		if _, err := p.Query(ctx, Request{T: tm, X: 500, Y: 500}); err != nil {
			t.Fatal(err)
		}
		if cv, err := p.Cover(ctx, CO2, tm); err != nil || cv != rebuilt {
			t.Fatalf("t=%v: query built cover %p (err %v) instead of using the rebuilt %p", tm, cv, err, rebuilt)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Ingest(ctx, CO2, readings); !errors.Is(err, ErrClosed) {
		t.Fatalf("Ingest after Close = %v, want ErrClosed", err)
	}
}

// TestSubscriptionStatsMatchHTTP: the facade's SubscriptionStats is the
// registry's counters /v1/stats serves under "subscriptions", after a
// subscription has opened and closed.
func TestSubscriptionStatsMatchHTTP(t *testing.T) {
	p := openWithData(t)
	defer p.Close()
	sub, err := p.Subscribe(context.Background(), CO2, []Request{{T: 7200, X: 800, Y: 600}, {T: 7260, X: 900, Y: 650}})
	if err != nil {
		t.Fatal(err)
	}
	if ev := <-sub.Events(); !ev.Resync || len(ev.Points) != 2 {
		t.Fatalf("first event = %+v, want a resync of both points", ev)
	}
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Subscriptions SubscriptionStats `json:"subscriptions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	got := p.SubscriptionStats()
	if got != stats.Subscriptions {
		t.Fatalf("SubscriptionStats = %+v, /v1/stats subscriptions = %+v", got, stats.Subscriptions)
	}
	if got.Subscribed != 1 || got.Closed != 1 || got.Active != 0 || got.Pushes == 0 {
		t.Fatalf("SubscriptionStats = %+v, want one subscribed and closed, none active, its resync pushed", got)
	}
}
