package repro

// Tests for the v1 query API: Request validation, the error taxonomy
// under errors.Is, per-pollutant cover isolation, context cancellation,
// streaming ingestion, and the pollutant-aware HTTP surface.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/tuple"
	"repro/internal/wire"
)

func TestRequestValidate(t *testing.T) {
	cases := []struct {
		name    string
		req     Request
		wantErr error // nil = valid, non-nil = errors.Is target
		bad     bool  // expect some error
	}{
		{name: "valid zero", req: Request{}},
		{name: "valid co", req: Request{T: 10, X: 1, Y: 2, Pollutant: CO}},
		{name: "valid pm", req: Request{T: 10, Pollutant: PM}},
		{name: "negative time", req: Request{T: -1}, wantErr: ErrOutOfWindow, bad: true},
		{name: "unknown pollutant", req: Request{Pollutant: Pollutant(42)}, wantErr: ErrUnknownPollutant, bad: true},
		{name: "nan t", req: Request{T: math.NaN()}, bad: true},
		{name: "inf x", req: Request{X: math.Inf(1)}, bad: true},
		{name: "nan y", req: Request{Y: math.NaN()}, bad: true},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.req.Validate()
			if tt.bad && err == nil {
				t.Fatal("want error, got nil")
			}
			if !tt.bad && err != nil {
				t.Fatalf("want valid, got %v", err)
			}
			if tt.wantErr != nil && !errors.Is(err, tt.wantErr) {
				t.Errorf("errors.Is(%v, %v) = false", err, tt.wantErr)
			}
		})
	}
}

// openMulti opens a platform monitoring CO2 and PM with two hours of
// shared-fleet data in hour-long windows.
func openMulti(t *testing.T) *Platform {
	t.Helper()
	pollutants := []Pollutant{CO2, PM}
	p, err := Open(Config{WindowSeconds: 3600, Pollutants: pollutants})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	data, err := SimulateLausanneMulti(6, 2*3600, pollutants)
	if err != nil {
		t.Fatal(err)
	}
	for pol, readings := range data {
		if err := p.Ingest(context.Background(), pol, readings); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func TestPerPollutantCoverIsolation(t *testing.T) {
	p := openMulti(t)
	ctx := context.Background()

	co2, err := p.Query(ctx, Request{T: 1800, X: 1200, Y: 800, Pollutant: CO2})
	if err != nil {
		t.Fatal(err)
	}
	pm, err := p.Query(ctx, Request{T: 1800, X: 1200, Y: 800, Pollutant: PM})
	if err != nil {
		t.Fatal(err)
	}
	// CO2 sits in the hundreds of ppm, PM in tens of µg/m³: if the shards
	// leaked into each other the magnitudes would collapse.
	if co2 < 300 || pm <= 0 || pm >= co2 {
		t.Errorf("isolation broken: co2=%v pm=%v", co2, pm)
	}

	// Each pollutant's cover carries its own tag.
	cvCO2, err := p.Cover(ctx, CO2, 1800)
	if err != nil {
		t.Fatal(err)
	}
	cvPM, err := p.Cover(ctx, PM, 1800)
	if err != nil {
		t.Fatal(err)
	}
	if cvCO2.Pollutant != CO2 || cvPM.Pollutant != PM {
		t.Errorf("cover pollutants = %v / %v, want CO2 / PM", cvCO2.Pollutant, cvPM.Pollutant)
	}
	if cvCO2 == cvPM {
		t.Error("both pollutants share one cover")
	}

	// Ingesting late CO2 data must not disturb the PM shard's store.
	pmLen, err := p.LenFor(PM)
	if err != nil {
		t.Fatal(err)
	}
	late := []Reading{{T: 100, X: 1, Y: 1, S: 500}}
	if err := p.Ingest(ctx, CO2, late); err != nil {
		t.Fatal(err)
	}
	pmLenAfter, err := p.LenFor(PM)
	if err != nil {
		t.Fatal(err)
	}
	if pmLen != pmLenAfter {
		t.Errorf("PM shard grew on CO2 ingest: %d -> %d", pmLen, pmLenAfter)
	}
}

func TestErrorTaxonomyErrorsIs(t *testing.T) {
	p := openMulti(t)
	ctx := context.Background()

	// Monitored pollutant, time beyond the data: out of window.
	if _, err := p.Query(ctx, Request{T: 1e9, X: 0, Y: 0}); !errors.Is(err, ErrOutOfWindow) {
		t.Errorf("far-future query: got %v, want ErrOutOfWindow", err)
	}
	// Negative time: out of window.
	if _, err := p.Query(ctx, Request{T: -5}); !errors.Is(err, ErrOutOfWindow) {
		t.Errorf("negative-time query: got %v, want ErrOutOfWindow", err)
	}
	// Unmonitored (but valid) pollutant: unknown pollutant.
	if _, err := p.Query(ctx, Request{T: 1800, Pollutant: CO}); !errors.Is(err, ErrUnknownPollutant) {
		t.Errorf("unmonitored pollutant: got %v, want ErrUnknownPollutant", err)
	}
	// Invalid pollutant value: unknown pollutant.
	if _, err := p.Query(ctx, Request{T: 1800, Pollutant: Pollutant(9)}); !errors.Is(err, ErrUnknownPollutant) {
		t.Errorf("invalid pollutant: got %v, want ErrUnknownPollutant", err)
	}
	// The taxonomy flows through batch calls too — per item: the bad
	// request carries its error, the good one still answers.
	rs, err := p.QueryBatch(ctx, []Request{{T: 1800}, {T: 1e9}})
	if err != nil {
		t.Fatalf("batch with bad item: call-level error %v", err)
	}
	if rs[0].Err != nil {
		t.Errorf("batch good item: got %v, want success", rs[0].Err)
	}
	if !errors.Is(rs[1].Err, ErrOutOfWindow) {
		t.Errorf("batch bad item: got %v, want ErrOutOfWindow", rs[1].Err)
	}
	// And through Cover / ModelResponse / Heatmap.
	if _, err := p.Cover(ctx, CO, 1800); !errors.Is(err, ErrUnknownPollutant) {
		t.Errorf("Cover: got %v, want ErrUnknownPollutant", err)
	}
	if _, err := p.ModelResponse(ctx, CO2, 1e9); !errors.Is(err, ErrOutOfWindow) {
		t.Errorf("ModelResponse: got %v, want ErrOutOfWindow", err)
	}
	if _, err := p.Heatmap(ctx, CO, 1800, 8, 8); !errors.Is(err, ErrUnknownPollutant) {
		t.Errorf("Heatmap: got %v, want ErrUnknownPollutant", err)
	}
}

func TestQueryBatchContextCancellation(t *testing.T) {
	p := openMulti(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the batch must stop before any work
	reqs := make([]Request, 64)
	for i := range reqs {
		reqs[i] = Request{T: 1800, X: float64(i), Y: float64(i)}
	}
	_, err := p.QueryBatch(ctx, reqs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch: got %v, want context.Canceled", err)
	}
	// A live context still answers.
	if _, err := p.QueryBatch(context.Background(), reqs[:4]); err != nil {
		t.Fatalf("live batch failed: %v", err)
	}
}

func TestQueryDeadlineExceeded(t *testing.T) {
	p := openMulti(t)
	ctx, cancel := context.WithTimeout(context.Background(), -time.Nanosecond)
	defer cancel()
	if _, err := p.Query(ctx, Request{T: 1800}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: got %v, want context.DeadlineExceeded", err)
	}
}

func TestIngestReaderStreamsCSV(t *testing.T) {
	p, err := Open(Config{WindowSeconds: 3600})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var sb strings.Builder
	sb.WriteString("t,x,y,s\n")
	for i := 0; i < 100; i++ {
		sb.WriteString("60,100,200,450\n")
	}
	n, err := p.IngestReader(context.Background(), CO2, strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 || p.Len() != 100 {
		t.Errorf("streamed %d tuples, platform holds %d; want 100/100", n, p.Len())
	}
	// A cancelled context stops the stream.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.IngestReader(ctx, CO2, strings.NewReader(sb.String())); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled stream: got %v, want context.Canceled", err)
	}
}

func TestHTTPV1QueryPollutantParam(t *testing.T) {
	p := openMulti(t)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	fetch := func(url string) (map[string]interface{}, int) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]interface{}
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m, resp.StatusCode
	}

	co2, status := fetch(srv.URL + "/v1/query?t=1800&x=1200&y=800&pollutant=co2")
	if status != http.StatusOK {
		t.Fatalf("co2 status = %d", status)
	}
	pm, status := fetch(srv.URL + "/v1/query?t=1800&x=1200&y=800&pollutant=pm")
	if status != http.StatusOK {
		t.Fatalf("pm status = %d", status)
	}
	if co2["pollutant"] != "CO2" || pm["pollutant"] != "PM" {
		t.Errorf("pollutant echo: co2=%v pm=%v", co2["pollutant"], pm["pollutant"])
	}
	if co2["unit"] != "ppm" || pm["unit"] != "µg/m³" {
		t.Errorf("units: co2=%v pm=%v", co2["unit"], pm["unit"])
	}
	if co2["value"].(float64) <= pm["value"].(float64) {
		t.Errorf("magnitudes collapsed: co2=%v pm=%v", co2["value"], pm["value"])
	}

	// Unknown pollutant is a 400; unmonitored valid pollutant too.
	if _, status := fetch(srv.URL + "/v1/query?t=1800&x=0&y=0&pollutant=no2"); status != http.StatusBadRequest {
		t.Errorf("unknown pollutant: status %d, want 400", status)
	}
	if _, status := fetch(srv.URL + "/v1/query?t=1800&x=0&y=0&pollutant=co"); status != http.StatusBadRequest {
		t.Errorf("unmonitored pollutant: status %d, want 400", status)
	}
	// Out-of-window time is a 404.
	if _, status := fetch(srv.URL + "/v1/query?t=999999999&x=0&y=0"); status != http.StatusNotFound {
		t.Errorf("out of window: status %d, want 404", status)
	}
	// NaN coordinates are a malformed request, not missing data.
	if _, status := fetch(srv.URL + "/v1/query?t=1800&x=NaN&y=800"); status != http.StatusBadRequest {
		t.Errorf("NaN coordinate: status %d, want 400", status)
	}
}

func TestHTTPV1Batch(t *testing.T) {
	p := openMulti(t)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	body := []byte(`{"requests":[
		{"t":1800,"x":1200,"y":800,"pollutant":"CO2"},
		{"t":1800,"x":1200,"y":800,"pollutant":"PM"},
		{"t":1800,"x":0,"y":0}
	]}`)
	resp, err := http.Post(srv.URL+"/v1/query/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	var br struct {
		Values []struct {
			Value     float64 `json:"value"`
			Pollutant string  `json:"pollutant"`
		} `json:"values"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Values) != 3 {
		t.Fatalf("values = %d, want 3", len(br.Values))
	}
	if br.Values[0].Pollutant != "CO2" || br.Values[1].Pollutant != "PM" || br.Values[2].Pollutant != "CO2" {
		t.Errorf("batch pollutants: %+v", br.Values)
	}

	// Empty batch is a bad request.
	resp2, err := http.Post(srv.URL+"/v1/query/batch", "application/json",
		strings.NewReader(`{"requests":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", resp2.StatusCode)
	}
}

func TestHTTPV1BatchPerItemErrors(t *testing.T) {
	// A bad request no longer rejects the batch: the response is 200 with
	// the failing item carrying its own error.
	p := openMulti(t)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	body := []byte(`{"requests":[
		{"t":1800,"x":1200,"y":800,"pollutant":"CO2"},
		{"t":9e8,"x":0,"y":0,"pollutant":"CO2"},
		{"t":1800,"x":1200,"y":800,"pollutant":"PM"}
	]}`)
	resp, err := http.Post(srv.URL+"/v1/query/batch?concurrency=2", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, want 200", resp.StatusCode)
	}
	var br struct {
		Values []struct {
			Value     float64 `json:"value"`
			Pollutant string  `json:"pollutant"`
			Error     string  `json:"error"`
		} `json:"values"`
		Errors int `json:"errors"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Values) != 3 || br.Errors != 1 {
		t.Fatalf("values = %d, errors = %d, want 3 and 1", len(br.Values), br.Errors)
	}
	if br.Values[0].Error != "" || br.Values[2].Error != "" {
		t.Errorf("good items errored: %+v", br.Values)
	}
	if br.Values[1].Error == "" {
		t.Error("out-of-window item must carry an error")
	}
	if br.Values[0].Pollutant != "CO2" || br.Values[2].Pollutant != "PM" {
		t.Errorf("batch pollutants: %+v", br.Values)
	}
	// ?concurrency= bounds nothing any more: any value is ignored.
	resp3, err := http.Post(srv.URL+"/v1/query/batch?concurrency=-1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Errorf("?concurrency=-1: status %d, want 200", resp3.StatusCode)
	}
}

func TestHTTPV1PollutantsDiscovery(t *testing.T) {
	p := openMulti(t)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/pollutants")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var d struct {
		Pollutants []string `json:"pollutants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	if strings.Join(d.Pollutants, ",") != "CO2,PM" {
		t.Errorf("pollutants = %v", d.Pollutants)
	}
}

func TestWireProtocolPerPollutant(t *testing.T) {
	// The pollutant byte travels end-to-end over real TCP: the same
	// position asks for two pollutants and gets two different answers.
	p := openMulti(t)
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

	values := map[Pollutant]float64{}
	for _, pol := range []Pollutant{CO2, PM} {
		resp, err := c.Exchange(wire.QueryRequest{T: 1800, X: 1200, Y: 800, Pollutant: pol})
		if err != nil {
			t.Fatal(err)
		}
		qr, ok := resp.(wire.QueryResponse)
		if !ok {
			t.Fatalf("%v: got %T", pol, resp)
		}
		values[pol] = qr.Value
	}
	if values[CO2] <= values[PM] {
		t.Errorf("wire answers collapsed: %v", values)
	}

	// Model downloads carry the right pollutant tag.
	resp, err := c.Exchange(wire.ModelRequest{T: 1800, Pollutant: PM})
	if err != nil {
		t.Fatal(err)
	}
	mr, ok := resp.(wire.ModelResponse)
	if !ok {
		t.Fatalf("got %T", resp)
	}
	if tuple.Pollutant(mr.Pollutant) != PM {
		t.Errorf("model response pollutant = %v, want PM", mr.Pollutant)
	}

	// An unmonitored pollutant travels back as an ErrorResponse.
	resp, err = c.Exchange(wire.QueryRequest{T: 1800, Pollutant: CO})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := resp.(wire.ErrorResponse); !ok {
		t.Errorf("unmonitored pollutant over wire: got %T, want ErrorResponse", resp)
	}
}
