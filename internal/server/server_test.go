package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"image/png"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/heatmap"
	"repro/internal/kmeans"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// newTestStore holds a small two-window dataset with a known linear
// field s = 420 + 0.05x + 0.02y.
func newTestStore(t testing.TB) *store.Store {
	t.Helper()
	st := store.MustOpenMemory(600)
	if err := st.Append(testData()); err != nil {
		t.Fatal(err)
	}
	return st
}

// testData is newTestStore's dataset: 300 tuples in each of two 600 s
// windows over a 2 km square, on a linear field.
func testData() tuple.Batch {
	rng := rand.New(rand.NewSource(1))
	var b tuple.Batch
	for c := 0; c < 2; c++ {
		for i := 0; i < 300; i++ {
			x, y := rng.Float64()*2000, rng.Float64()*2000
			b = append(b, tuple.Raw{
				T: float64(c)*600 + rng.Float64()*600,
				X: x, Y: y,
				S: 420 + 0.05*x + 0.02*y,
			})
		}
	}
	return b
}

// newTestEngine builds an engine over newTestStore's dataset.
func newTestEngine(t testing.TB) *Engine {
	t.Helper()
	return NewEngine(newTestStore(t), core.Config{Cluster: kmeans.Config{Seed: 7}})
}

// HeatmapCover is HeatmapCoverInto a fresh grid: the raster and the
// cover it was drawn from, for tests that compare the two.
func (e *Engine) HeatmapCover(ctx context.Context, p tuple.Pollutant, t float64, cols, rows int) (*heatmap.Grid, *core.Cover, error) {
	return e.HeatmapCoverInto(ctx, new(heatmap.Grid), p, t, cols, rows)
}

// modeledTuples is how many tuples a cover's region models were fitted
// to: its window's population when the cover was built.
func modeledTuples(cv *core.Cover) int {
	n := 0
	for _, rn := range cv.N {
		n += int(rn)
	}
	return n
}

// defaultMaintainer is the cover maintainer of e's default pollutant.
func defaultMaintainer(t testing.TB, e *Engine) *core.Maintainer {
	t.Helper()
	m, err := e.MaintainerFor(e.Default())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// readAfterAck names the two ways a read is guaranteed to see an
// acknowledged ingest: the default engine after the maintenance barrier
// (until then the previous cover may still be served), and an engine
// without background builders immediately.
var readAfterAck = []struct {
	name    string
	workers int
	barrier func(e *Engine)
}{
	{"barrier", 0, func(e *Engine) { e.Scheduler().Wait() }},
	{"no-scheduler", -1, func(*Engine) {}},
}

// newTestEngineWorkers is newTestEngine with an explicit scheduler
// worker count (< 0: no background builders).
func newTestEngineWorkers(t *testing.T, workers int) *Engine {
	t.Helper()
	e, err := NewMultiEngineOpts(map[tuple.Pollutant]*store.Store{tuple.CO2: newTestStore(t)},
		core.Config{Cluster: kmeans.Config{Seed: 7}},
		Options{Scheduler: core.SchedulerConfig{Workers: workers}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestEnginePointQuery(t *testing.T) {
	e := newTestEngine(t)
	v, err := e.Query(context.Background(), query.Request{T: 300, X: 1000, Y: 1000})
	if err != nil {
		t.Fatal(err)
	}
	want := 420 + 0.05*1000 + 0.02*1000
	if math.Abs(v-want) > 20 {
		t.Errorf("Query = %v, want ~%v", v, want)
	}
	if _, err := e.Query(context.Background(), query.Request{T: 1e9}); err == nil {
		t.Error("query in empty window should error")
	}
}

func TestEngineHandleMessage(t *testing.T) {
	e := newTestEngine(t)
	resp := e.HandleMessage(wire.QueryRequest{T: 300, X: 500, Y: 500})
	qr, ok := resp.(wire.QueryResponse)
	if !ok {
		t.Fatalf("got %T, want QueryResponse", resp)
	}
	want := 420 + 0.05*500 + 0.02*500
	if math.Abs(qr.Value-want) > 20 {
		t.Errorf("value = %v, want ~%v", qr.Value, want)
	}

	resp = e.HandleMessage(wire.ModelRequest{T: 300})
	mr, ok := resp.(wire.ModelResponse)
	if !ok {
		t.Fatalf("got %T, want ModelResponse", resp)
	}
	if mr.ValidUntil != 600 {
		t.Errorf("t_n = %v, want 600", mr.ValidUntil)
	}
	if len(mr.Centroids) == 0 {
		t.Error("model response has no centroids")
	}

	resp = e.HandleMessage(wire.QueryRequest{T: 1e9})
	if _, ok := resp.(wire.ErrorResponse); !ok {
		t.Errorf("empty window should yield ErrorResponse, got %T", resp)
	}
	resp = e.HandleMessage(wire.QueryResponse{})
	if _, ok := resp.(wire.ErrorResponse); !ok {
		t.Errorf("unsupported request should yield ErrorResponse, got %T", resp)
	}
}

func TestEngineIngestInvalidatesCover(t *testing.T) {
	for _, mode := range readAfterAck {
		t.Run(mode.name, func(t *testing.T) {
			e := newTestEngineWorkers(t, mode.workers)
			before, err := e.CoverAt(context.Background(), tuple.CO2, 100)
			if err != nil {
				t.Fatal(err)
			}
			// Late data for window 0 must invalidate its cover.
			late := tuple.Batch{{T: 50, X: 1, Y: 1, S: 500}}
			if err := e.Ingest(context.Background(), tuple.CO2, late); err != nil {
				t.Fatal(err)
			}
			mode.barrier(e)
			after, err := e.CoverAt(context.Background(), tuple.CO2, 100)
			if err != nil {
				t.Fatal(err)
			}
			if before == after {
				t.Fatal("cover not rebuilt after late ingest")
			}
			st, err := e.StoreFor(e.Default())
			if err != nil {
				t.Fatal(err)
			}
			if n, want := modeledTuples(after), st.WindowLen(0); n != want {
				t.Errorf("rebuilt cover models %d tuples, window holds %d", n, want)
			}
		})
	}
}

func TestHTTPPointQuery(t *testing.T) {
	api := NewAPI(newTestEngine(t))
	srv := httptest.NewServer(api)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/query?t=300&x=1000&y=1000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var pr struct {
		Value  float64 `json:"value"`
		Unit   string  `json:"unit"`
		Band   string  `json:"band"`
		Advice string  `json:"advice"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.Unit != "ppm" || pr.Band == "" || pr.Advice == "" {
		t.Errorf("response incomplete: %+v", pr)
	}
	want := 420 + 0.05*1000 + 0.02*1000
	if math.Abs(pr.Value-want) > 20 {
		t.Errorf("value = %v, want ~%v", pr.Value, want)
	}
}

func TestHTTPPointQueryErrors(t *testing.T) {
	api := NewAPI(newTestEngine(t))
	srv := httptest.NewServer(api)
	defer srv.Close()

	cases := []struct {
		url  string
		want int
	}{
		{"/v1/query", http.StatusBadRequest},                   // missing params
		{"/v1/query?t=abc&x=1&y=1", http.StatusBadRequest},     // bad float
		{"/v1/query?t=999999999&x=1&y=1", http.StatusNotFound}, // empty window
		{"/v1/heatmap?t=300&cols=0", http.StatusBadRequest},    // no raster to draw
	}
	for _, tt := range cases {
		resp, err := http.Get(srv.URL + tt.url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tt.want {
			t.Errorf("%s: status %d, want %d", tt.url, resp.StatusCode, tt.want)
		}
	}
	// Wrong method.
	resp, err := http.Post(srv.URL+"/v1/query", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST point query: status %d", resp.StatusCode)
	}
}

func TestHTTPContinuous(t *testing.T) {
	api := NewAPI(newTestEngine(t))
	srv := httptest.NewServer(api)
	defer srv.Close()

	body, err := json.Marshal(map[string]interface{}{
		"points": []map[string]float64{
			{"t": 100, "x": 200, "y": 200},
			{"t": 200, "x": 800, "y": 800},
			{"t": 300, "x": 1500, "y": 1500},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/query/continuous", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var cr struct {
		Values  []struct{ Value float64 } `json:"values"`
		Average float64                   `json:"average"`
		Band    string                    `json:"band"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if len(cr.Values) != 3 {
		t.Fatalf("values = %d, want 3", len(cr.Values))
	}
	wantAvg := (cr.Values[0].Value + cr.Values[1].Value + cr.Values[2].Value) / 3
	if math.Abs(cr.Average-wantAvg) > 1e-9 {
		t.Errorf("average = %v, want %v", cr.Average, wantAvg)
	}
	if cr.Band == "" {
		t.Error("route band missing")
	}

	// Empty route is a bad request.
	resp2, err := http.Post(srv.URL+"/v1/query/continuous", "application/json",
		bytes.NewReader([]byte(`{"points":[]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("empty route: status %d", resp2.StatusCode)
	}
}

func TestHTTPModels(t *testing.T) {
	api := NewAPI(newTestEngine(t))
	srv := httptest.NewServer(api)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/models?t=300")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var mr wire.ModelResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if mr.ValidUntil != 600 || len(mr.Centroids) == 0 || len(mr.Centroids) != len(mr.Coefs) {
		t.Errorf("model response malformed: %+v", mr)
	}
	// The response reconstructs into a working cover.
	cv, err := wire.CoverFromModelResponse(mr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cv.Interpolate(300, 500, 500); err != nil {
		t.Errorf("reconstructed cover: %v", err)
	}
}

func TestHTTPHeatmap(t *testing.T) {
	api := NewAPI(newTestEngine(t))
	srv := httptest.NewServer(api)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/heatmap?t=300&cols=16&rows=16")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var hr struct {
		Grid struct {
			Cols   int       `json:"Cols"`
			Rows   int       `json:"Rows"`
			Values []float64 `json:"Values"`
		} `json:"grid"`
		Markers []struct {
			Band string `json:"band"`
		} `json:"markers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr.Grid.Cols != 16 || hr.Grid.Rows != 16 || len(hr.Grid.Values) != 256 {
		t.Errorf("grid malformed: cols=%d rows=%d values=%d",
			hr.Grid.Cols, hr.Grid.Rows, len(hr.Grid.Values))
	}
	if len(hr.Markers) == 0 {
		t.Error("no centroid markers")
	}

	// PNG variant decodes as an image.
	resp2, err := http.Get(srv.URL + "/v1/heatmap.png?t=300&cols=32&rows=32")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("png status = %d", resp2.StatusCode)
	}
	if ct := resp2.Header.Get("Content-Type"); ct != "image/png" {
		t.Errorf("content type = %q", ct)
	}
	img, err := png.Decode(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 32 {
		t.Errorf("png width = %d", img.Bounds().Dx())
	}
}

func TestHTTPIngestAndStats(t *testing.T) {
	api := NewAPI(newTestEngine(t))
	srv := httptest.NewServer(api)
	defer srv.Close()

	before := fetchStats(t, srv.URL)
	body := []byte(`{"tuples":[{"T":1250,"X":10,"Y":10,"S":500}]}`)
	resp, err := http.Post(srv.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	after := fetchStats(t, srv.URL)
	if after.Tuples != before.Tuples+1 {
		t.Errorf("tuples %d -> %d, want +1", before.Tuples, after.Tuples)
	}

	// Invalid tuple rejected.
	resp2, err := http.Post(srv.URL+"/v1/ingest", "application/json",
		bytes.NewReader([]byte(`{"tuples":[{"T":-5,"X":0,"Y":0,"S":0}]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid tuple: status %d", resp2.StatusCode)
	}
}

type statsR struct {
	Tuples       int     `json:"tuples"`
	Windows      int     `json:"windows"`
	WindowLength float64 `json:"windowLength"`
	Maintenance  struct {
		Built     int64 `json:"built"`
		Coalesced int64 `json:"coalesced"`
	} `json:"maintenance"`
}

func fetchStats(t *testing.T, base string) statsR {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	var s statsR
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestHTTPStatsShape(t *testing.T) {
	api := NewAPI(newTestEngine(t))
	srv := httptest.NewServer(api)
	defer srv.Close()
	s := fetchStats(t, srv.URL)
	if s.Tuples != 600 || s.Windows != 2 || s.WindowLength != 600 {
		t.Errorf("stats = %+v", s)
	}
}

// jsonKeys fetches url and returns the sorted dotted paths of every leaf
// of the JSON document; keys directly under a prefix listed in wildcard
// collapse to "*".
func jsonKeys(t *testing.T, url string, wildcard ...string) []string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	var got []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		m, ok := v.(map[string]any)
		if !ok {
			got = append(got, prefix)
			return
		}
		for k, sub := range m {
			if slices.Contains(wildcard, prefix) {
				k = "*"
			}
			walk(strings.TrimPrefix(prefix+"."+k, "."), sub)
		}
	}
	walk("", body)
	sort.Strings(got)
	return slices.Compact(got)
}

// statsKeys is the key set of /v1/stats on a single node.
const statsKeys = `
	cachedCovers
	checkpoint.checkpoints checkpoint.failures checkpoint.lastTuples checkpoint.lastWindows
	checkpoint.recoveredShards checkpoint.segmentsDeleted checkpoint.segmentsReplayed
	checkpoint.tuplesFromCheckpoint checkpoint.tuplesReplayed
	columnar.blocksPruned columnar.blocksScanned columnar.blocksWritten columnar.bytesRead
	columnar.lazyWindows columnar.materializations columnar.materializeFailures
	columnar.mmapReads columnar.readAtReads columnar.seedFailures columnar.sidecarsWritten
	defaultPollutant
	ingest.appends ingest.coalesced ingest.errors ingest.queued ingest.rejected
	ingest.submitted ingest.tuples
	maintenance.built maintenance.coalesced maintenance.dropped maintenance.failed
	maintenance.inflight maintenance.queueLen maintenance.refitted maintenance.scheduled
	maintenance.skipped
	maxTime
	perPollutant.*.cachedCovers perPollutant.*.maxTime perPollutant.*.tuples perPollutant.*.windows
	subscriptions.active subscriptions.avoided subscriptions.closed subscriptions.deltaPoints
	subscriptions.dropped subscriptions.invalidations subscriptions.matches
	subscriptions.pointReEvals subscriptions.pushes subscriptions.reEvals
	subscriptions.resyncs subscriptions.subscribed
	tuples windowLength windows`

// TestHTTPStatsKeys pins the key sets of /v1/stats and /v1/cluster. The
// sections are the packages' own stats structs marshalled through their
// JSON tags, so a renamed or untagged field would otherwise change the
// wire silently.
func TestHTTPStatsKeys(t *testing.T) {
	check := func(what string, got []string, want string) {
		t.Helper()
		w := strings.Fields(want)
		sort.Strings(w)
		if !slices.Equal(got, w) {
			t.Errorf("%s keys:\n%v\nwant\n%v", what, got, w)
		}
	}
	srv := httptest.NewServer(NewAPI(newTestEngine(t)))
	defer srv.Close()
	check("/v1/stats", jsonKeys(t, srv.URL+"/v1/stats", "perPollutant"), statsKeys)

	// A member of a replicated ring adds the routing counters to
	// /v1/stats and serves them, with the replication counters, on
	// /v1/cluster.
	region := geo.Rect{Min: geo.Point{X: -1000, Y: -1000}, Max: geo.Point{X: 1000, Y: 1000}}
	cells, err := cluster.Cells(region, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := cluster.NewRing(cluster.Desc{Nodes: []string{"a:1", "b:2"}, Cells: cells, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng := newTestEngine(t)
	node, err := cluster.NewNode(cluster.NodeConfig{
		Ring: ring, Self: 0, Local: eng,
		Replication: cluster.ReplicationConfig{NewMirror: func() cluster.Handler { return newTestEngine(t) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	csrv := httptest.NewServer(NewClusterAPI(eng, node))
	defer csrv.Close()
	const routing = `local forwarded forwardedIn scatters errors failedOver rehomed epochMismatches`
	const replication = `streamed streamDrops streamErrors gapNaks applied gaps catchups snapshots mirrorReads mirrors`
	prefixed := func(prefix, keys string) string {
		return prefix + strings.Join(strings.Fields(keys), " "+prefix)
	}
	check("cluster member /v1/stats", jsonKeys(t, csrv.URL+"/v1/stats", "perPollutant"),
		statsKeys+" "+prefixed("cluster.", routing))
	check("/v1/cluster", jsonKeys(t, csrv.URL+"/v1/cluster", "shards", "shards.*"),
		`self epoch ring.nodes ring.cells ring.vnodes ring.replicas shards.*.* `+
			prefixed("routing.", routing)+" "+prefixed("replication.", replication))

	// The rendered sections, byte for byte and in field order.
	for want, v := range map[string]any{
		`{"local":1,"forwarded":2,"forwardedIn":3,"scatters":4,"errors":5,"failedOver":6,"rehomed":7,"epochMismatches":8}`: cluster.Stats{
			Local: 1, Forwarded: 2, ForwardedIn: 3, Scatters: 4, Errors: 5,
			FailedOver: 6, Rehomed: 7, EpochMismatches: 8},
		`{"streamed":1,"streamDrops":2,"streamErrors":3,"gapNaks":4,"applied":5,"gaps":6,"catchups":7,"snapshots":8,"mirrorReads":9,"mirrors":10}`: cluster.ReplicationStats{
			Streamed: 1, StreamDrops: 2, StreamErrors: 3, GapNaks: 4, Applied: 5, Gaps: 6,
			Catchups: 7, Snapshots: 8, MirrorReads: 9, Mirrors: 10},
	} {
		if got, err := json.Marshal(v); err != nil || string(got) != want {
			t.Errorf("%T renders %s (%v), want %s", v, got, err, want)
		}
	}
}

// TestHTTPStatsMaintenanceCoalesced checks the coalesced counter reaches
// /v1/stats: a rebuild request for a window whose cover is already
// current is absorbed, not built.
func TestHTTPStatsMaintenanceCoalesced(t *testing.T) {
	e := newTestEngine(t)
	defer e.Close()
	srv := httptest.NewServer(NewAPI(e))
	defer srv.Close()
	if _, err := e.CoverAt(context.Background(), tuple.CO2, 100); err != nil {
		t.Fatal(err)
	}
	e.Scheduler().Schedule(defaultMaintainer(t, e), 0) // window 0 is current
	e.Scheduler().Wait()
	if s := fetchStats(t, srv.URL); s.Maintenance.Coalesced != 1 || s.Maintenance.Built != 0 {
		t.Errorf("maintenance = %+v, want the request coalesced and nothing built", s.Maintenance)
	}
}

func TestClassifyReexport(t *testing.T) {
	if ClassifyFor(tuple.CO2, 400).String() != "fresh" {
		t.Error("ClassifyFor mismatch")
	}
	_ = fmt.Sprintf // keep fmt for future use in this test file
}

// TestHeatmapCoverReturnsTheRastersCover: the cover handed back beside
// the raster is the one the raster was drawn from — it still reproduces
// every cell after the window has been invalidated and rebuilt — so the
// HTTP handler's markers and raster share a cover generation.
func TestHeatmapCoverReturnsTheRastersCover(t *testing.T) {
	for _, mode := range readAfterAck {
		t.Run(mode.name, func(t *testing.T) {
			e := newTestEngineWorkers(t, mode.workers)
			ctx := context.Background()
			grid, cv, err := e.HeatmapCover(ctx, tuple.CO2, 300, 8, 8)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Ingest(ctx, tuple.CO2, tuple.Batch{{T: 310, X: 1000, Y: 1000, S: 2000}}); err != nil {
				t.Fatal(err)
			}
			mode.barrier(e)
			if now, err := e.CoverAt(ctx, tuple.CO2, 300); err != nil || now == cv {
				t.Fatalf("window not rebuilt after ingest (err %v)", err)
			}
			want, err := heatmap.FromCover(cv, grid.Region, grid.Cols, grid.Rows, grid.T)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(grid, want) {
				t.Error("raster does not match the cover returned with it")
			}
		})
	}
}
