package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/heatmap"
	"repro/internal/proto"
	"repro/internal/query"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// sinkWriter is an http.ResponseWriter that keeps the last response's
// status and body in memory it reuses, so what a measurement sees is the
// handler's allocation, not a recorder's.
type sinkWriter struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func newSinkWriter() *sinkWriter { return &sinkWriter{h: make(http.Header)} }

func (s *sinkWriter) Header() http.Header  { return s.h }
func (s *sinkWriter) WriteHeader(code int) { s.status = code }

func (s *sinkWriter) Write(p []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	return s.body.Write(p)
}

// replay is one request served again and again through the same
// *http.Request, its body re-read from the start each time.
type replay struct {
	r    *http.Request
	body []byte
	rd   *bytes.Reader
}

func newReplay(method, target string, body []byte) *replay {
	p := &replay{r: httptest.NewRequest(method, target, nil), body: body, rd: bytes.NewReader(body)}
	p.r.Body = io.NopCloser(p.rd)
	return p
}

// serve answers the request into w, which it empties first.
func (p *replay) serve(h http.Handler, w *sinkWriter) {
	p.rd.Reset(p.body)
	clear(w.h)
	w.status = 0
	w.body.Reset()
	h.ServeHTTP(w, p.r)
}

// routeBody is a continuous-query body of n points along a diagonal of
// newTestStore's first window.
func routeBody(n int) []byte {
	var b strings.Builder
	b.WriteString(`{"points":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"t":%d,"x":%d,"y":%d}`, 100+i, 100+18*i, 200+15*i)
	}
	b.WriteString(`]}`)
	return []byte(b.String())
}

// bytesPerOp is the median of five rounds' heap bytes per call of f,
// after a warm-up call: a round in which the collector emptied a pool
// pays for new buffers, which says nothing about the steady state.
func bytesPerOp(f func()) uint64 {
	const calls = 20
	f()
	var per []uint64
	for r := 0; r < 5; r++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < calls; i++ {
			f()
		}
		runtime.ReadMemStats(&m1)
		per = append(per, (m1.TotalAlloc-m0.TotalAlloc)/calls)
	}
	slices.Sort(per)
	return per[len(per)/2]
}

// post answers one POST through api.ServeHTTP.
func post(api *API, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// TestHTTPHeatmapCellCap: a raster over maxHeatmapCells is the caller's
// 400 on both heatmap endpoints, answered before anything is rendered —
// 2000×2000 cells would be a 32 MB raster.
func TestHTTPHeatmapCellCap(t *testing.T) {
	api := NewAPI(newTestEngine(t))
	w := newSinkWriter()
	for _, path := range []string{"/v1/heatmap", "/v1/heatmap.png"} {
		p := newReplay(http.MethodGet, path+"?t=300&cols=2000&rows=2000", nil)
		if b := bytesPerOp(func() { p.serve(api, w) }); b > 64<<10 {
			t.Errorf("%s 2000x2000: %d B per refused request, want no raster rendered", path, b)
		}
		if w.status != http.StatusBadRequest || !strings.Contains(w.body.String(), "at most 1048576 cells") {
			t.Errorf("%s 2000x2000: %d %s, want 400 naming the cap", path, w.status, w.body.String())
		}
	}
	for q, ok := range map[string]bool{"cols=1024&rows=1024": true, "cols=1048576&rows=1": true,
		"cols=1025&rows=1024": false, "cols=1048577&rows=1": false} {
		_, _, _, _, err := api.heatmapParams(httptest.NewRequest(http.MethodGet, "/v1/heatmap?t=300&"+q, nil).URL.RawQuery, 64)
		if (err == nil) != ok {
			t.Errorf("%s: %v, want accepted = %v", q, err, ok)
		}
	}
}

// TestTCPHeatmapOverFrameBudget: a single node refuses a heatmap whose
// response could not fit one frame with CodeTooLarge before rendering it,
// instead of rendering it and dropping the connection when the frame
// fails, and the connection keeps serving — the widest grid a request can
// name too, whose 65 535 × 65 535 cells overflow a 32-bit int. The largest
// raster that fits is still answered.
func TestTCPHeatmapOverFrameBudget(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := proto.Serve(ln, newTestEngine(t), proto.ServerConfig{})
	defer srv.Close()
	c, err := proto.Dial(ln.Addr().String(), proto.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var resp wire.Message
	for _, n := range []uint16{400, math.MaxUint16} {
		resp, err = c.Exchange(wire.HeatmapRequest{T: 300, Pollutant: tuple.CO2, Cols: n, Rows: n})
		if er, ok := resp.(wire.ErrorResponse); err != nil || !ok || er.Code != wire.CodeTooLarge {
			t.Fatalf("%dx%d heatmap: %#v, %v; want an ErrorResponse coded CodeTooLarge", n, n, resp, err)
		}
	}
	side := 1
	for (side+1)*(side+1) <= cluster.MaxHeatmapCells {
		side++
	}
	for _, n := range []int{64, side} {
		resp, err = c.Exchange(wire.HeatmapRequest{T: 300, Pollutant: tuple.CO2, Cols: uint16(n), Rows: uint16(n)})
		if hr, ok := resp.(wire.HeatmapResponse); err != nil || !ok || len(hr.Values) != n*n {
			t.Errorf("%dx%d heatmap after the refusal: %T, %v", n, n, resp, err)
		}
	}
}

// TestHTTPBodyBounds pins the body rules of every JSON endpoint: a body
// over maxBodyBytes is a 413, bytes after the JSON value are a 400, and
// the largest legitimate body — a wire.MaxBatchItems batch written at
// full float precision — fits and is answered.
func TestHTTPBodyBounds(t *testing.T) {
	region := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 2000, Y: 2000}}
	cells, err := cluster.Cells(region, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := cluster.NewRing(cluster.Desc{Nodes: []string{"a:1"}, Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	eng := newTestEngine(t)
	node, err := cluster.NewNode(cluster.NodeConfig{Ring: ring, Self: 0, Local: eng})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	capi := NewClusterAPI(eng, node)
	api := NewAPI(newTestEngine(t))

	over := strings.Repeat(" ", maxBodyBytes+1)
	paths := []string{"/v1/query/batch", "/v1/query/continuous", "/v1/route/summary", "/v1/ingest", "/v1/cluster/join"}
	for _, path := range paths {
		if rec := post(capi, path, over); rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s, %d-byte body: %d %s, want 413", path, len(over), rec.Code, rec.Body)
		}
		if rec := post(capi, path, `{} {}`); rec.Code != http.StatusBadRequest {
			t.Errorf("%s, bytes after the value: %d %s, want 400", path, rec.Code, rec.Body)
		}
	}
	route := `{"points":[{"t":300,"x":1000,"y":1000}]}`
	if rec := post(api, "/v1/query/continuous", route); rec.Code != http.StatusOK {
		t.Errorf("continuous: %d %s", rec.Code, rec.Body)
	}
	if rec := post(api, "/v1/query/continuous", route+` {"points":[]}`); rec.Code != http.StatusBadRequest {
		t.Errorf("continuous with a second value after the first: %d, want 400", rec.Code)
	}

	var b strings.Builder
	b.WriteString(`{"requests":[`)
	for i := 0; i < wire.MaxBatchItems; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"t":%v,"x":%v,"y":%v,"pollutant":"CO2"}`,
			599.9999999999999-float64(i%7), 1999.9999999999998-float64(i%1000), 1234.5678901234567)
	}
	b.WriteString(`]}`)
	if b.Len() > maxBodyBytes {
		t.Fatalf("a %d-item batch is %d bytes, over the %d-byte bound", wire.MaxBatchItems, b.Len(), maxBodyBytes)
	}
	rec := post(api, "/v1/query/batch", b.String())
	var br struct {
		Values []json.RawMessage `json:"values"`
		Errors int               `json:"errors"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &br); rec.Code != http.StatusOK || err != nil ||
		len(br.Values) != wire.MaxBatchItems || br.Errors != 0 {
		t.Errorf("%d-byte batch of %d: %d, %d values, %d errors (%v)", b.Len(), wire.MaxBatchItems,
			rec.Code, len(br.Values), br.Errors, err)
	}
}

// TestHTTPPooledRequestsDoNotLeak: a continuous body whose points omit
// fields, sent right after one that set them all, answers what the same
// body with the omitted fields written as zeros answers — nothing of the
// earlier request survives in the pooled request state.
func TestHTTPPooledRequestsDoNotLeak(t *testing.T) {
	api := NewAPI(newTestEngine(t))
	const (
		path     = "/v1/query/continuous"
		full     = `{"points":[{"t":310,"x":1500,"y":1700},{"t":320,"x":1600,"y":1800},{"t":330,"x":1700,"y":1900}]}`
		omitted  = `{"points":[{"x":100,"y":200},{"t":100,"y":300},{"t":200,"x":400}]}`
		explicit = `{"points":[{"t":0,"x":100,"y":200},{"t":100,"x":0,"y":300},{"t":200,"x":400,"y":0}]}`
	)
	want := post(api, path, explicit)
	if want.Code != http.StatusOK {
		t.Fatalf("explicit: %d %s", want.Code, want.Body)
	}
	for round := 0; round < 3; round++ {
		if rec := post(api, path, full); rec.Code != http.StatusOK {
			t.Fatalf("full: %d %s", rec.Code, rec.Body)
		}
		if got := post(api, path, omitted); got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Errorf("omitted fields after a full request:\n%d %s\nwant\n%d %s",
				got.Code, got.Body, want.Code, want.Body)
		}
	}
}

// freshRender is heatmap.FromCover of the cover at tm over its window's
// data bounds, inflated as the engine inflates them.
func freshRender(t *testing.T, e *Engine, tm float64, cols, rows int) (*heatmap.Grid, *core.Cover) {
	t.Helper()
	cv, err := e.CoverAt(context.Background(), tuple.CO2, tm)
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.StoreFor(tuple.CO2)
	if err != nil {
		t.Fatal(err)
	}
	bounds, ok := st.WindowBounds(tuple.WindowIndex(tm, st.WindowLength()))
	if !ok {
		t.Fatalf("no data at t=%v", tm)
	}
	g, err := heatmap.FromCover(cv, bounds.Inflate(100), cols, rows, tm)
	if err != nil {
		t.Fatal(err)
	}
	return g, cv
}

// heatmapBody is the /v1/heatmap body for raster g drawn from cv.
func heatmapBody(t *testing.T, g *heatmap.Grid, cv *core.Cover) []byte {
	t.Helper()
	markers, err := heatmap.Markers(cv, g.T)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(heatmapResponse{Grid: g, Markers: markers})
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestHTTPPooledHeatmapsMatchFreshRenders: 64×64, then 8×8 into the
// grid the first left behind, then 64×64 again answer byte for byte
// what fresh heatmap.FromCover renders encode to, as JSON and (rendered
// fresh) as PNG.
func TestHTTPPooledHeatmapsMatchFreshRenders(t *testing.T) {
	e := newTestEngine(t)
	api := NewAPI(e)
	w := newSinkWriter()
	for _, n := range []int{64, 8, 64} {
		g, cv := freshRender(t, e, 300, n, n)
		q := fmt.Sprintf("?t=300&cols=%d&rows=%d", n, n)
		newReplay(http.MethodGet, "/v1/heatmap"+q, nil).serve(api, w)
		if want := heatmapBody(t, g, cv); w.status != http.StatusOK || !bytes.Equal(w.body.Bytes(), want) {
			t.Errorf("%dx%d heatmap: %d, %d bytes differ from a fresh render's %d", n, n, w.status, w.body.Len(), len(want))
		}
		var png bytes.Buffer
		if err := g.WritePNG(&png, tuple.CO2); err != nil {
			t.Fatal(err)
		}
		newReplay(http.MethodGet, "/v1/heatmap.png"+q, nil).serve(api, w)
		if w.status != http.StatusOK || !bytes.Equal(w.body.Bytes(), png.Bytes()) {
			t.Errorf("%dx%d png: %d, differs from a fresh render's", n, n, w.status)
		}
	}
}

// TestHTTPPooledConcurrentRequests runs heatmaps, continuous routes and
// batches of different sizes from several goroutines at once — the
// pooled grids, route states and body buffers passing between them — and
// checks every body against the engine's in-process answer.
func TestHTTPPooledConcurrentRequests(t *testing.T) {
	e := newTestEngine(t)
	api := NewAPI(e)
	ctx := context.Background()
	type call struct {
		method, path string
		body         []byte
		want         []byte
	}
	var calls []call
	for _, sz := range [][2]int{{8, 8}, {64, 64}, {16, 40}} {
		g, cv, err := e.HeatmapCover(ctx, tuple.CO2, 300, sz[0], sz[1])
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, call{http.MethodGet, fmt.Sprintf("/v1/heatmap?t=300&cols=%d&rows=%d", sz[0], sz[1]),
			nil, heatmapBody(t, g, cv)})
	}
	rng := rand.New(rand.NewSource(3))
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	for _, n := range []int{3, 50, 100} {
		reqs := make([]query.Request, n)
		pts := make([]map[string]float64, n)
		for i := range reqs {
			reqs[i] = query.Request{T: 900 + rng.Float64()*200, X: rng.Float64() * 2000, Y: rng.Float64() * 2000, Pollutant: tuple.CO2}
			pts[i] = map[string]float64{"t": reqs[i].T, "x": reqs[i].X, "y": reqs[i].Y}
		}
		rs, err := e.QueryBatch(ctx, reqs)
		if err != nil {
			t.Fatal(err)
		}
		resp := continuousResponse{}
		var sum float64
		for _, r := range rs {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			resp.Values = append(resp.Values, pointResponseFor(tuple.CO2, r.Value))
			sum += r.Value
		}
		resp.Average = sum / float64(n)
		resp.Band, resp.Advice = ClassifyFor(tuple.CO2, resp.Average).String(), ClassifyFor(tuple.CO2, resp.Average).Advice()
		calls = append(calls, call{http.MethodPost, "/v1/query/continuous", marshal(map[string]any{"points": pts}), marshal(resp)})
	}
	for _, n := range []int{5, 60} {
		reqs := make([]query.Request, n)
		items := make([]map[string]any, n)
		for i := range reqs {
			// Every third item omits "x" and every fifth lies outside the
			// data, so the batch carries per-item errors too.
			reqs[i] = query.Request{T: rng.Float64() * 1200, X: rng.Float64() * 2000, Y: rng.Float64() * 2000, Pollutant: tuple.CO2}
			if i%5 == 4 {
				reqs[i].T = 1e7
			}
			items[i] = map[string]any{"t": reqs[i].T, "y": reqs[i].Y}
			if i%3 == 0 {
				reqs[i].X = 0
			} else {
				items[i]["x"] = reqs[i].X
			}
		}
		rs, err := e.QueryBatch(ctx, reqs)
		if err != nil {
			t.Fatal(err)
		}
		var resp batchResponse
		for _, r := range rs {
			if r.Err != nil {
				resp.Values = append(resp.Values, batchItemResponse{Error: r.Err.Error()})
				resp.Errors++
				continue
			}
			resp.Values = append(resp.Values, batchItemResponse{pointResponse: pointResponseFor(tuple.CO2, r.Value)})
		}
		calls = append(calls, call{http.MethodPost, "/v1/query/batch", marshal(map[string]any{"requests": items}), marshal(resp)})
	}

	const goroutines, rounds = 6, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := newSinkWriter()
			for i := 0; i < rounds; i++ {
				c := calls[(g+i*7)%len(calls)]
				newReplay(c.method, c.path, c.body).serve(api, w)
				if w.status != http.StatusOK || !bytes.Equal(w.body.Bytes(), c.want) {
					t.Errorf("%s %s (%d-byte body): %d\n%.300s\nwant\n%.300s", c.method, c.path, len(c.body), w.status, w.body.Bytes(), c.want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// httpReadFixture is an API over newTestEngine's data with the two reads
// of the web interface ready to replay: a 64×64 heatmap and a 100-point
// continuous route.
func httpReadFixture(tb testing.TB) (api *API, heat, route *replay) {
	api = NewAPI(newTestEngine(tb))
	heat = newReplay(http.MethodGet, "/v1/heatmap?t=300&cols=64&rows=64", nil)
	route = newReplay(http.MethodPost, "/v1/query/continuous", routeBody(100))
	w := newSinkWriter()
	for _, p := range []*replay{heat, route} {
		if p.serve(api, w); w.status != http.StatusOK {
			tb.Fatalf("%s: %d %s", p.r.URL, w.status, w.body.String())
		}
	}
	return api, heat, route
}

// TestHTTPHeatmapAllocs: a 64×64 heatmap renders into a lent raster and
// is appended, markers and all, into a pooled body buffer, with its
// parameters read off the raw query: a request allocates next to nothing
// of the 32 KiB raster and ≈ 80 KB of JSON it answers with.
func TestHTTPHeatmapAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	api, heat, _ := httpReadFixture(t)
	w := newSinkWriter()
	b := bytesPerOp(func() { heat.serve(api, w) })
	t.Logf("64x64 /v1/heatmap = %d B/op (%d-byte body)", b, w.body.Len())
	if b > 512 {
		t.Errorf("64x64 /v1/heatmap = %d B/op, want ≤ 512 B (the raster alone is 32 KiB)", b)
	}
}

// TestHTTPContinuousAllocs: a 100-point route decodes from a pooled
// buffer into a pooled request state, is answered into that state's
// results and appended into a pooled body buffer; what is left is
// encoding/json's decoder and the ETag.
func TestHTTPContinuousAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	api, _, route := httpReadFixture(t)
	w := newSinkWriter()
	b := bytesPerOp(func() { route.serve(api, w) })
	t.Logf("100-point /v1/query/continuous = %d B/op", b)
	if b > 1<<10 {
		t.Errorf("100-point /v1/query/continuous = %d B/op, want ≤ 1 KiB", b)
	}
}
