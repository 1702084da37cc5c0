package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"image/png"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/geo"
	"repro/internal/heatmap"
	"repro/internal/kmeans"
	"repro/internal/query"
	"repro/internal/regress"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// The encoding/json shapes of the answers jsonBuf appends: what the
// handlers encoded before, and what FuzzHTTPJSONParity holds the
// appenders to.
type (
	heatmapResponse struct {
		Grid    *heatmap.Grid            `json:"grid"`
		Markers []heatmap.CentroidMarker `json:"markers"`
		Partial *partialJSON             `json:"partial,omitempty"`
	}
	partialJSON struct {
		Dead        []int `json:"dead"`
		StaleShards int   `json:"staleShards"`
	}
	continuousResponse struct {
		Values  []pointResponse `json:"values"`
		Average float64         `json:"average"`
		Band    string          `json:"band"`
		Advice  string          `json:"advice"`
	}
)

// encodeJSON is what json.NewEncoder(w).Encode writes for v, or its error.
func encodeJSON(v any) ([]byte, error) {
	var b bytes.Buffer
	err := json.NewEncoder(&b).Encode(v)
	return b.Bytes(), err
}

// sameRender fails t unless an appender's body and error are encoding/
// json's for the same value: equal bytes, or the same error.
func sameRender(t *testing.T, what string, o *jsonBuf, want []byte, wantErr error) {
	t.Helper()
	switch {
	case (o.err == nil) != (wantErr == nil):
		t.Fatalf("%s: appender error %v, encoding/json error %v", what, o.err, wantErr)
	case o.err != nil && o.err.Error() != wantErr.Error():
		t.Fatalf("%s: appender error %q, encoding/json error %q", what, o.err, wantErr)
	case o.err == nil && !bytes.Equal(o.b, want):
		t.Fatalf("%s:\nappender      %q\nencoding/json %q", what, o.b, want)
	}
}

// fleetHour is the hour of the benchmark's fleet (16 buses on two
// Lausanne lines, sampling every 30 s; fleet seed 7) whose cover has the
// benchmark's mean size, 38 regions.
const fleetHour = 17

// fleetT is a time inside fleetHour.
const fleetT = (fleetHour + 0.5) * 3600

// fleetData is fleetHour's tuples.
func fleetData(tb testing.TB) tuple.Batch {
	tb.Helper()
	cfg := sim.DefaultLausanne(7)
	lines := []*geo.Polyline{cfg.Vehicles[0].Route, cfg.Vehicles[2].Route}
	rng := rand.New(rand.NewSource(7))
	cfg.Vehicles = make([]sim.Vehicle, 16)
	for i := range cfg.Vehicles {
		line := lines[i%len(lines)]
		cfg.Vehicles[i] = sim.Vehicle{Route: line, SpeedMPS: 6 + 2*rng.Float64(), StartOffset: line.Length() * rng.Float64()}
	}
	cfg.SamplingInterval, cfg.Duration = 30, (fleetHour+1)*3600
	data, err := sim.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var hour tuple.Batch
	for _, r := range data {
		if tuple.WindowIndex(r.T, 3600) == fleetHour {
			hour = append(hour, r)
		}
	}
	return hour
}

// fleetEngine serves fleetData, in one-hour windows, and returns its
// cover.
func fleetEngine(tb testing.TB) (*Engine, *core.Cover) {
	tb.Helper()
	st := store.MustOpenMemory(3600)
	if err := st.Append(fleetData(tb)); err != nil {
		tb.Fatal(err)
	}
	e := NewEngine(st, core.Config{Pollutant: tuple.CO2})
	tb.Cleanup(func() { e.Close() })
	cv, err := e.CoverAt(context.Background(), tuple.CO2, fleetT)
	if err != nil {
		tb.Fatal(err)
	}
	if k := cv.Size(); k < 30 || k > 44 {
		tb.Fatalf("the fleet hour's cover has %d regions, want the benchmark's ≈ 36", k)
	}
	return e, cv
}

// floatBits is vs as the little-endian bit patterns the fuzz input reads.
func floatBits(vs ...float64) []byte {
	b := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// fuzzFloats reads float64 bit patterns off a fuzz input, cycling through
// them; an input shorter than one float reads zeros.
type fuzzFloats struct {
	vs []float64
	i  int
}

func newFuzzFloats(raw []byte) *fuzzFloats {
	r := &fuzzFloats{}
	for ; len(raw) >= 8; raw = raw[8:] {
		r.vs = append(r.vs, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
	}
	return r
}

func (r *fuzzFloats) next() float64 {
	if len(r.vs) == 0 {
		return 0
	}
	v := r.vs[r.i%len(r.vs)]
	r.i++
	return v
}

// rest is the floats not read yet, nil when there are none.
func (r *fuzzFloats) rest() []float64 {
	if r.i >= len(r.vs) {
		return nil
	}
	return r.vs[r.i:]
}

var fuzzFamilies = []regress.Features{regress.LinearXYT, regress.Constant, regress.LinearT, regress.LinearXY, regress.QuadraticXY}

// FuzzHTTPJSONParity: every appender writes, for any value, the bytes
// json.NewEncoder(w).Encode writes for the same value — or fails with its
// error. The input's bytes are float64 bit patterns: a cover's centroids,
// coefficients and bounds, a raster's region and values, a route's
// results. k is the cover's region count (0 is an empty cover), flags pick
// the model family, the pollutant, an empty or nil raster and the partial
// marker, and s is a string.
func FuzzHTTPJSONParity(f *testing.F) {
	edges := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308, 1e-7, -1e-7,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 1e21, math.Nextafter(1e21, 0), -1e21,
		1e20, 123456789012345678901, 0.1, 1.0 / 3, 420.5, -17, math.MaxFloat64, math.SmallestNonzeroFloat64,
		1e-9, 1.5e-10, 3e100, 2.5e-100}
	f.Add(floatBits(edges...), "<script>&amp;\u2028\u2029\xff\xfe\x00\x1f\"\\ µg/m³", uint8(len(edges)/6), uint8(0))
	f.Add(floatBits(edges...), "", uint8(0), uint8(0xff))
	f.Add(floatBits(1, math.NaN()), "a", uint8(1), uint8(2))
	f.Add(floatBits(1, 2, math.Inf(-1)), "b", uint8(1), uint8(9))
	f.Add([]byte{}, "\xed\xa0\x80", uint8(3), uint8(16))
	// A benchmark-sized cover: its centroids, coefficients and bounds, read
	// back in fuzzCover's order, then a raster's region and values.
	_, cv := fleetEngine(f)
	var vs []float64
	for _, c := range cv.Centroids {
		vs = append(vs, c.X, c.Y)
	}
	vs = append(vs, cv.Coefs...)
	vs = append(vs, cv.ValidFrom, cv.ValidUntil, cv.ValueLo, cv.ValueHi, fleetT)
	vs = append(vs, 0, 0, 2000, 1500, fleetT)
	for i := 0; i < 64; i++ {
		v, err := cv.Interpolate(fleetT, float64(i)*30, float64(i)*20)
		if err != nil {
			f.Fatal(err)
		}
		vs = append(vs, v)
	}
	f.Add(floatBits(vs...), "fresh", uint8(cv.Size()), uint8(0))

	f.Fuzz(func(t *testing.T, raw []byte, s string, k, flags uint8) {
		o := getJSONBuf()
		defer putJSONBuf(o)
		reset := func() { o.b, o.err = o.b[:0], nil }

		o.str(s)
		want, err := json.Marshal(s)
		sameRender(t, "string", o, want, err)

		r := newFuzzFloats(raw)
		for _, v := range r.vs {
			reset()
			o.num(v)
			want, err := json.Marshal(v)
			sameRender(t, fmt.Sprintf("float %v (%#x)", v, math.Float64bits(v)), o, want, err)
		}

		cv := fuzzCover(r, int(k), flags)
		reset()
		o.model(cv)
		resp, err := wire.ModelResponseFromCover(cv)
		if err == nil {
			want, err = encodeJSON(resp)
		}
		sameRender(t, "model", o, want, err)

		if cv.Features == nil {
			// Markers evaluate every region's model: a served cover has a
			// family, and fuzzCover gave this one a coefficient per region.
			cv.Features = regress.Constant
		}
		tm := r.next()
		g := &heatmap.Grid{
			Region: geo.Rect{Min: geo.Point{X: r.next(), Y: r.next()}, Max: geo.Point{X: r.next(), Y: r.next()}},
			Cols:   int(k) - 3, Rows: int(flags), T: r.next(), Values: r.rest(),
		}
		if g.Values == nil && flags&16 != 0 {
			g.Values = []float64{} // empty, not null
		}
		if flags&32 != 0 {
			g = nil
		}
		var pe *cluster.PartialError
		hr := heatmapResponse{Grid: g}
		if flags&64 != 0 {
			pe = &cluster.PartialError{Partial: cluster.Partial{StaleShards: int(k) - 100}}
			for _, b := range raw[:min(len(raw), int(flags&7))] {
				pe.Dead = append(pe.Dead, int(b)-8)
			}
			if flags&128 != 0 && pe.Dead == nil {
				pe.Dead = []int{}
			}
			hr.Partial = &partialJSON{Dead: pe.Dead, StaleShards: pe.StaleShards}
		}
		reset()
		o.heatmap(g, cv, tm, pe)
		if hr.Markers, err = heatmap.Markers(cv, tm); err == nil {
			want, err = encodeJSON(hr)
		}
		sameRender(t, "heatmap", o, want, err)

		pol := tuple.Pollutant(flags % 3)
		rs := make([]query.BatchResult, len(r.vs))
		cr := continuousResponse{Values: []pointResponse{}}
		var sum float64
		for i, v := range r.vs {
			rs[i] = query.BatchResult{Value: v}
			cr.Values = append(cr.Values, pointResponseFor(pol, v))
			sum += v
		}
		cr.Average = sum / float64(len(rs))
		cr.Band, cr.Advice = ClassifyFor(pol, cr.Average).String(), ClassifyFor(pol, cr.Average).Advice()
		reset()
		o.continuous(pol, rs)
		want, err = encodeJSON(cr)
		sameRender(t, "continuous", o, want, err)

		n := int(binary.LittleEndian.Uint16(append(raw, 0, 0)))
		reset()
		o.ingested(n)
		want, err = encodeJSON(map[string]int{"ingested": n})
		sameRender(t, "ingest", o, want, err)
	})
}

// fuzzCover is a hand-built cover of k regions read off r: the family
// flags&7 picks (past the five families, none), the pollutant (flags>>3)%3.
func fuzzCover(r *fuzzFloats, k int, flags uint8) *core.Cover {
	cv := &core.Cover{Pollutant: tuple.Pollutant((flags >> 3) % 3)}
	if i := int(flags & 7); i < len(fuzzFamilies) {
		cv.Features = fuzzFamilies[i]
	}
	d := 1
	if cv.Features != nil {
		d = cv.Features.Dim()
	}
	for j := 0; j < k; j++ {
		cv.Centroids = append(cv.Centroids, geo.Point{X: r.next(), Y: r.next()})
	}
	for j := 0; j < k*d; j++ {
		cv.Coefs = append(cv.Coefs, r.next())
	}
	cv.ValidFrom, cv.ValidUntil, cv.ValueLo, cv.ValueHi = r.next(), r.next(), r.next(), r.next()
	return cv
}

// TestQueryParamMatchesParseQuery: the raw-query reader answers what
// url.ParseQuery(q).Get(name) answers, for every parameter of every query.
func TestQueryParamMatchesParseQuery(t *testing.T) {
	queries := []string{
		"",
		"t=300",
		"t=300&t=400",
		"t=&t=400",
		"t",
		"t&t=5",
		"=5&t=6",
		"t=1+2&x=a%20b",
		"t=%zz&t=7",
		"%zz=1&t=8",
		"t=9;x=1&t=10",
		"x=1;t=2",
		"a&&t=11&",
		"p%6Fllutant=PM&pollutant=CO2",
		"pollutant=%43O2",
		"t=1e%2B06&cols=%2B5",
		"x=%2",
		"t=a=b",
		"t=%E2%80%A8",
		"&&&",
		"+t=1&t+=2& t=3",
	}
	names := []string{"t", "x", "cols", "pollutant", "p%6Fllutant", "", " t", "t ", "a"}
	for _, q := range queries {
		vs, _ := url.ParseQuery(q)
		for _, name := range names {
			if got, want := queryParam(q, name), vs.Get(name); got != want {
				t.Errorf("queryParam(%q, %q) = %q, url.ParseQuery's Get = %q", q, name, got, want)
			}
		}
	}
}

// coverBackend serves one hand-built cover for every pollutant and time —
// its queries, models and rasters (over a 2 km square) — and leaves the
// engine underneath everything else.
type coverBackend struct {
	*Engine
	cv *core.Cover
}

func (b coverBackend) Query(_ context.Context, req query.Request) (float64, error) {
	return b.cv.Interpolate(req.T, req.X, req.Y)
}

func (b coverBackend) CoverAt(context.Context, tuple.Pollutant, float64) (*core.Cover, error) {
	return b.cv, nil
}

func (b coverBackend) Model(context.Context, tuple.Pollutant, float64) (wire.ModelResponse, error) {
	return wire.ModelResponseFromCover(b.cv)
}

func (b coverBackend) Heatmap(ctx context.Context, p tuple.Pollutant, t float64, cols, rows int) (*heatmap.Grid, error) {
	g, _, err := b.HeatmapCoverInto(ctx, new(heatmap.Grid), p, t, cols, rows)
	return g, err
}

func (b coverBackend) HeatmapCoverInto(_ context.Context, g *heatmap.Grid, _ tuple.Pollutant, t float64, cols, rows int) (*heatmap.Grid, *core.Cover, error) {
	if err := heatmap.Render(g, b.cv, geo.Rect{Max: geo.Point{X: 2000, Y: 2000}}, cols, rows, t); err != nil {
		return nil, nil, err
	}
	return g, b.cv, nil
}

// constantCover is a hand-built cover of pollutant p: one constant-model
// region per value, its centroids spread along the diagonal of a 2 km
// square.
func constantCover(p tuple.Pollutant, values ...float64) *core.Cover {
	cv := &core.Cover{Pollutant: p, ValidUntil: 600, Features: regress.Constant, Coefs: values}
	for j := range values {
		d := 2000 * (float64(j) + 0.5) / float64(len(values))
		cv.Centroids = append(cv.Centroids, geo.Point{X: d, Y: d})
	}
	return cv
}

func get(api http.Handler, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec
}

// TestHeatmapUsesPollutantBands: a PM heatmap's markers and PNG pixels
// are banded on PM's scale, where 300 µg/m³ is "poor" — not on CO2's,
// where 300 would read "fresh".
func TestHeatmapUsesPollutantBands(t *testing.T) {
	e := newTestEngine(t)
	api := newAPI(coverBackend{Engine: e, cv: constantCover(tuple.PM, 300)}, e, nil)
	poor := eval.ClassifyPollutant(tuple.PM, 300)
	if poor.String() != "poor" {
		t.Fatalf("PM 300 classifies %q, want poor", poor)
	}

	rec := get(api, "/v1/heatmap?t=100&cols=4&rows=4&pollutant=PM")
	var body heatmapResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("/v1/heatmap: %d %s (%v)", rec.Code, rec.Body, err)
	}
	if len(body.Markers) != 1 || body.Markers[0].Band != "poor" {
		t.Errorf("PM markers %+v, want one marker banded poor", body.Markers)
	}

	rec = get(api, "/v1/heatmap.png?t=100&cols=4&rows=4&pollutant=PM")
	img, err := png.Decode(rec.Body)
	if rec.Code != http.StatusOK || err != nil {
		t.Fatalf("/v1/heatmap.png: %d (%v)", rec.Code, err)
	}
	wr, wg, wb := poor.Color()
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			r, g, b, _ := img.At(x, y).RGBA()
			if uint8(r>>8) != wr || uint8(g>>8) != wg || uint8(b>>8) != wb {
				t.Fatalf("pixel (%d,%d) = #%02x%02x%02x, want PM's poor #%02x%02x%02x",
					x, y, r>>8, g>>8, b>>8, wr, wg, wb)
			}
		}
	}
}

// TestNonFiniteAnswersAre500: a cover with a NaN coefficient cannot be
// written as JSON. /v1/models, /v1/heatmap and a point query on it answer
// 500 with a JSON error naming the value, never 200 with an empty body.
func TestNonFiniteAnswersAre500(t *testing.T) {
	e := newTestEngine(t)
	cv := constantCover(tuple.CO2, 400, math.NaN())
	api := newAPI(coverBackend{Engine: e, cv: cv}, e, nil)
	for _, target := range []string{
		"/v1/models?t=100",
		"/v1/heatmap?t=100&cols=4&rows=4",
		"/v1/query?t=100&x=1900&y=1900",
	} {
		rec := get(api, target)
		var body struct{ Error string }
		err := json.Unmarshal(rec.Body.Bytes(), &body)
		if rec.Code != http.StatusInternalServerError || err != nil || body.Error != "json: unsupported value: NaN" ||
			rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s: %d %q (%s), want 500 with a JSON error naming NaN", target, rec.Code, rec.Body, rec.Header().Get("Content-Type"))
		}
	}
	// The finite region still answers.
	if rec := get(api, "/v1/query?t=100&x=100&y=100"); rec.Code != http.StatusOK {
		t.Errorf("finite point: %d %s", rec.Code, rec.Body)
	}
}

// TestHTTPModelsAllocs: /v1/models answers a benchmark-sized cover from
// the cover's own columns into a pooled buffer — no copy of its centroids
// or coefficients, no url.Values.
func TestHTTPModelsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	e, cv := fleetEngine(t)
	api := NewAPI(e)
	p := newReplay(http.MethodGet, fmt.Sprintf("/v1/models?pollutant=CO2&t=%v", fleetT), nil)
	w := newSinkWriter()
	if p.serve(api, w); w.status != http.StatusOK {
		t.Fatalf("/v1/models: %d %s", w.status, w.body.String())
	}
	resp, err := wire.ModelResponseFromCover(cv)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := encodeJSON(resp); !bytes.Equal(w.body.Bytes(), want) {
		t.Fatalf("/v1/models body differs from encoding/json's for the cover")
	}
	b := bytesPerOp(func() { p.serve(api, w) })
	t.Logf("%d-region /v1/models = %d B/op (%d-byte body)", cv.Size(), b, w.body.Len())
	if b > 256 {
		t.Errorf("%d-region /v1/models = %d B/op, want ≤ 256", cv.Size(), b)
	}
}

// ackBackend acknowledges every upload without applying it, so what an
// upload costs is the handler's own.
type ackBackend struct{ *Engine }

func (ackBackend) TryIngest(context.Context, tuple.Pollutant, tuple.Batch) error { return nil }

// uploadBody is the JSON body of upload m, as a gateway writes it.
func uploadBody(tb testing.TB, m wire.IngestRequest) []byte {
	tb.Helper()
	b, err := json.Marshal(map[string]any{"tuples": m.Tuples})
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestHTTPIngestAllocs: a 256-tuple upload decodes into lent tuples that
// go back once it is acknowledged, and the acknowledgement is appended
// into a pooled buffer — the handler allocates nothing in proportion to
// the upload.
func TestHTTPIngestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	e, _ := fleetEngine(t)
	api := newAPI(ackBackend{e}, e, nil)
	p := newReplay(http.MethodPost, "/v1/ingest?pollutant=CO2", uploadBody(t, upload256(0)))
	w := newSinkWriter()
	if p.serve(api, w); w.status != http.StatusOK || w.body.String() != "{\"ingested\":256}\n" {
		t.Fatalf("/v1/ingest: %d %s", w.status, w.body.String())
	}
	b := bytesPerOp(func() { p.serve(api, w) })
	t.Logf("256-tuple /v1/ingest = %d B/op (%d-byte body)", b, len(p.body))
	if b > 1<<10 {
		t.Errorf("256-tuple /v1/ingest = %d B/op, want ≤ 1 KiB (the tuples alone are 8 KiB)", b)
	}
}

// TestHTTPUploadDecodesEveryTuple: an upload decoded into lent memory
// reads as it would decoded fresh — omitted fields zero, whatever the
// lend held before — also when null elements or a brace inside the
// pollutant string make the body's brace count miss the tuple count.
func TestHTTPUploadDecodesEveryTuple(t *testing.T) {
	// One P, so the soiled lend below is the one the first upload takes.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	st := store.MustOpenMemory(600)
	e := NewEngine(st, core.Config{Cluster: kmeans.Config{Seed: 7}})
	defer e.Close()
	api := NewAPI(e)
	soil := wire.LendTuples(4)
	for i := range soil {
		soil[i] = tuple.Raw{T: 599, X: 9, Y: 9, S: 9}
	}
	wire.ReturnTuples(soil)
	bodies := []string{
		`{"tuples":[{"T":1,"X":2,"Y":3,"S":400},{"T":2,"S":401},{"T":3,"X":5},{"T":4}]}`,
		`{"tuples":[null,{"T":5,"X":1,"Y":1,"S":402},null,null,null,{"T":6}]}`,
		`{"pollutant":"CO2","tuples":[{"T":7,"X":1,"Y":1,"S":403}],"extra":{"a":{"b":1}}}`,
	}
	var want tuple.Batch
	for _, body := range bodies {
		var fresh ingestRequest
		if err := json.Unmarshal([]byte(body), &fresh); err != nil {
			t.Fatal(err)
		}
		want = append(want, fresh.Tuples...)
		if rec := post(api, "/v1/ingest", body); rec.Code != http.StatusOK ||
			rec.Body.String() != fmt.Sprintf("{\"ingested\":%d}\n", len(fresh.Tuples)) {
			t.Fatalf("%s: %d %s", body, rec.Code, rec.Body)
		}
	}
	got := st.Window(0)
	sortTuples(got)
	sortTuples(want)
	if diff := sameTuples(got, want); diff != "" {
		t.Error(diff)
	}
}

// TestHTTPAbandonedUploadKeepsItsMemory is TestAbandonedUploadKeepsItsMemory
// over HTTP: an upload whose request is cancelled while the ingest queue
// holds it is answered with an error, but the queue still applies it
// later, from the tuples the handler decoded. Those are not given back to
// the pool — the next lend of their size does not return them — and once
// the queue moves on the store holds the upload bit for bit. An
// acknowledged upload's tuples, by contrast, do go back.
func TestHTTPAbandonedUploadKeepsItsMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	// One P: a slice given back to a pool is the next one lent, whichever
	// goroutine gave it back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	st := store.MustOpenMemory(600)
	e := NewEngine(st, core.Config{Cluster: kmeans.Config{Seed: 7}})
	defer e.Close()
	var holding atomic.Bool
	entered, hold := make(chan struct{}, 1), make(chan struct{})
	e.ingestTestGate = func(tuple.Pollutant) {
		if holding.Load() {
			entered <- struct{}{}
			<-hold
		}
	}
	api := NewAPI(e)
	upload := func(t0 float64) wire.IngestRequest {
		m := upload256(0)
		for j := range m.Tuples {
			m.Tuples[j].T = t0 + float64(j)
		}
		return m
	}
	// lendNext puts a 256-tuple slice on top of the pool, for the handler's
	// lend to take, and returns its first element.
	lendNext := func() *tuple.Raw {
		s := wire.LendTuples(256)
		wire.ReturnTuples(s)
		return &s[0]
	}

	acked := upload(0) // window 0
	lent := lendNext()
	if rec := post(api, "/v1/ingest", string(uploadBody(t, acked))); rec.Code != http.StatusOK {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body)
	}
	if &wire.LendTuples(256)[0] != lent {
		t.Fatal("an acknowledged upload's tuples did not go back to the pool")
	}

	abandoned := upload(600) // window 1
	lent = lendNext()
	holding.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(string(uploadBody(t, abandoned))))
		api.ServeHTTP(rec, req.WithContext(ctx))
		done <- rec
	}()
	<-entered // the queue holds the upload
	cancel()
	if rec := <-done; rec.Code == http.StatusOK {
		t.Error("the abandoned upload was acknowledged")
	}
	next := wire.LendTuples(256)
	if &next[0] == lent {
		t.Error("an upload still in the ingest queue went back to the pool")
	}
	for j := range next {
		next[j] = tuple.Raw{T: 599, X: 1, Y: 1, S: 1} // what the next borrower writes
	}
	close(hold)
	if err := e.Close(); err != nil { // drains the queue
		t.Fatal(err)
	}
	for w, want := range []wire.IngestRequest{acked, abandoned} {
		if diff := sameTuples(st.Window(w), want.Tuples); diff != "" {
			t.Errorf("window %d: %s", w, diff)
		}
	}
}
