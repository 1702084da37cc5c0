package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/heatmap"
	"repro/internal/ingest"
	"repro/internal/proto"
	"repro/internal/query"
	"repro/internal/route"
	"repro/internal/store"
	"repro/internal/subs"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// Backend answers every served data request: the Engine on a single
// node, the cluster.Node when clustered — which alone maps a request to
// the shard that answers it. The facade, NewAPI and NewClusterAPI each
// choose one, once. Both serve the wire protocol too, and report a
// failure as the same sentinel either way (see cluster.ErrorFromWire).
type Backend interface {
	proto.Handler
	Query(ctx context.Context, req query.Request) (float64, error)
	QueryBatch(ctx context.Context, reqs []query.Request) ([]query.BatchResult, error)
	QueryBatchInto(ctx context.Context, reqs []query.Request, out []query.BatchResult) error
	Ingest(ctx context.Context, pol tuple.Pollutant, b tuple.Batch) error
	TryIngest(ctx context.Context, pol tuple.Pollutant, b tuple.Batch) error
	Heatmap(ctx context.Context, pol tuple.Pollutant, t float64, cols, rows int) (*heatmap.Grid, error)
	HeatmapCoverInto(ctx context.Context, g *heatmap.Grid, pol tuple.Pollutant, t float64, cols, rows int) (*heatmap.Grid, *core.Cover, error)
	Model(ctx context.Context, pol tuple.Pollutant, t float64) (wire.ModelResponse, error)
	CoverAt(ctx context.Context, pol tuple.Pollutant, t float64) (*core.Cover, error)
	Subscribe(ctx context.Context, pol tuple.Pollutant, pts []query.Request) (*subs.Feed, error)
}

// API wraps an Engine with the versioned HTTP/JSON interface of the
// EnviroMeter web application (§3). The v1 surface is pollutant-aware:
// every query endpoint takes an optional ?pollutant= parameter (default:
// the engine's default pollutant) and the canonical entry point is
// GET /v1/query. Request contexts are plumbed into the engine, so a
// client that disconnects cancels its query.
//
// The handlers only parse and render: every data request executes on the
// backend — the same one, with the same refusals, the facade calls.
type API struct {
	backend Backend
	engine  *Engine       // this node's engine: pollutants and /v1/stats
	node    *cluster.Node // nil on a single node
	mux     *http.ServeMux
	sse     *subBroker // resume tokens for /v1/subscribe
}

// NewAPI builds the HTTP API around a single-node engine.
func NewAPI(engine *Engine) *API { return newAPI(engine, engine, nil) }

func newAPI(backend Backend, engine *Engine, node *cluster.Node) *API {
	a := &API{backend: backend, engine: engine, node: node, mux: http.NewServeMux(), sse: newSubBroker(sseResumeTTL)}
	// The method is part of the route: the mux answers anything else 405.
	a.mux.HandleFunc("GET /v1/query", a.handlePointQuery)
	a.mux.HandleFunc("POST /v1/query/batch", a.handleBatch)
	a.mux.HandleFunc("POST /v1/query/continuous", a.handleContinuous)
	a.mux.HandleFunc("GET /v1/subscribe", a.handleSubscribe)
	a.mux.HandleFunc("GET /v1/models", a.handleModels)
	a.mux.HandleFunc("GET /v1/heatmap", a.handleHeatmap)
	a.mux.HandleFunc("GET /v1/heatmap.png", a.handleHeatmapPNG)
	a.mux.HandleFunc("POST /v1/route/summary", a.handleRouteSummary)
	a.mux.HandleFunc("POST /v1/ingest", a.handleIngest)
	a.mux.HandleFunc("GET /v1/stats", a.handleStats)
	a.mux.HandleFunc("GET /v1/pollutants", a.handlePollutants)
	return a
}

// ServeHTTP implements http.Handler.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	a.mux.ServeHTTP(w, r)
}

// writeJSON answers status with v as json.NewEncoder(w).Encode writes it,
// rendered before anything is sent: a value encoding/json refuses (NaN,
// ±Inf) is a 500 naming it, not a 200 with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	o := getJSONBuf()
	defer putJSONBuf(o)
	o.fail(json.NewEncoder(o).Encode(v))
	o.send(w, status)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// Request-path bounds and buffer retention.
const (
	// maxBodyBytes bounds a JSON request body; a longer one is answered
	// 413. The largest legitimate body is a wire.MaxBatchItems batch,
	// ≈ 4.5 MB of JSON.
	maxBodyBytes = 8 << 20
	// maxHeatmapCells bounds an HTTP raster (cols × rows); a larger one is
	// answered 400 before anything is rendered. 1 Mi cells is an 8 MiB
	// raster and ≈ 20 MB of JSON.
	maxHeatmapCells = 1 << 20
	// keepItems is the most points a pooled continuous request state holds
	// between requests. Pooled body buffers and lent rasters keep at most
	// wire.KeepBytes: one large request does not stay pinned to a pool.
	keepItems = 1 << 10
	// keepTuples is the largest lend an upload's tuples take: the most
	// tuples (32 bytes each) the wire pool keeps.
	keepTuples = wire.KeepBytes / 32
)

// bodies lends decodeBody its read buffer, as colblock's scratches lends
// scratch to concurrent reads.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeBody decodes r's JSON body into v through a pooled buffer. When
// it cannot, it answers the request itself and returns false: 413 for a
// body over maxBodyBytes, 400 for one json.Unmarshal rejects — bytes
// after the value included. Before decoding it calls prepare, when not
// nil, with the body's bytes.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, prepare func(body []byte)) bool {
	buf := bodies.Get().(*bytes.Buffer)
	defer putBody(buf)
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		if prepare != nil {
			prepare(buf.Bytes())
		}
		err = json.Unmarshal(buf.Bytes(), v)
	}
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("body over %d bytes", maxBodyBytes))
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode body: %v", err))
	}
	return false
}

func putBody(buf *bytes.Buffer) {
	if buf.Cap() > wire.KeepBytes {
		return
	}
	buf.Reset()
	bodies.Put(buf)
}

// routeState is the memory a continuous request reuses: its decoded
// body, the engine requests built from it and their results. It goes back
// to routeStates only after the response has been written.
type routeState struct {
	req  continuousRequest
	reqs []query.Request
	res  []query.BatchResult
}

var routeStates = sync.Pool{New: func() any { return new(routeState) }}

// getRouteState takes a state from the pool with its request body's
// points zeroed to full capacity: encoding/json decodes into a reused
// slice's old elements without zeroing them, so without this a point
// that omits "t" would keep the previous request's.
func getRouteState() *routeState {
	st := routeStates.Get().(*routeState)
	pts := st.req.Points[:cap(st.req.Points)]
	clear(pts)
	st.req.Points = pts[:0]
	return st
}

func putRouteState(st *routeState) {
	if max(cap(st.req.Points), cap(st.reqs), cap(st.res)) > keepItems {
		return
	}
	clear(st.res) // drop the errors the results refer to
	routeStates.Put(st)
}

// asPartial recovers a partial-result marker (replicated cluster, dead
// owner, no live replica) from an error chain. A partial answer is
// still usable: the caller answers 200 with the partial scope marked
// instead of failing the whole request.
func asPartial(err error) (*cluster.PartialError, bool) {
	if err == nil {
		return nil, false
	}
	// Declared past the nil check: errors.As moves its target to the
	// heap, which a successful request then does not pay for.
	var pe *cluster.PartialError
	if errors.As(err, &pe) {
		return pe, true
	}
	return nil, false
}

// partialHeaders marks a 200 response as partial: which nodes are dead
// and how many of the pollutant's shards their absence leaves stale.
func partialHeaders(w http.ResponseWriter, pe *cluster.PartialError) {
	dead := make([]string, len(pe.Dead))
	for i, n := range pe.Dead {
		dead[i] = strconv.Itoa(n)
	}
	w.Header().Set("X-Envirometer-Partial-Dead", strings.Join(dead, ","))
	w.Header().Set("X-Envirometer-Stale-Shards", strconv.Itoa(pe.StaleShards))
}

// errorStatus maps the error taxonomy onto HTTP statuses, for every
// endpoint; the first sentinel found in an error's chain wins. The
// partial-ingest row leads because its chain may also hold the retryable
// failures of the slices that did not apply. An error matching no row —
// a sink failure surfacing through an ingest ack (disk full, fsync
// error), an internal inconsistency — is the server's fault: 500.
var errorStatus = []struct {
	err    error
	status int
}{
	{cluster.ErrPartialIngest, http.StatusInternalServerError},
	{query.ErrUnknownPollutant, http.StatusBadRequest},
	{ingest.ErrInvalidBatch, http.StatusBadRequest},
	{cluster.ErrTooLarge, http.StatusBadRequest},
	{subs.ErrTooManyPoints, http.StatusBadRequest},
	{query.ErrOutOfWindow, http.StatusNotFound},
	{query.ErrNoCover, http.StatusNotFound},
	// Shed load, safe to retry (writeEngineError adds Retry-After).
	{ingest.ErrSaturated, http.StatusTooManyRequests},
	// A shard's owner is down: the request was fine, the cluster is
	// degraded. 502 so clients and balancers can tell the two apart.
	{cluster.ErrNodeUnreachable, http.StatusBadGateway},
	// Shutting down, or mid membership transition: retry shortly.
	{ingest.ErrPipelineClosed, http.StatusServiceUnavailable},
	{cluster.ErrStaleEpoch, http.StatusServiceUnavailable},
	// Every subscription slot is taken: retry once one closes.
	{subs.ErrTooManySubs, http.StatusServiceUnavailable},
	{context.Canceled, http.StatusServiceUnavailable},
	{context.DeadlineExceeded, http.StatusGatewayTimeout},
}

// statusOf resolves an error's HTTP status from errorStatus.
func statusOf(err error) int {
	for _, row := range errorStatus {
		if errors.Is(err, row.err) {
			return row.status
		}
	}
	return http.StatusInternalServerError
}

// writeEngineError answers a failed data request with its errorStatus.
func writeEngineError(w http.ResponseWriter, err error) {
	status := statusOf(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeError(w, status, err)
}

// queryParam returns the first value of parameter name in the raw query
// string q, as url.ParseQuery(q).Get(name) does, without building the
// url.Values: pairs split on '&', a pair holding ';' or failing to unescape
// is skipped, and a key or value is copied, unescaped, only when it holds
// '%' or '+' (url.QueryUnescape returns any other string itself).
func queryParam(q, name string) string {
	for q != "" {
		var pair string
		pair, q, _ = strings.Cut(q, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != name {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// queryFloat reads a required finite number from the raw query string q.
func queryFloat(q, name string) (float64, error) {
	s := queryParam(q, name)
	if s == "" {
		return 0, fmt.Errorf("missing query parameter %q", name)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %v", name, err)
	}
	// ParseFloat accepts "NaN" and "Inf"; reject them here so a malformed
	// coordinate is a 400, not a confusing downstream 404.
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("parameter %q: want a finite number", name)
	}
	return v, nil
}

func queryInt(q, name string, def int) (int, error) {
	s := queryParam(q, name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %v", name, err)
	}
	return v, nil
}

// queryPollutant resolves the optional ?pollutant= parameter, defaulting
// to the engine's default pollutant.
func (a *API) queryPollutant(q string) (tuple.Pollutant, error) {
	s := queryParam(q, "pollutant")
	if s == "" {
		return a.engine.Default(), nil
	}
	p, err := tuple.ParsePollutant(s)
	if err != nil {
		return 0, fmt.Errorf("%w: %q", query.ErrUnknownPollutant, s)
	}
	return p, nil
}

// pointResponse is the single point query answer shown by the web UI: the
// interpolated value plus the pollutant, its unit, and the band/advice.
type pointResponse struct {
	Value     float64 `json:"value"`
	Pollutant string  `json:"pollutant"`
	Unit      string  `json:"unit"`
	Band      string  `json:"band"`
	Advice    string  `json:"advice"`
}

func pointResponseFor(p tuple.Pollutant, v float64) pointResponse {
	band := ClassifyFor(p, v)
	return pointResponse{
		Value:     v,
		Pollutant: p.String(),
		Unit:      p.Unit(),
		Band:      band.String(),
		Advice:    band.Advice(),
	}
}

// handlePointQuery serves GET /v1/query?t=&x=&y=&pollutant= — the single
// point query mode.
func (a *API) handlePointQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.RawQuery
	var t, x, y float64
	var err error
	if t, err = queryFloat(q, "t"); err == nil {
		if x, err = queryFloat(q, "x"); err == nil {
			y, err = queryFloat(q, "y")
		}
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	pol, err := a.queryPollutant(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	v, err := a.backend.Query(r.Context(), query.Request{T: t, X: x, Y: y, Pollutant: pol})
	if err != nil {
		writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, pointResponseFor(pol, v))
}

// batchRequest is a POST /v1/query/batch body: heterogeneous requests,
// each naming its own pollutant ("CO2", "CO", "PM"; empty = default).
type batchRequest struct {
	Requests []struct {
		T         float64 `json:"t"`
		X         float64 `json:"x"`
		Y         float64 `json:"y"`
		Pollutant string  `json:"pollutant"`
	} `json:"requests"`
}

// batchItemResponse is one request's answer within a batch: a point
// response, or that request's error with the other fields zeroed.
type batchItemResponse struct {
	pointResponse
	Error string `json:"error,omitempty"`
}

// batchResponse carries one answer per request, in order, plus the count
// of requests that failed.
type batchResponse struct {
	Values []batchItemResponse `json:"values"`
	Errors int                 `json:"errors"`
}

// handleBatch serves POST /v1/query/batch?pollutant= — the batch entry
// point of the v1 API. Each item succeeds or fails on its own: a request
// outside the retained windows reports an "error" in its slot without
// rejecting the batch. A ?concurrency= parameter is ignored.
func (a *API) handleBatch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.RawQuery
	var br batchRequest
	if !decodeBody(w, r, &br, nil) {
		return
	}
	if len(br.Requests) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty batch"))
		return
	}
	// Untagged requests inherit the route pollutant (?pollutant=, falling
	// back to the engine default).
	routePol, err := a.queryPollutant(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	reqs := make([]query.Request, len(br.Requests))
	for i, in := range br.Requests {
		pol := routePol
		if in.Pollutant != "" {
			var err error
			if pol, err = tuple.ParsePollutant(in.Pollutant); err != nil {
				writeError(w, http.StatusBadRequest,
					fmt.Errorf("request %d: %w: %q", i, query.ErrUnknownPollutant, in.Pollutant))
				return
			}
		}
		reqs[i] = query.Request{T: in.T, X: in.X, Y: in.Y, Pollutant: pol}
	}
	rs, err := a.backend.QueryBatch(r.Context(), reqs)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	resp := batchResponse{Values: make([]batchItemResponse, len(rs))}
	for i, res := range rs {
		if res.Err != nil {
			resp.Values[i] = batchItemResponse{Error: res.Err.Error()}
			resp.Errors++
			continue
		}
		resp.Values[i] = batchItemResponse{pointResponse: pointResponseFor(reqs[i].Pollutant, res.Value)}
	}
	writeJSON(w, http.StatusOK, resp)
}

// continuousRequest is the recorded route: the sequence of query tuples.
// A continuous query names one pollutant for the whole route (the
// ?pollutant= parameter); the points deliberately have no per-point
// pollutant field — mixed-pollutant workloads use /v1/query/batch.
type continuousRequest struct {
	Points []struct {
		T float64 `json:"t"`
		X float64 `json:"x"`
		Y float64 `json:"y"`
	} `json:"points"`
}

// handleContinuous serves POST /v1/query/continuous?pollutant= — the
// "continuous query mode" where users select the points of a route and
// the app shows per-point values and the route average (§3); the answer
// is jsonBuf.continuous.
func (a *API) handleContinuous(w http.ResponseWriter, r *http.Request) {
	pol, err := a.queryPollutant(r.URL.RawQuery)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st := getRouteState()
	defer putRouteState(st)
	req := &st.req
	if !decodeBody(w, r, req, nil) {
		return
	}
	if len(req.Points) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty route"))
		return
	}
	// One batch instead of a per-point loop: on a clustered node this
	// costs one forwarded sub-batch per owner, not one hop per point.
	st.reqs = slices.Grow(st.reqs[:0], len(req.Points))[:len(req.Points)]
	reqs := st.reqs
	for i, p := range req.Points {
		reqs[i] = query.Request{T: p.T, X: p.X, Y: p.Y, Pollutant: pol}
	}
	// Single-node routes carry an ETag over the route's cover
	// generations: a repeated poll whose covers were not invalidated
	// since answers 304 with no evaluation at all. The tag is computed
	// before evaluating, so a concurrent invalidation can only cost an
	// extra 200 — never a stale 304. A routed batch would need the
	// foreign shards' generations, so a cluster node tags nothing.
	var etag string
	if eng, single := a.backend.(*Engine); single {
		etag = eng.continuousETag(pol, reqs)
	}
	if etag != "" && r.Header.Get("If-None-Match") == etag {
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	st.res = slices.Grow(st.res[:0], len(reqs))[:len(reqs)]
	if err := a.backend.QueryBatchInto(r.Context(), reqs, st.res); err != nil {
		writeEngineError(w, err)
		return
	}
	for i, res := range st.res {
		if res.Err != nil {
			// The continuous mode is all-or-nothing (unlike /v1/query/batch):
			// the first failing point rejects the route, as before.
			writeEngineError(w, fmt.Errorf("point (%v,%v): %w", reqs[i].X, reqs[i].Y, res.Err))
			return
		}
	}
	o := getJSONBuf()
	defer putJSONBuf(o)
	if o.continuous(pol, st.res); o.err == nil && etag != "" {
		w.Header().Set("ETag", etag)
	}
	o.send(w, http.StatusOK)
}

// handleModels serves GET /v1/models?t=&pollutant= — the model request
// e_l of the model-cache protocol, returning (t_n, µ, M) as JSON
// (jsonBuf.model), straight from the cover; a cluster's is merged across
// shards (cluster.Node.CoverAt).
func (a *API) handleModels(w http.ResponseWriter, r *http.Request) {
	q := r.URL.RawQuery
	t, err := queryFloat(q, "t")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	pol, err := a.queryPollutant(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cv, err := a.backend.CoverAt(r.Context(), pol, t)
	pe, isPartial := asPartial(err)
	if err != nil && !isPartial {
		writeEngineError(w, err)
		return
	}
	o := getJSONBuf()
	defer putJSONBuf(o)
	if o.model(cv); o.err == nil && pe != nil {
		// Dead node without a live replica: the merged cover is still
		// valid over the surviving shards, so serve it marked partial
		// instead of the pre-replication all-or-nothing 502.
		partialHeaders(w, pe)
	}
	o.send(w, http.StatusOK)
}

// handleHeatmap serves GET /v1/heatmap?t=&cols=&rows=&pollutant= — the
// web UI's heatmap visualization data: the raster and the centroid
// markers (jsonBuf.heatmap), marked partial when a dead node's shards are
// missing from it.
func (a *API) handleHeatmap(w http.ResponseWriter, r *http.Request) {
	t, cols, rows, pol, err := a.heatmapParams(r.URL.RawQuery, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The raster is lent, and goes back once the response is written.
	g := &heatmap.Grid{Values: wire.LendRaster(cols * rows)}
	defer wire.ReturnRaster(g.Values)
	// Raster and centroid markers come from one call.
	grid, cv, err := a.backend.HeatmapCoverInto(r.Context(), g, pol, t, cols, rows)
	pe, isPartial := asPartial(err)
	if err != nil && !isPartial {
		writeEngineError(w, err)
		return
	}
	o := getJSONBuf()
	defer putJSONBuf(o)
	if o.heatmap(grid, cv, t, pe); o.err == nil && pe != nil {
		partialHeaders(w, pe)
	}
	o.send(w, http.StatusOK)
}

// handleHeatmapPNG serves GET /v1/heatmap.png?t=&cols=&rows=&pollutant= —
// the rendered image.
func (a *API) handleHeatmapPNG(w http.ResponseWriter, r *http.Request) {
	t, cols, rows, pol, err := a.heatmapParams(r.URL.RawQuery, 256)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	grid, err := a.backend.Heatmap(r.Context(), pol, t, cols, rows)
	if pe, ok := asPartial(err); ok {
		partialHeaders(w, pe)
	} else if err != nil {
		writeEngineError(w, err)
		return
	}
	w.Header().Set("Content-Type", "image/png")
	// Headers are already written; a mid-stream encode failure cannot be
	// reported to the client.
	_ = grid.WritePNG(w, pol)
}

// heatmapParams parses the shared heatmap parameter set.
func (a *API) heatmapParams(q string, defSize int) (t float64, cols, rows int, pol tuple.Pollutant, err error) {
	if t, err = queryFloat(q, "t"); err != nil {
		return
	}
	if cols, err = queryInt(q, "cols", defSize); err != nil {
		return
	}
	if rows, err = queryInt(q, "rows", defSize); err != nil {
		return
	}
	if cols < 1 || rows < 1 {
		// Rejected here so it is the caller's 400, not an untyped 500
		// from the rasterizer.
		err = fmt.Errorf("grid %dx%d: want at least 1x1", cols, rows)
		return
	}
	if cols > maxHeatmapCells/rows {
		err = fmt.Errorf("grid %dx%d: want at most %d cells", cols, rows, maxHeatmapCells)
		return
	}
	pol, err = a.queryPollutant(q)
	return
}

// routeSummaryRequest is a recorded route uploaded for review: the
// Android app's "view recorded route" flow, server side.
type routeSummaryRequest struct {
	Fixes []struct {
		T float64 `json:"t"`
		X float64 `json:"x"`
		Y float64 `json:"y"`
	} `json:"fixes"`
}

// routeSummaryResponse mirrors the app's recorded-route screen.
type routeSummaryResponse struct {
	Points []struct {
		T     float64 `json:"t"`
		X     float64 `json:"x"`
		Y     float64 `json:"y"`
		Value float64 `json:"value"`
		Band  string  `json:"band"`
	} `json:"points"`
	Average  float64 `json:"average"`
	Band     string  `json:"band"`
	Advice   string  `json:"advice"`
	Worst    int     `json:"worst"`
	LengthM  float64 `json:"lengthMeters"`
	Duration float64 `json:"durationSeconds"`
}

// handleRouteSummary serves POST /v1/route/summary?pollutant=.
func (a *API) handleRouteSummary(w http.ResponseWriter, r *http.Request) {
	pol, err := a.queryPollutant(r.URL.RawQuery)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var req routeSummaryRequest
	if !decodeBody(w, r, &req, nil) {
		return
	}
	rec := route.NewRecorder()
	for _, f := range req.Fixes {
		rec.Add(route.Fix{T: f.T, Pos: geo.Point{X: f.X, Y: f.Y}})
	}
	rt, err := rec.Finish()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Prefetch every fix's value in one batch (one hop per shard owner
	// when clustered); Summarize then consumes the results in fix order.
	fixes := rt.Fixes()
	reqs := make([]query.Request, len(fixes))
	for i, f := range fixes {
		reqs[i] = query.Request{T: f.T, X: f.Pos.X, Y: f.Pos.Y, Pollutant: pol}
	}
	rs, err := a.backend.QueryBatch(r.Context(), reqs)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	next := 0
	sum, err := route.Summarize(rt, pol, func(t, x, y float64) (float64, error) {
		res := rs[next]
		next++
		return res.Value, res.Err
	})
	if err != nil {
		writeEngineError(w, err)
		return
	}
	resp := routeSummaryResponse{
		Average:  sum.Average,
		Band:     sum.Band.String(),
		Advice:   sum.Advice,
		Worst:    sum.Worst,
		LengthM:  rt.Length(),
		Duration: rt.Duration(),
	}
	for _, pt := range sum.Points {
		resp.Points = append(resp.Points, struct {
			T     float64 `json:"t"`
			X     float64 `json:"x"`
			Y     float64 `json:"y"`
			Value float64 `json:"value"`
			Band  string  `json:"band"`
		}{pt.Fix.T, pt.Fix.Pos.X, pt.Fix.Pos.Y, pt.Value, pt.Band.String()})
	}
	writeJSON(w, http.StatusOK, resp)
}

// ingestRequest is a batch of raw tuples from the sensing pipeline.
type ingestRequest struct {
	Tuples    []tuple.Raw `json:"tuples"`
	Pollutant string      `json:"pollutant"`
}

// handleIngest serves POST /v1/ingest; the pollutant comes from the
// ?pollutant= parameter or the body's "pollutant" field.
func (a *API) handleIngest(w http.ResponseWriter, r *http.Request) {
	// The tuples decode into a lend (wire.LendTuples) sized by the body:
	// one tuple per '{' past the body's own, at most keepTuples. A body
	// whose null elements or size beat that count makes encoding/json grow
	// the slice off the lend. The lend is cleared first — its contents are
	// undefined, and encoding/json does not zero an element it reuses — so
	// a tuple that omits a field reads it 0, as a fresh decode does.
	var lent []tuple.Raw
	var req ingestRequest
	if !decodeBody(w, r, &req, func(body []byte) {
		lent = wire.LendTuples(min(bytes.Count(body, []byte{'{'})-1, keepTuples))
		clear(lent)
		req.Tuples = lent[:0]
	}) {
		wire.ReturnTuples(lent)
		return
	}
	q := r.URL.RawQuery
	pol, err := a.queryPollutant(q)
	if err == nil && queryParam(q, "pollutant") == "" && req.Pollutant != "" {
		if pol, err = tuple.ParsePollutant(req.Pollutant); err != nil {
			err = fmt.Errorf("%w: %q", query.ErrUnknownPollutant, req.Pollutant)
		}
	}
	if err != nil {
		wire.ReturnTuples(lent)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// No handler-side Validate: the pipeline runs the identical check on
	// submit and ErrInvalidBatch maps to a 400. TryIngest, not Ingest: an
	// overloaded server sheds uploads as 429s instead of holding
	// connections open against a full queue.
	if err := a.backend.TryIngest(r.Context(), pol, req.Tuples); err != nil {
		// Not acknowledged: an ingest queue may still hold the upload and
		// read it later, so the lend is never given back.
		writeEngineError(w, err)
		return
	}
	// Acknowledged: the store holds its own copy. When encoding/json grew
	// the tuples off the lend, nothing refers to the lend any more either.
	wire.ReturnTuples(lent)
	o := getJSONBuf()
	defer putJSONBuf(o)
	o.ingested(len(req.Tuples))
	o.send(w, http.StatusOK)
}

// pollutantStats summarizes one shard.
type pollutantStats struct {
	Tuples       int     `json:"tuples"`
	Windows      int     `json:"windows"`
	MaxTime      float64 `json:"maxTime"`
	CachedCovers int     `json:"cachedCovers"`
}

// statsResponse summarizes server state. The top-level fields describe
// the default pollutant (legacy shape); PerPollutant breaks all shards
// out, Ingest/Maintenance describe the write pipeline and the
// background cover scheduler, and Checkpoint the durability
// checkpoints and last recovery.
type statsResponse struct {
	Tuples       int                       `json:"tuples"`
	Windows      int                       `json:"windows"`
	WindowLength float64                   `json:"windowLength"`
	MaxTime      float64                   `json:"maxTime"`
	CachedCovers int                       `json:"cachedCovers"`
	Default      string                    `json:"defaultPollutant"`
	PerPollutant map[string]pollutantStats `json:"perPollutant"`
	Ingest       ingest.PipelineStats      `json:"ingest"`
	Maintenance  core.SchedulerStats       `json:"maintenance"`
	Checkpoint   CheckpointStats           `json:"checkpoint"`
	// Columnar carries the checkpoint file's counters: blocks written and
	// scanned, zone-map prunes, mmap vs pread reads, lazy windows and
	// failed materializations.
	Columnar store.ColumnarStats `json:"columnar"`
	// Cluster carries the routing counters when this server is a member
	// of a sharded cluster (see /v1/cluster for the full ring).
	Cluster *cluster.Stats `json:"cluster,omitempty"`
	// Subscriptions carries the push-subscription registry counters
	// (active subs, invalidation matches, re-evals avoided, push/drop
	// totals).
	Subscriptions subs.Stats `json:"subscriptions"`
}

// handleStats serves GET /v1/stats.
func (a *API) handleStats(w http.ResponseWriter, r *http.Request) {
	// The top-level fields describe the requested pollutant
	// (?pollutant=, default: the engine default).
	top, err := a.queryPollutant(r.URL.RawQuery)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if !a.engine.Serves(top) {
		writeEngineError(w, fmt.Errorf("%w: %v not monitored", query.ErrUnknownPollutant, top))
		return
	}
	var clusterSec *cluster.Stats
	if a.node != nil {
		st := a.node.Stats()
		clusterSec = &st
	}
	resp := statsResponse{
		Cluster:       clusterSec,
		Subscriptions: a.engine.Subscriptions().Stats(),
		Default:       a.engine.Default().String(),
		PerPollutant:  make(map[string]pollutantStats, len(a.engine.Pollutants())),
		Ingest:        a.engine.PipelineStats(),
		Maintenance:   a.engine.SchedulerStats(),
		Checkpoint:    a.engine.CheckpointStats(),
		Columnar:      a.engine.ColumnarStats(),
	}
	for _, pol := range a.engine.Pollutants() {
		st, _ := a.engine.StoreFor(pol)
		mnt, _ := a.engine.MaintainerFor(pol)
		ps := pollutantStats{
			Tuples:       st.Len(),
			Windows:      len(st.WindowIndexes()),
			MaxTime:      st.MaxTime(),
			CachedCovers: len(mnt.CachedWindows()),
		}
		resp.PerPollutant[pol.String()] = ps
		if pol == top {
			resp.Tuples = ps.Tuples
			resp.Windows = ps.Windows
			resp.WindowLength = st.WindowLength()
			resp.MaxTime = ps.MaxTime
			resp.CachedCovers = ps.CachedCovers
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handlePollutants serves GET /v1/pollutants — pollutant discovery for
// clients that render a selector.
func (a *API) handlePollutants(w http.ResponseWriter, r *http.Request) {
	names := make([]string, 0, len(a.engine.Pollutants()))
	for _, p := range a.engine.Pollutants() {
		names = append(names, p.String())
	}
	writeJSON(w, http.StatusOK, map[string][]string{"pollutants": names})
}
