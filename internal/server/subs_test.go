package server

// The ISSUE 6 acceptance tests: a 20-point route subscription receives
// a delta containing only the points whose covers an ingest
// invalidated, with zero server-side re-evaluation for non-overlapping
// ingests (asserted via registry stats); the SSE endpoint streams
// pushes and resumes via Last-Event-ID; and /v1/query/continuous
// answers 304 via the served-cover-generation ETag until a rebuilt cover
// is installed.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/subs"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// routePoints builds the 20-point commuter route: 10 points in window 0
// (t=300) and 10 in window 1 (t=900) of the 600-second test store.
func routePoints() []query.Request {
	pts := make([]query.Request, 20)
	for i := range pts {
		tm := 300.0
		if i >= 10 {
			tm = 900.0
		}
		pts[i] = query.Request{T: tm, X: 100 + 90*float64(i), Y: 200 + 80*float64(i)}
	}
	return pts
}

// ingestWindow pushes a batch of fresh tuples into window c with a
// value field shifted far from the seeded one, so re-fit models move.
func ingestWindow(t *testing.T, e *Engine, c int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var b tuple.Batch
	for i := 0; i < 200; i++ {
		x, y := rng.Float64()*2000, rng.Float64()*2000
		b = append(b, tuple.Raw{
			T: float64(c)*600 + rng.Float64()*600,
			X: x, Y: y,
			S: 1000 + 0.3*x - 0.1*y,
		})
	}
	if err := e.Ingest(context.Background(), tuple.CO2, b); err != nil {
		t.Fatal(err)
	}
}

func recvPush(t *testing.T, h *subs.Feed) subs.Event {
	t.Helper()
	select {
	case ev, ok := <-h.Events():
		if !ok {
			t.Fatal("event channel closed unexpectedly")
		}
		return ev
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a push")
	}
	return subs.Event{}
}

// waitStats polls the registry stats until cond holds (invalidations
// arrive from the asynchronous ingest pipeline).
func waitStats(t *testing.T, e *Engine, cond func(subs.Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if cond(e.Subscriptions().Stats()) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats condition not reached; stats = %+v", e.Subscriptions().Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitDetached blocks until a's SSE broker holds no attached consumer.
// A closed client connection reaches the server's handler only when the
// server reads EOF from it; a resume sent before then finds its
// subscription still attached and is refused with a 409.
func waitDetached(t *testing.T, a *API) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		a.sse.mu.Lock()
		attached := 0
		for _, e := range a.sse.entries {
			if e.attached {
				attached++
			}
		}
		a.sse.mu.Unlock()
		if attached == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d SSE consumers still attached after their connections closed", attached)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// wantRebuiltValues checks a push against the engine's quiesced answers:
// a push follows the install of a rebuilt cover, so once maintenance is
// idle every pushed point carries exactly what a query now returns — the
// rebuilt value, not the one the previous cover gave.
func wantRebuiltValues(t *testing.T, e *Engine, pts []query.Request, ev subs.Event) {
	t.Helper()
	e.Scheduler().Wait()
	for i := range pts {
		pts[i].Pollutant = tuple.CO2
	}
	now, err := e.QueryBatch(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ev.Points {
		if now[p.Index].Err != nil || p.Value != now[p.Index].Value {
			t.Fatalf("pushed point %d = %v, quiesced engine answers %v (err %v): push preceded the install",
				p.Index, p.Value, now[p.Index].Value, now[p.Index].Err)
		}
	}
}

// TestSubscriptionPushesExactDeltas is the acceptance test.
func TestSubscriptionPushesExactDeltas(t *testing.T) {
	e := newTestEngine(t)
	defer e.Close()
	ctx := context.Background()

	h, err := e.Subscribe(ctx, tuple.CO2, routePoints())
	if err != nil {
		t.Fatal(err)
	}
	first := recvPush(t, h)
	if !first.Resync || first.Seq != 1 || len(first.Points) != 20 {
		t.Fatalf("initial event = seq %d resync=%v with %d points, want seq-1 resync with 20",
			first.Seq, first.Resync, len(first.Points))
	}
	for _, p := range first.Points {
		if p.Err != "" {
			t.Fatalf("initial point %d failed: %s", p.Index, p.Err)
		}
	}

	// Ingest into window 1 only: the delta must name only the 10 points
	// bound to window 1 (indexes 10..19), re-evaluated incrementally.
	ingestWindow(t, e, 1, 77)
	delta := recvPush(t, h)
	if delta.Resync {
		t.Fatalf("got a resync, want a delta: %+v", delta)
	}
	if len(delta.Points) == 0 {
		t.Fatal("empty delta")
	}
	// On the wire the delta is smaller than the full 20-point vector a
	// poll would have fetched.
	pushBytes := func(ev subs.Event) int {
		b, err := wire.Binary.Encode(subs.PushFromEvent(h.ID(), ev))
		if err != nil {
			t.Fatal(err)
		}
		return len(b)
	}
	if got, full := pushBytes(delta), pushBytes(first); got >= full {
		t.Errorf("delta push is %d bytes, not below the full vector's %d", got, full)
	}
	for _, p := range delta.Points {
		if p.Index < 10 || p.Index >= 20 {
			t.Fatalf("delta touched point %d, outside the invalidated window-1 set [10,20)", p.Index)
		}
	}
	st := e.Subscriptions().Stats()
	if st.ReEvals != 1 || st.PointReEvals != 10 {
		t.Fatalf("stats after overlap = %+v, want exactly 1 re-eval of the 10 window-1 points", st)
	}
	// The push was triggered by the rebuilt cover's install, not by the
	// write that dirtied the window: it carries the rebuilt values.
	for _, p := range delta.Points {
		if p.Value == first.Points[p.Index].Value {
			t.Fatalf("delta point %d repeats the pre-ingest value %v", p.Index, p.Value)
		}
	}
	wantRebuiltValues(t, e, routePoints(), delta)

	// Ingest into window 3 — no subscribed point lives there: the
	// registry must not re-evaluate anything.
	ingestWindow(t, e, 3, 78)
	waitStats(t, e, func(s subs.Stats) bool { return s.Invalidations > st.Invalidations })
	e.Subscriptions().Wait()
	after := e.Subscriptions().Stats()
	if after.ReEvals != st.ReEvals || after.PointReEvals != st.PointReEvals {
		t.Fatalf("non-overlapping ingest re-evaluated: %+v -> %+v", st, after)
	}
	if after.Pushes != st.Pushes || after.DeltaPoints != st.DeltaPoints {
		t.Errorf("non-overlapping ingest pushed bytes: %+v -> %+v", st, after)
	}
	select {
	case ev := <-h.Events():
		t.Fatalf("unexpected event after non-overlapping ingest: %+v", ev)
	default:
	}

	// Closing the feed ends the subscription.
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if _, open := <-h.Events(); open {
		t.Fatal("event channel still open after Close")
	}
	if st := e.Subscriptions().Stats(); st.Active != 0 || st.Closed != 1 {
		t.Fatalf("Stats after Close = %+v, want none active and one closed", st)
	}
	// And a bare SubscribeRequest over request/response is refused: push
	// needs a streaming transport.
	if _, ok := e.HandleMessage(wire.SubscribeRequest{Pollutant: tuple.CO2,
		Points: []wire.SubPoint{{T: 300, X: 1, Y: 2}}}).(wire.ErrorResponse); !ok {
		t.Fatal("bare SubscribeRequest over Exchange was not refused")
	}
}

// sseEvent is one parsed SSE event.
type sseEvent struct {
	id, kind string
	data     subs.Event
}

// readSSE parses the next event off an SSE stream, skipping heartbeats.
func readSSE(t *testing.T, br *bufio.Reader) sseEvent {
	t.Helper()
	var ev sseEvent
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("timed out reading SSE event")
		}
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("read SSE: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "id: "):
			ev.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			ev.kind = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev.data); err != nil {
				t.Fatalf("bad SSE data: %v", err)
			}
		case line == "":
			if ev.kind != "" {
				return ev
			}
			// heartbeat or comment terminator: keep reading
		}
	}
}

// TestSSESubscribeAndResume drives GET /v1/subscribe end to end: the
// initial resync, a delta after an overlapping ingest, and a
// Last-Event-ID resume that recovers a push missed while detached.
func TestSSESubscribeAndResume(t *testing.T) {
	e := newTestEngine(t)
	defer e.Close()
	a := NewAPI(e)
	ts := httptest.NewServer(a)
	defer ts.Close()

	u := ts.URL + "/v1/subscribe?points=300,500,500%3B900,600,600"
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe status = %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	br := bufio.NewReader(resp.Body)

	initial := readSSE(t, br)
	if initial.kind != "resync" || initial.data.Seq != 1 || len(initial.data.Points) != 2 {
		t.Fatalf("initial SSE event = %+v", initial)
	}

	ingestWindow(t, e, 1, 80)
	delta := readSSE(t, br)
	if delta.kind != "push" {
		t.Fatalf("after ingest got %q event, want push", delta.kind)
	}
	for _, p := range delta.data.Points {
		if p.Index != 1 {
			t.Fatalf("delta touched point %d, want only the window-1 point 1", p.Index)
		}
	}
	wantRebuiltValues(t, e, []query.Request{{T: 300, X: 500, Y: 500}, {T: 900, X: 600, Y: 600}}, delta.data)

	// Detach, miss a push, resume: the server must reattach the same
	// subscription and open with a full resync at the newest sequence.
	lastID := delta.id
	resp.Body.Close()
	st := e.Subscriptions().Stats()
	ingestWindow(t, e, 1, 81)
	waitStats(t, e, func(s subs.Stats) bool { return s.ReEvals > st.ReEvals })
	e.Subscriptions().Wait()
	waitDetached(t, a)

	req, _ := http.NewRequest(http.MethodGet, u, nil)
	req.Header.Set("Last-Event-ID", lastID)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resume status = %s", resp2.Status)
	}
	resumed := readSSE(t, bufio.NewReader(resp2.Body))
	if resumed.kind != "resync" {
		t.Fatalf("resume opened with %q, want resync", resumed.kind)
	}
	if resumed.data.Seq <= delta.data.Seq {
		t.Fatalf("resume seq %d did not advance past %d", resumed.data.Seq, delta.data.Seq)
	}
	if len(resumed.data.Points) != 2 {
		t.Fatalf("resume resync carries %d points, want the full vector of 2", len(resumed.data.Points))
	}

	// One active server-side subscription despite two connections: the
	// resume reattached rather than re-subscribed.
	if st := e.Subscriptions().Stats(); st.Subscribed != 1 {
		t.Fatalf("Subscribed = %d, want 1 (resume must reattach)", st.Subscribed)
	}

	// Parameter validation.
	if r, err := http.Get(ts.URL + "/v1/subscribe"); err != nil {
		t.Fatal(err)
	} else {
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Fatalf("missing points: status = %s", r.Status)
		}
	}
	if r, err := http.Post(ts.URL+"/v1/subscribe", "text/plain", nil); err != nil {
		t.Fatal(err)
	} else {
		r.Body.Close()
		if r.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST: status = %s", r.Status)
		}
	}
}

// TestSubscribeBoundsStatus: a subscription over the registry's bounds is
// the client's request refused, not a server fault — too many points is
// a 400 and a full registry a 503.
func TestSubscribeBoundsStatus(t *testing.T) {
	e := newTestEngine(t)
	defer e.Close()
	a := NewAPI(e)
	subscribe := func(points string) int {
		t.Helper()
		w := httptest.NewRecorder()
		a.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/subscribe?points="+url.QueryEscape(points), nil))
		return w.Code
	}

	over := strings.TrimSuffix(strings.Repeat("300,500,500;", subs.MaxPoints+1), ";")
	if got := subscribe(over); got != http.StatusBadRequest {
		t.Fatalf("%d points: status %d, want 400", subs.MaxPoints+1, got)
	}

	ctx := context.Background()
	pt := []query.Request{{T: 300, X: 500, Y: 500}}
	for i := 0; i < subs.MaxSubs; i++ {
		if _, err := e.Subscribe(ctx, tuple.CO2, pt); err != nil {
			t.Fatalf("subscription %d: %v", i, err)
		}
	}
	if got := subscribe("300,500,500"); got != http.StatusServiceUnavailable {
		t.Fatalf("subscription %d: status %d, want 503", subs.MaxSubs+1, got)
	}
}

// continuousPoller polls a two-point route (one point in each test
// window) on /v1/query/continuous, conditionally when given a tag.
func continuousPoller(a *API) func(ifNoneMatch string) *httptest.ResponseRecorder {
	return func(ifNoneMatch string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/query/continuous",
			bytes.NewBufferString(`{"points":[{"t":300,"x":500,"y":500},{"t":900,"x":600,"y":600}]}`))
		if ifNoneMatch != "" {
			req.Header.Set("If-None-Match", ifNoneMatch)
		}
		w := httptest.NewRecorder()
		a.ServeHTTP(w, req)
		return w
	}
}

// TestContinuousETag locks the conditional-request satellite: repeated
// polls of an unchanged route answer 304 off the generations of the
// covers that are served, a write alone never yields a wrong 304 — while
// the rebuild is pending the previous cover is still the answer — and the
// poll after the rebuilt cover is installed is a 200 with a fresh tag.
func TestContinuousETag(t *testing.T) {
	e := newTestEngine(t)
	defer e.Close()
	a := NewAPI(e)

	do := continuousPoller(a)
	values := func(w *httptest.ResponseRecorder) []float64 {
		t.Helper()
		var cr continuousResponse
		if err := json.Unmarshal(w.Body.Bytes(), &cr); err != nil || len(cr.Values) != 2 {
			t.Fatalf("continuous body: %v %s", err, w.Body)
		}
		return []float64{cr.Values[0].Value, cr.Values[1].Value}
	}

	w1 := do("")
	if w1.Code != http.StatusOK {
		t.Fatalf("first poll: %d %s", w1.Code, w1.Body)
	}
	etag := w1.Header().Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, `"cq-`) {
		t.Fatalf("ETag = %q", etag)
	}
	held := values(w1) // what a client that keeps getting 304s displays

	w2 := do(etag)
	if w2.Code != http.StatusNotModified {
		t.Fatalf("unchanged poll: %d, want 304", w2.Code)
	}
	if w2.Header().Get("ETag") != etag || w2.Body.Len() != 0 {
		t.Fatalf("304 carries ETag %q and %d body bytes", w2.Header().Get("ETag"), w2.Body.Len())
	}

	// Dirty window 0 with data that moves its models. Until the rebuilt
	// cover is installed a poll may answer 304 — but only a correct one:
	// two 304s bracket an interval in which the served cover did not
	// change, so a fresh evaluation inside it must equal what the client
	// holds.
	ingestWindow(t, e, 0, 90)
	for do(etag).Code == http.StatusNotModified {
		fresh := values(do(""))
		if do(etag).Code != http.StatusNotModified {
			break // the install landed meanwhile
		}
		if fresh[0] != held[0] || fresh[1] != held[1] {
			t.Fatalf("304 while the engine answers %v, client holds %v", fresh, held)
		}
	}

	// After the install the tag has changed and the poll evaluates.
	e.Scheduler().Wait()
	w3 := do(etag)
	if w3.Code != http.StatusOK {
		t.Fatalf("post-install poll: %d, want 200", w3.Code)
	}
	etag3 := w3.Header().Get("ETag")
	if etag3 == etag {
		t.Fatal("ETag unchanged across an installed rebuild")
	}
	if got := values(w3); got[0] == held[0] {
		t.Fatalf("post-install body still carries the pre-ingest value %v", got[0])
	}
	if w := do(etag3); w.Code != http.StatusNotModified {
		t.Fatalf("poll with the fresh tag: %d, want 304", w.Code)
	}

	// Stats expose the registry section.
	sreq := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	sw := httptest.NewRecorder()
	a.ServeHTTP(sw, sreq)
	if sw.Code != http.StatusOK || !bytes.Contains(sw.Body.Bytes(), []byte(`"subscriptions"`)) {
		t.Fatalf("stats: %d %s", sw.Code, sw.Body)
	}
}

// TestContinuousETagWithoutScheduler is the immediate form: with no
// background builders an invalidation hard-drops the cover, so the very
// next poll is a 200 with a fresh tag.
func TestContinuousETagWithoutScheduler(t *testing.T) {
	e := newTestEngineWorkers(t, -1)
	do := continuousPoller(NewAPI(e))
	etag := do("").Header().Get("ETag")
	if w := do(etag); w.Code != http.StatusNotModified {
		t.Fatalf("unchanged poll: %d, want 304", w.Code)
	}
	defaultMaintainer(t, e).Invalidate(0)
	w := do(etag)
	if w.Code != http.StatusOK {
		t.Fatalf("post-invalidation poll: %d, want 200", w.Code)
	}
	if w.Header().Get("ETag") == etag {
		t.Fatal("ETag unchanged across an invalidation")
	}
}
