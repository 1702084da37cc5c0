package server

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/query"
	"repro/internal/subs"
)

// sseResumeTTL is how long a subscription outlives a dropped SSE
// connection waiting for a Last-Event-ID resume before it is closed.
const sseResumeTTL = 60 * time.Second

// subEntry is one SSE-attached subscription in the broker.
type subEntry struct {
	tok      string
	h        *subs.Feed
	attached bool
	timer    *time.Timer // pending expiry while detached
}

// subBroker maps resume tokens to live subscription handles so an SSE
// client that reconnects with Last-Event-ID reattaches to the same
// subscription (and its buffered events) instead of re-subscribing.
type subBroker struct {
	ttl time.Duration

	mu      sync.Mutex
	entries map[string]*subEntry
}

func newSubBroker(ttl time.Duration) *subBroker {
	return &subBroker{ttl: ttl, entries: make(map[string]*subEntry)}
}

// create registers h under a fresh token, attached.
func (b *subBroker) create(h *subs.Feed) *subEntry {
	var raw [8]byte
	_, _ = rand.Read(raw[:])
	e := &subEntry{tok: hex.EncodeToString(raw[:]), h: h, attached: true}
	b.mu.Lock()
	b.entries[e.tok] = e
	b.mu.Unlock()
	return e
}

// errAttached rejects a second concurrent consumer of one subscription.
var errAttached = errors.New("server: subscription already has an attached consumer")

// attach reattaches a resuming client. It returns (nil, nil) for an
// unknown or expired token — the caller starts a fresh subscription.
func (b *subBroker) attach(tok string) (*subEntry, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[tok]
	if e == nil {
		return nil, nil
	}
	if e.attached {
		return nil, errAttached
	}
	if e.timer != nil {
		e.timer.Stop()
		e.timer = nil
	}
	e.attached = true
	return e, nil
}

// release detaches a consumer, arming the expiry that closes the
// subscription if no resume arrives within the TTL.
func (b *subBroker) release(e *subEntry) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !e.attached {
		return
	}
	e.attached = false
	e.timer = time.AfterFunc(b.ttl, func() { b.expire(e) })
}

func (b *subBroker) expire(e *subEntry) {
	b.mu.Lock()
	if cur := b.entries[e.tok]; cur != e || e.attached {
		b.mu.Unlock()
		return
	}
	delete(b.entries, e.tok)
	b.mu.Unlock()
	_ = e.h.Close()
}

// remove drops e immediately (its handle is already closed).
func (b *subBroker) remove(e *subEntry) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.entries[e.tok] == e {
		delete(b.entries, e.tok)
	}
}

// parseRoutePoints parses the ?points= parameter: "t,x,y" triples
// separated by semicolons (URL-escape them: %3B — Go's HTTP server
// rejects raw semicolons in query strings) or whitespace.
func parseRoutePoints(s string) ([]query.Request, error) {
	if s == "" {
		return nil, errors.New("missing query parameter \"points\" (t,x,y;t,x,y;...)")
	}
	parts := strings.FieldsFunc(s, func(r rune) bool {
		return r == ';' || r == ' ' || r == '\t' || r == '\n'
	})
	pts := make([]query.Request, 0, len(parts))
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ",")
		if len(fields) != 3 {
			return nil, fmt.Errorf("point %q: want t,x,y", part)
		}
		var vals [3]float64
		for i, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("point %q: want finite numbers", part)
			}
			vals[i] = v
		}
		pts = append(pts, query.Request{T: vals[0], X: vals[1], Y: vals[2]})
	}
	if len(pts) == 0 {
		return nil, errors.New("empty route")
	}
	return pts, nil
}

// parseEventID splits an SSE event ID "<token>.<seq>".
func parseEventID(id string) (tok string, seq uint64, ok bool) {
	i := strings.LastIndexByte(id, '.')
	if i <= 0 {
		return "", 0, false
	}
	seq, err := strconv.ParseUint(id[i+1:], 10, 64)
	if err != nil {
		return "", 0, false
	}
	return id[:i], seq, true
}

// handleSubscribe serves GET /v1/subscribe?pollutant=&points=t,x,y;...
// as a Server-Sent-Events stream. Every event carries id "<token>.<seq>";
// a client reconnecting with Last-Event-ID (or ?lastEventId=) within the
// resume TTL reattaches to the same server-side subscription: if pushes
// were produced meanwhile it first receives a full "resync" event, so a
// resumed stream can never silently miss a delta. Unknown or expired
// tokens fall back to a fresh subscription (the points parameter is
// required either way, matching EventSource's reconnect-same-URL
// behaviour). Event types: "push" (delta), "resync" (full vector —
// initial state, overflow recovery, resume), "error"
// (subscription-level, e.g. a dead shard owner).
func (a *API) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, http.StatusInternalServerError, errors.New("response writer cannot stream"))
		return
	}
	q := r.URL.RawQuery
	pol, err := a.queryPollutant(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	lastID := r.Header.Get("Last-Event-ID")
	if lastID == "" {
		lastID = queryParam(q, "lastEventId")
	}
	var (
		entry   *subEntry
		skipTo  uint64 // drop queued events at or below this sequence
		resumed bool
	)
	if lastID != "" {
		if tok, seq, ok := parseEventID(lastID); ok {
			e, err := a.sse.attach(tok)
			if err != nil {
				writeError(w, http.StatusConflict, err)
				return
			}
			if e != nil {
				entry, skipTo, resumed = e, seq, true
			}
		}
	}
	if entry == nil {
		pts, err := parseRoutePoints(queryParam(q, "points"))
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		h, err := a.backend.Subscribe(r.Context(), pol, pts)
		if err != nil {
			writeEngineError(w, err)
			return
		}
		entry = a.sse.create(h)
	}
	h := entry.h
	defer a.sse.release(entry)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	send := func(ev subs.Event) bool {
		kind := "push"
		switch {
		case ev.Resync:
			kind = "resync"
		case ev.Err != "":
			kind = "error"
		}
		body, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "id: %s.%d\nevent: %s\ndata: %s\n\n", entry.tok, ev.Seq, kind, body); err != nil {
			return false
		}
		fl.Flush()
		return true
	}

	// A resumed client that missed pushes gets the full vector first;
	// queued events it already saw (or that the snapshot covers) are
	// skipped below.
	if resumed && h.Seq() != skipTo {
		snap := h.Snapshot()
		skipTo = snap.Seq
		if !send(snap) {
			return
		}
	}

	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case ev, ok := <-h.Events():
			if !ok {
				// Closed server-side (shutdown): the token is dead,
				// remove it so a resume starts fresh.
				a.sse.remove(entry)
				return
			}
			if ev.Seq <= skipTo {
				continue
			}
			if !send(ev) {
				return
			}
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": ping\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
