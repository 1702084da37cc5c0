// Package client implements the mobile object v_q: the smartphone (or
// vehicle) that registers a continuous query and receives pollution values
// as it moves (§2.2–2.3). Two strategies are provided, matching the two
// arms of the bandwidth experiment (Figure 7b):
//
//   - Baseline: every query tuple is a request/response round trip; the
//     server interpolates and returns ŝ_l.
//   - ModelCache: the client fetches the model cover (t_n, µ, M) once per
//     pollutant, answers locally while t_l ≤ t_n, and refreshes only on
//     expiry.
//
// Strategies answer v1 query.Requests, so one client can interleave
// pollutants over a single connection; the model cache keeps one cover
// per pollutant. Both strategies run over a cluster.Transport, normally
// the simulated cellular link, which accounts every byte and second the
// device would spend.
package client

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/netsim"
	"repro/internal/query"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// LinkTransport is a cluster.Transport over a simulated cellular link:
// requests and responses are encoded with wire.Binary, their sizes
// charged to the link, and the handler invoked in-process.
type LinkTransport struct {
	Link    *netsim.Link
	Handler cluster.Handler
}

// Exchange implements cluster.Transport.
func (t *LinkTransport) Exchange(req wire.Message) (wire.Message, error) {
	reqData, err := wire.Binary.Encode(req)
	if err != nil {
		return nil, fmt.Errorf("client: encode request: %w", err)
	}
	resp := t.Handler.HandleMessage(req)
	respData, err := wire.Binary.Encode(resp)
	if err != nil {
		return nil, fmt.Errorf("client: encode response: %w", err)
	}
	if _, err := t.Link.Exchange(len(reqData), len(respData)); err != nil {
		return nil, err
	}
	// Decode the response as the device would, so malformed server output
	// surfaces as an error rather than silently passing a Go value along.
	decoded, err := wire.Binary.Decode(respData)
	if err != nil {
		return nil, fmt.Errorf("client: decode response: %w", err)
	}
	return decoded, nil
}

// serverError turns a server's failure response into an error that
// still matches the failure's sentinel (errors.Is(err,
// query.ErrOutOfWindow), ...) through its wire code.
func serverError(er wire.ErrorResponse) error {
	return fmt.Errorf("client: server error: %w", cluster.ErrorFromWire(er.Code, er.Msg))
}

// Answer is one delivered pollution update.
type Answer struct {
	Req   query.Request
	Value float64
	// Local reports whether the value was computed on the device from the
	// cached model cover (true) or by the server (false).
	Local bool
}

// Strategy answers a stream of v1 query requests.
type Strategy interface {
	// Name labels the strategy in reports.
	Name() string
	// Query answers one request.
	Query(req query.Request) (Answer, error)
}

// Baseline is the §2.3 baseline: one round trip per query tuple.
type Baseline struct {
	transport cluster.Transport
}

// NewBaseline returns the baseline strategy over a transport.
func NewBaseline(t cluster.Transport) *Baseline { return &Baseline{transport: t} }

// Name implements Strategy.
func (b *Baseline) Name() string { return "baseline" }

// Query implements Strategy.
func (b *Baseline) Query(req query.Request) (Answer, error) {
	resp, err := b.transport.Exchange(wire.QueryRequest{
		T: req.T, X: req.X, Y: req.Y, Pollutant: req.Pollutant,
	})
	if err != nil {
		return Answer{}, err
	}
	switch m := resp.(type) {
	case wire.QueryResponse:
		return Answer{Req: req, Value: m.Value, Local: false}, nil
	case wire.ErrorResponse:
		return Answer{}, serverError(m)
	default:
		return Answer{}, fmt.Errorf("client: unexpected response %T", resp)
	}
}

// ModelCache is the paper's bandwidth-optimized strategy, generalized to
// one cached cover per pollutant.
type ModelCache struct {
	transport cluster.Transport
	caches    map[tuple.Pollutant]*cache.Cache
}

// NewModelCache returns the model-cache strategy over a transport.
func NewModelCache(t cluster.Transport) *ModelCache {
	return &ModelCache{transport: t, caches: make(map[tuple.Pollutant]*cache.Cache)}
}

// Name implements Strategy.
func (m *ModelCache) Name() string { return "model-cache" }

// cacheFor returns (lazily creating) the pollutant's cover cache.
func (m *ModelCache) cacheFor(p tuple.Pollutant) *cache.Cache {
	c, ok := m.caches[p]
	if !ok {
		c = cache.New()
		m.caches[p] = c
	}
	return c
}

// CacheStats aggregates hit/miss counters across all pollutant caches.
func (m *ModelCache) CacheStats() cache.Stats {
	var out cache.Stats
	for _, c := range m.caches {
		s := c.Stats()
		out.Hits += s.Hits
		out.Misses += s.Misses
		out.Refreshes += s.Refreshes
	}
	return out
}

// CacheStatsFor returns the counters of one pollutant's cache.
func (m *ModelCache) CacheStatsFor(p tuple.Pollutant) cache.Stats {
	if c, ok := m.caches[p]; ok {
		return c.Stats()
	}
	return cache.Stats{}
}

// Query implements Strategy: answer locally when the pollutant's cached
// cover is valid at t_l, otherwise send a model request e_l and refresh.
func (m *ModelCache) Query(req query.Request) (Answer, error) {
	cc := m.cacheFor(req.Pollutant)
	cv, ok := cc.Lookup(req.T)
	if !ok {
		resp, err := m.transport.Exchange(wire.ModelRequest{T: req.T, Pollutant: req.Pollutant})
		if err != nil {
			return Answer{}, err
		}
		switch r := resp.(type) {
		case wire.ModelResponse:
			cv, err = wire.CoverFromModelResponse(r)
			if err != nil {
				return Answer{}, err
			}
			cc.Store(cv)
		case wire.ErrorResponse:
			return Answer{}, serverError(r)
		default:
			return Answer{}, fmt.Errorf("client: unexpected response %T", resp)
		}
	}
	v, err := cv.Interpolate(req.T, req.X, req.Y)
	if err != nil {
		return Answer{}, err
	}
	return Answer{Req: req, Value: v, Local: ok}, nil
}

// RunContinuousCtx drives a strategy through a full continuous query —
// the mobile object transmitting query tuples at its uniform interval —
// and returns the answers. The stream stops at the first context error.
func RunContinuousCtx(ctx context.Context, s Strategy, reqs []query.Request) ([]Answer, error) {
	if len(reqs) == 0 {
		return nil, errors.New("client: empty query stream")
	}
	out := make([]Answer, len(reqs))
	for i, req := range reqs {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("client: query %d: %w", i, err)
		}
		a, err := s.Query(req)
		if err != nil {
			return nil, fmt.Errorf("client: query %d: %w", i, err)
		}
		out[i] = a
	}
	return out, nil
}
