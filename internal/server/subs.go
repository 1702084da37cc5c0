package server

import (
	"context"

	"repro/internal/cluster"
	"repro/internal/query"
	"repro/internal/subs"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// subsEvaluate is the registry's evaluator: the engine's cover-backed
// batch path. A re-evaluation is triggered by a cover being installed or
// hard-dropped, so it reads (or builds) the new cover — the value pushed
// is always post-rebuild.
func (e *Engine) subsEvaluate(ctx context.Context, _ tuple.Pollutant, reqs []query.Request) ([]query.BatchResult, error) {
	return e.QueryBatch(ctx, reqs)
}

// subsWindowLen binds subscription points to window indexes.
func (e *Engine) subsWindowLen(pol tuple.Pollutant) (float64, error) {
	st, err := e.StoreFor(pol)
	if err != nil {
		return 0, err
	}
	return st.WindowLength(), nil
}

// Subscribe registers a push subscription over pts for pollutant pol.
// The returned feed's first event is a full resync (sequence 1) with
// the initial value vector; afterwards the subscription re-evaluates
// only when the cover of a window some point is bound to is replaced
// (an ingest's rebuild is installed) or dropped, and pushes deltas of
// the changed points. Closing the feed ends the subscription.
func (e *Engine) Subscribe(ctx context.Context, pol tuple.Pollutant, pts []query.Request) (*subs.Feed, error) {
	if e.closed.Load() {
		return nil, ErrEngineClosed
	}
	if !e.Serves(pol) {
		return nil, query.ErrUnknownPollutant
	}
	return e.registry.Subscribe(ctx, pol, pts)
}

// Subscriptions exposes the push-subscription registry (stats, test
// quiescence).
func (e *Engine) Subscriptions() *subs.Registry { return e.registry }

// HandleStreamCtx implements proto.CtxStreamer: a SubscribeRequest opens
// a push stream, which ends when its connection does. Other messages
// fall back to the request/response path. The serve loop passes its
// server-lifetime context so subscriptions unwind on shutdown.
func (e *Engine) HandleStreamCtx(ctx context.Context, req wire.Message) (ack wire.Message, run func(emit func(wire.Message) error), stop func(), ok bool) {
	m, isSub := req.(wire.SubscribeRequest)
	if !isSub {
		return nil, nil, nil, false
	}
	f, err := e.Subscribe(ctx, m.Pollutant, subs.RequestFromWire(m))
	if err != nil {
		return subs.Refuse(cluster.WireError(err))
	}
	return f.Stream()
}
