package query

// This file defines the v1 typed query surface shared by the facade, the
// engine, the HTTP layer, and the wire clients: the pollutant-aware
// Request, the structured error taxonomy, and the batch result. A served
// request is always answered from the model cover; the paper's radius
// baselines are the Processors in this package, built directly by their
// callers.

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/tuple"
)

// Request is one v1 query: interpolate pollutant Pollutant at position
// (X, Y) and stream time T. The zero Pollutant is CO2, so untyped legacy
// tuples map onto valid requests.
type Request struct {
	T         float64         `json:"t"`
	X         float64         `json:"x"`
	Y         float64         `json:"y"`
	Pollutant tuple.Pollutant `json:"pollutant"`
}

// Validate checks the request against the error taxonomy: NaN/Inf
// coordinates are malformed, a negative time is ErrOutOfWindow, and an
// unrecognized pollutant is ErrUnknownPollutant.
func (r Request) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"t", r.T}, {"x", r.X}, {"y", r.Y}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("query: field %s is not finite", f.name)
		}
	}
	if r.T < 0 {
		return fmt.Errorf("%w: negative time %v", ErrOutOfWindow, r.T)
	}
	if !r.Pollutant.Valid() {
		return fmt.Errorf("%w: %v", ErrUnknownPollutant, r.Pollutant)
	}
	return nil
}

func (r Request) String() string {
	return fmt.Sprintf("q(%s t=%.0f x=%.1f y=%.1f)", r.Pollutant, r.T, r.X, r.Y)
}

// BatchResult is the outcome of one request within a batch. Batches no
// longer fail atomically: each item carries its own value or error, so
// one request outside the retained windows does not reject the route
// points around it.
type BatchResult struct {
	Value float64
	Err   error
}

// The v1 error taxonomy. Every query path wraps one of these sentinels,
// so callers dispatch with errors.Is instead of string matching.
var (
	// ErrNoCover means the window has data but a model cover could not be
	// built or reconstructed for it.
	ErrNoCover = errors.New("query: no model cover available")
	// ErrOutOfWindow means the query time falls outside the retained data
	// windows (negative, before retention, or beyond the stream head).
	ErrOutOfWindow = errors.New("query: time outside retained data windows")
	// ErrUnknownPollutant means the pollutant is invalid or not monitored
	// by the serving engine.
	ErrUnknownPollutant = errors.New("query: unknown pollutant")
)
