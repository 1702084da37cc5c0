package query

// This file defines the v1 typed query surface shared by the facade, the
// engine, the HTTP layer, and the wire clients: the pollutant-aware
// Request, the structured error taxonomy, and the processor-selection
// options that let one request be answered by any of the paper's four
// query methods.

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
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

// Q projects the request onto the per-window query tuple q_l.
func (r Request) Q() Q { return Q{T: r.T, X: r.X, Y: r.Y} }

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

// Kind selects the query method answering a request — the four processors
// of §2.2, now addressable per request.
type Kind string

// Processor kinds.
const (
	// KindCover evaluates the Ad-KMN model cover (the default).
	KindCover Kind = "cover"
	// KindNaive scans the raw window for tuples within the radius.
	KindNaive Kind = "naive"
	// KindRTree serves the radius search from a bulk-loaded R-tree.
	KindRTree Kind = "rtree"
	// KindVPTree serves the radius search from a vantage-point tree.
	KindVPTree Kind = "vptree"
)

// ParseKind resolves a processor name from the HTTP/CLI surface.
func ParseKind(s string) (Kind, error) {
	switch Kind(s) {
	case "", KindCover:
		return KindCover, nil
	case KindNaive, KindRTree, KindVPTree:
		return Kind(s), nil
	case "r-tree":
		return KindRTree, nil
	case "vp-tree":
		return KindVPTree, nil
	default:
		return "", fmt.Errorf("query: unknown processor kind %q", s)
	}
}

// DefaultRadius is the radius, in meters, used by radius-based processors
// when the caller does not override it (the paper's evaluation uses
// r = 250 m for urban corridors).
const DefaultRadius = 250.0

// Options tunes how a request is answered. The zero value means "model
// cover, default radius" — the paper's recommended configuration.
type Options struct {
	// Kind selects the processor (default KindCover).
	Kind Kind
	// Radius is the search radius in meters for radius-based processors.
	Radius float64
	// Concurrency bounds the worker pool answering a batch (0 picks
	// GOMAXPROCS; 1 forces sequential execution). The engine clamps it
	// to a small multiple of GOMAXPROCS, so untrusted callers cannot
	// dictate the server's goroutine count. Single queries ignore it.
	Concurrency int
}

// WithDefaults fills unset fields; a non-finite radius (NaN, ±Inf) is
// replaced by the default rather than poisoning every distance compare.
func (o Options) WithDefaults() Options {
	if o.Kind == "" {
		o.Kind = KindCover
	}
	if !(o.Radius > 0) || math.IsInf(o.Radius, 0) {
		o.Radius = DefaultRadius
	}
	return o
}

// BuildProcessor constructs the processor o selects: cover-based kinds
// wrap cv, radius-based kinds are built over the raw window w.
func BuildProcessor(o Options, w tuple.Batch, cv *core.Cover) (Processor, error) {
	o = o.WithDefaults()
	switch o.Kind {
	case KindCover:
		return NewCover(cv)
	case KindNaive:
		return NewNaive(w, o.Radius)
	case KindRTree:
		return NewRTree(w, o.Radius)
	case KindVPTree:
		return NewVPTree(w, o.Radius)
	default:
		return nil, fmt.Errorf("query: unknown processor kind %q", o.Kind)
	}
}
