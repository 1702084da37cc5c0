package client

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/wire"
)

// scriptedTransport returns canned responses or errors, to exercise the
// client's handling of protocol violations without a network. Each answer
// is handed out once and never read again, so it is the caller's, as a
// cluster.Transport's must be.
type scriptedTransport struct {
	responses []wire.Message
	errs      []error
	calls     int
}

func (s *scriptedTransport) Exchange(req wire.Message) (wire.Message, error) {
	i := s.calls
	s.calls++
	var err error
	if i < len(s.errs) {
		err = s.errs[i]
	}
	var resp wire.Message
	if i < len(s.responses) {
		resp = s.responses[i]
	}
	return resp, err
}

func TestBaselineTransportError(t *testing.T) {
	boom := errors.New("radio dropped")
	b := NewBaseline(&scriptedTransport{errs: []error{boom}})
	if _, err := b.Query(query.Request{}); !errors.Is(err, boom) {
		t.Errorf("transport error not propagated: %v", err)
	}
}

func TestBaselineUnexpectedResponse(t *testing.T) {
	b := NewBaseline(&scriptedTransport{responses: []wire.Message{wire.ModelRequest{}}})
	_, err := b.Query(query.Request{})
	if err == nil || !strings.Contains(err.Error(), "unexpected response") {
		t.Errorf("want unexpected-response error, got %v", err)
	}
}

func TestModelCacheTransportError(t *testing.T) {
	boom := errors.New("no signal")
	mc := NewModelCache(&scriptedTransport{errs: []error{boom}})
	if _, err := mc.Query(query.Request{}); !errors.Is(err, boom) {
		t.Errorf("transport error not propagated: %v", err)
	}
}

func TestModelCacheUnexpectedResponse(t *testing.T) {
	mc := NewModelCache(&scriptedTransport{responses: []wire.Message{wire.QueryResponse{}}})
	_, err := mc.Query(query.Request{})
	if err == nil || !strings.Contains(err.Error(), "unexpected response") {
		t.Errorf("want unexpected-response error, got %v", err)
	}
}

func TestModelCacheBadModelResponse(t *testing.T) {
	// A model response the client cannot reconstruct (unknown family).
	bad := wire.ModelResponse{
		Features:  "no-such-family",
		Centroids: []geo.Point{{X: 1, Y: 2}},
		Coefs:     [][]float64{{1}},
	}
	mc := NewModelCache(&scriptedTransport{responses: []wire.Message{bad}})
	if _, err := mc.Query(query.Request{}); err == nil {
		t.Error("unreconstructable model response should error")
	}
}
