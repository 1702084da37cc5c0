package server

// The error taxonomy at the HTTP edge: one table (errorStatus) decides
// every endpoint's status, and a failure that reached this node over the
// wire reads exactly like one produced locally.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/geo"
	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/subs"
	"repro/internal/tuple"
	"repro/internal/wire"
)

func TestErrorStatusTable(t *testing.T) {
	// Every wire code, as it arrives from a peer, and the status it must
	// answer with. A replica miss never reaches the edge (failover
	// consumes it), so it is an internal error like any untyped one.
	byCode := map[wire.ErrCode]int{
		wire.CodePartialIngest:    http.StatusInternalServerError,
		wire.CodeStaleEpoch:       http.StatusServiceUnavailable,
		wire.CodeTooLarge:         http.StatusBadRequest,
		wire.CodeOutOfWindow:      http.StatusNotFound,
		wire.CodeNoCover:          http.StatusNotFound,
		wire.CodeUnknownPollutant: http.StatusBadRequest,
		wire.CodeSaturated:        http.StatusTooManyRequests,
		wire.CodeInvalidBatch:     http.StatusBadRequest,
		wire.CodePipelineClosed:   http.StatusServiceUnavailable,
		wire.CodeNodeUnreachable:  http.StatusBadGateway,
		wire.CodeReplicaMiss:      http.StatusInternalServerError,
		wire.CodeNone:             http.StatusInternalServerError,
	}
	for code := wire.CodeNone; code <= wire.CodeReplicaMiss; code++ {
		if code == 1 {
			continue // the batch item's untyped status, never a code
		}
		want, listed := byCode[code]
		if !listed {
			t.Fatalf("code %d has no expected status", code)
		}
		routed := fmt.Errorf("point (1,2): %w", cluster.ErrorFromWire(code, "peer text"))
		rec := httptest.NewRecorder()
		writeEngineError(rec, routed)
		if rec.Code != want {
			t.Errorf("code %d: status %d, want %d", code, rec.Code, want)
		}
		if retry := rec.Header().Get("Retry-After") != ""; retry != (want == http.StatusTooManyRequests) {
			t.Errorf("code %d: Retry-After present = %v", code, retry)
		}
		if !strings.Contains(rec.Body.String(), "peer text") {
			t.Errorf("code %d: body %q lost the message", code, rec.Body)
		}
	}
	// The sentinels that never cross the wire.
	for err, want := range map[error]int{
		ErrEngineClosed:          http.StatusServiceUnavailable,
		subs.ErrTooManyPoints:    http.StatusBadRequest,
		subs.ErrTooManySubs:      http.StatusServiceUnavailable,
		context.Canceled:         http.StatusServiceUnavailable,
		context.DeadlineExceeded: http.StatusGatewayTimeout,
		errors.New("disk full"):  http.StatusInternalServerError,
		// A partial ingest keeps its 500 whatever retryable failure the
		// unapplied slices had.
		fmt.Errorf("%w: %w", cluster.ErrPartialIngest, ingest.ErrSaturated):         http.StatusInternalServerError,
		errors.Join(cluster.ErrNodeUnreachable, cluster.ErrPartialIngest):           http.StatusInternalServerError,
		fmt.Errorf("slice: %w", fmt.Errorf("owner: %w", query.ErrUnknownPollutant)): http.StatusBadRequest,
	} {
		if got := statusOf(err); got != want {
			t.Errorf("statusOf(%v) = %d, want %d", err, got, want)
		}
	}
}

// lostPeer is the link to a peer that has moved to a newer ring epoch
// while this node cannot learn the new ring (the refresh exchange
// fails): every frame it forwards stays fenced. Frames cross the binary
// codec both ways, so the answer is the caller's own, as a
// cluster.Transport's must be.
type lostPeer struct{ peer *cluster.Node }

func (l lostPeer) Exchange(req wire.Message) (wire.Message, error) {
	if _, isRing := req.(wire.RingRequest); isRing {
		return nil, errors.New("ring refresh timed out")
	}
	reqB, err := wire.Binary.Encode(req)
	if err != nil {
		return nil, err
	}
	decoded, err := wire.Binary.Decode(reqB)
	if err != nil {
		return nil, err
	}
	respB, err := wire.Binary.Encode(l.peer.HandleMessage(decoded))
	if err != nil {
		return nil, err
	}
	return wire.Binary.Decode(respB)
}

// TestFencedRequestAnswers503: a request fenced by a peer on a newer
// epoch is the cluster being mid-transition, not a missing resource
// (the query used to fall to 404) nor a server fault (the ingest used to
// be 500): both answer 503, as ErrStaleEpoch's contract says.
func TestFencedRequestAnswers503(t *testing.T) {
	region := geo.Rect{Min: geo.Point{X: -1000, Y: -1000}, Max: geo.Point{X: 1000, Y: 1000}}
	cells, err := cluster.Cells(region, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ringAt := func(epoch uint64) *cluster.Ring {
		r, err := cluster.NewRing(cluster.Desc{Nodes: []string{"a:1", "b:2"}, Cells: cells, Epoch: epoch})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	engines := [2]*Engine{newTestEngine(t), newTestEngine(t)}
	ahead, err := cluster.NewNode(cluster.NodeConfig{Ring: ringAt(2), Self: 1, Local: engines[1]})
	if err != nil {
		t.Fatal(err)
	}
	behind, err := cluster.NewNode(cluster.NodeConfig{
		Ring: ringAt(1), Self: 0, Local: engines[0],
		Transports: []cluster.Transport{nil, lostPeer{ahead}},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewClusterAPI(engines[0], behind))
	defer srv.Close()

	// A position the peer owns.
	var foreign geo.Point
	for x := -900.0; x <= 900; x += 100 {
		if p := (geo.Point{X: x, Y: x}); behind.Ring().Owner(tuple.CO2, p) == 1 {
			foreign = p
		}
	}
	if behind.Ring().Owner(tuple.CO2, foreign) != 1 {
		t.Fatal("no probe position on the peer's shards")
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/query?t=300&x=%.0f&y=%.0f", srv.URL, foreign.X, foreign.Y))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("fenced query: status %d, want 503", resp.StatusCode)
	}
	body := fmt.Sprintf(`{"tuples":[{"T":300,"X":%.0f,"Y":%.0f,"S":400}]}`, foreign.X, foreign.Y)
	resp, err = http.Post(srv.URL+"/v1/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("fenced ingest: status %d, want 503", resp.StatusCode)
	}
	if behind.Stats().Errors == 0 || ahead.Stats().EpochMismatches < 2 {
		t.Errorf("the requests were not fenced: %+v / %+v", behind.Stats(), ahead.Stats())
	}
}
