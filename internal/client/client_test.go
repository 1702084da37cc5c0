package client

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kmeans"
	"repro/internal/netsim"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tuple"
)

// newStack builds a server engine over synthetic data and a link transport
// in front of it.
func newStack(t *testing.T) (*server.Engine, *netsim.Link, cluster.Transport) {
	t.Helper()
	st := store.MustOpenMemory(3600)
	rng := rand.New(rand.NewSource(1))
	var b tuple.Batch
	for c := 0; c < 3; c++ {
		for i := 0; i < 400; i++ {
			x, y := rng.Float64()*2000, rng.Float64()*2000
			b = append(b, tuple.Raw{
				T: float64(c)*3600 + rng.Float64()*3600,
				X: x, Y: y,
				S: 430 + 0.04*x + 0.01*y,
			})
		}
	}
	if err := st.Append(b); err != nil {
		t.Fatal(err)
	}
	eng := server.NewEngine(st, core.Config{Cluster: kmeans.Config{Seed: 3}})
	link, err := netsim.NewLink(netsim.GPRS())
	if err != nil {
		t.Fatal(err)
	}
	return eng, link, &LinkTransport{Link: link, Handler: eng}
}

// walkQueries generates n query tuples pacing through time at dt seconds,
// walking within the data region.
func walkQueries(n int, dt float64) []query.Request {
	qs := make([]query.Request, n)
	rng := rand.New(rand.NewSource(9))
	x, y := 500.0, 500.0
	for i := range qs {
		x += rng.NormFloat64() * 30
		y += rng.NormFloat64() * 30
		x = math.Max(0, math.Min(2000, x))
		y = math.Max(0, math.Min(2000, y))
		qs[i] = query.Request{T: float64(i) * dt, X: x, Y: y}
	}
	return qs
}

func TestBaselineAnswersMatchServer(t *testing.T) {
	eng, _, tr := newStack(t)
	b := NewBaseline(tr)
	qs := walkQueries(50, 60)
	answers, err := RunContinuousCtx(context.Background(), b, qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range answers {
		want, err := eng.Query(context.Background(), qs[i])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a.Value-want) > 1e-9 {
			t.Fatalf("query %d: %v vs server %v", i, a.Value, want)
		}
		if a.Local {
			t.Fatalf("baseline answer %d claims to be local", i)
		}
	}
}

func TestModelCacheAnswersMatchServer(t *testing.T) {
	eng, _, tr := newStack(t)
	mc := NewModelCache(tr)
	qs := walkQueries(50, 60)
	answers, err := RunContinuousCtx(context.Background(), mc, qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range answers {
		want, err := eng.Query(context.Background(), qs[i])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a.Value-want) > 1e-9 {
			t.Fatalf("query %d: %v vs server %v", i, a.Value, want)
		}
	}
	// First answer is a fetch; the rest of the same window are local.
	if answers[0].Local {
		t.Error("first query should have fetched")
	}
	if !answers[1].Local {
		t.Error("second query should be local")
	}
}

func TestModelCacheRefetchesAcrossWindows(t *testing.T) {
	_, _, tr := newStack(t)
	mc := NewModelCache(tr)
	// 90 queries spaced 120 s apart cross from window 0 (0..3600) into
	// windows 1 and 2 (data ends at 10800): exactly 3 fetches.
	qs := walkQueries(90, 120)
	if _, err := RunContinuousCtx(context.Background(), mc, qs); err != nil {
		t.Fatal(err)
	}
	st := mc.CacheStats()
	if st.Refreshes != 3 {
		t.Errorf("Refreshes = %d, want 3 (one per window crossed)", st.Refreshes)
	}
	if st.Misses != 3 || st.Hits != 87 {
		t.Errorf("hits/misses = %d/%d, want 87/3", st.Hits, st.Misses)
	}
}

func TestModelCacheSavesBandwidth(t *testing.T) {
	// The Figure 7(b) property, at unit-test scale: two orders of
	// magnitude fewer bytes sent, and far less air time.
	_, linkB, trB := newStack(t)
	qs := walkQueries(100, 30) // all within window 0
	if _, err := RunContinuousCtx(context.Background(), NewBaseline(trB), qs); err != nil {
		t.Fatal(err)
	}
	baseStats := linkB.Stats()

	_, linkM, trM := newStack(t)
	if _, err := RunContinuousCtx(context.Background(), NewModelCache(trM), qs); err != nil {
		t.Fatal(err)
	}
	cacheStats := linkM.Stats()

	if cacheStats.Exchanges != 1 {
		t.Fatalf("model-cache exchanges = %d, want 1", cacheStats.Exchanges)
	}
	if baseStats.Exchanges != 100 {
		t.Fatalf("baseline exchanges = %d, want 100", baseStats.Exchanges)
	}
	sentRatio := float64(baseStats.SentBytes) / float64(cacheStats.SentBytes)
	if sentRatio < 50 {
		t.Errorf("sent ratio = %.1f, want ≥ 50", sentRatio)
	}
	timeRatio := baseStats.SimSeconds / cacheStats.SimSeconds
	if timeRatio < 50 {
		t.Errorf("time ratio = %.1f, want ≥ 50", timeRatio)
	}
	if baseStats.ReceivedBytes <= cacheStats.ReceivedBytes {
		t.Errorf("baseline received %d should exceed model-cache %d",
			baseStats.ReceivedBytes, cacheStats.ReceivedBytes)
	}
}

func TestServerErrorPropagates(t *testing.T) {
	_, _, tr := newStack(t)
	// The server's sentinel survives the (encoded, decoded) link through
	// its wire code, not its text.
	b := NewBaseline(tr)
	if _, err := b.Query(query.Request{T: 1e12}); !errors.Is(err, query.ErrOutOfWindow) {
		t.Errorf("query in empty window = %v, want ErrOutOfWindow", err)
	}
	mc := NewModelCache(tr)
	if _, err := mc.Query(query.Request{T: 1e12}); !errors.Is(err, query.ErrOutOfWindow) {
		t.Errorf("model fetch for empty window = %v, want ErrOutOfWindow", err)
	}
	if _, err := b.Query(query.Request{T: 1800, Pollutant: tuple.PM}); !errors.Is(err, query.ErrUnknownPollutant) {
		t.Errorf("query for an unmonitored pollutant = %v, want ErrUnknownPollutant", err)
	}
}

func TestRunContinuousEmpty(t *testing.T) {
	_, _, tr := newStack(t)
	if _, err := RunContinuousCtx(context.Background(), NewBaseline(tr), nil); err == nil {
		t.Error("empty stream should error")
	}
}

func TestStrategyNames(t *testing.T) {
	_, _, tr := newStack(t)
	if NewBaseline(tr).Name() != "baseline" {
		t.Error("baseline name")
	}
	if NewModelCache(tr).Name() != "model-cache" {
		t.Error("model-cache name")
	}
}
