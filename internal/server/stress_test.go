package server

// Concurrency stress for the v1 engine: parallel Ingest / Query /
// QueryBatch / Heatmap across two pollutants on one Engine, run under
// `go test -race`. Rolling ingest through retention-bounded stores also
// checks the maintainers' cover caches never outgrow the retention
// horizon — the ISSUE's north-star scenario of sustained ingest plus
// heavy concurrent query traffic.

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/kmeans"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/tuple"
)

func TestEngineConcurrentStress(t *testing.T) {
	const (
		windowLen = 100.0
		retain    = 4
		windows   = 12
		writers   = 2 // one per pollutant
		readers   = 6
	)
	mkStore := func() *store.Store {
		st, err := store.Open(store.Config{WindowLength: windowLen, Retain: retain})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	stores := map[tuple.Pollutant]*store.Store{
		tuple.CO2: mkStore(),
		tuple.PM:  mkStore(),
	}
	e, err := NewMultiEngineOpts(stores, core.Config{Cluster: kmeans.Config{Seed: 3}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pols := []tuple.Pollutant{tuple.CO2, tuple.PM}

	// Seed the first window so readers have something to hit immediately.
	for _, pol := range pols {
		if err := e.Ingest(ctx, pol, seedBatch(pol, 0, windowLen, 40, 1)); err != nil {
			t.Fatal(err)
		}
	}

	var wg, writerWG sync.WaitGroup
	stop := make(chan struct{})

	// Writers: rolling ingest, window after window, with occasional late
	// tuples into older windows to exercise Invalidate against in-flight
	// builds. Readers run until every writer has finished its stream.
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		writerWG.Add(1)
		go func(pol tuple.Pollutant, seed int64) {
			defer wg.Done()
			defer writerWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for c := 1; c < windows; c++ {
				if err := e.Ingest(ctx, pol, seedBatch(pol, c, windowLen, 40, seed+int64(c))); err != nil {
					t.Errorf("ingest %v window %d: %v", pol, c, err)
					return
				}
				// Late data for a window that may already be modeled.
				late := c - 1 - rng.Intn(2)
				if late >= 0 {
					b := seedBatch(pol, late, windowLen, 3, seed-int64(c))
					if err := e.Ingest(ctx, pol, b); err != nil {
						t.Errorf("late ingest %v window %d: %v", pol, late, err)
						return
					}
				}
			}
		}(pols[wi], int64(wi+1))
	}
	go func() {
		writerWG.Wait()
		close(stop)
	}()

	// Readers: point queries, mixed-pollutant batches, and heatmaps over
	// random retained times. Out-of-window errors are expected while the
	// writers race ahead of the readers; anything else is a failure.
	for ri := 0; ri < readers; ri++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				tm := rng.Float64() * windowLen * windows
				pol := pols[rng.Intn(len(pols))]
				switch rng.Intn(3) {
				case 0:
					_, err := e.Query(ctx, query.Request{T: tm, X: rng.Float64() * 1000, Y: rng.Float64() * 1000, Pollutant: pol})
					if err != nil && !expectedStressErr(err) {
						t.Errorf("query: %v", err)
						return
					}
				case 1:
					reqs := make([]query.Request, 16)
					for i := range reqs {
						reqs[i] = query.Request{
							T: rng.Float64() * windowLen * windows,
							X: rng.Float64() * 1000, Y: rng.Float64() * 1000,
							Pollutant: pols[i%len(pols)],
						}
					}
					rs, err := e.QueryBatch(ctx, reqs)
					if err != nil {
						t.Errorf("batch: %v", err)
						return
					}
					for _, r := range rs {
						if r.Err != nil && !expectedStressErr(r.Err) {
							t.Errorf("batch item: %v", r.Err)
							return
						}
					}
				case 2:
					_, err := e.Heatmap(ctx, pol, tm, 8, 8)
					if err != nil && !expectedStressErr(err) {
						t.Errorf("heatmap: %v", err)
						return
					}
				}
			}
		}(int64(100 + ri))
	}
	wg.Wait()

	// After the dust settles, the cover caches must respect the stores'
	// retention bound, and retained windows must still answer.
	for _, pol := range pols {
		mnt, err := e.MaintainerFor(pol)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(mnt.CachedWindows()); got > retain {
			t.Errorf("%v: %d cached covers, want <= %d", pol, got, retain)
		}
		st, _ := e.StoreFor(pol)
		for _, c := range st.WindowIndexes() {
			if _, err := mnt.CoverFor(c); err != nil {
				t.Errorf("%v: retained window %d unanswerable: %v", pol, c, err)
			}
		}
	}
}

// seedBatch generates one window's worth of tuples for pol.
func seedBatch(pol tuple.Pollutant, c int, h float64, n int, seed int64) tuple.Batch {
	rng := rand.New(rand.NewSource(seed))
	base := 420.0
	if pol == tuple.PM {
		base = 20
	}
	b := make(tuple.Batch, n)
	for i := range b {
		b[i] = tuple.Raw{
			T: float64(c)*h + rng.Float64()*h,
			X: rng.Float64() * 1000,
			Y: rng.Float64() * 1000,
			S: base + rng.Float64()*50,
		}
	}
	return b
}

// expectedStressErr reports whether err is a benign consequence of
// querying random times while ingest races ahead: the window may be
// empty, already evicted, or (transiently mid-invalidation) coverless.
func expectedStressErr(err error) bool {
	return errors.Is(err, query.ErrOutOfWindow) || errors.Is(err, query.ErrNoCover)
}
