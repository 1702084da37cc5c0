package server

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/kmeans"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/tuple"
)

// BenchmarkEngineQueryBatch100 is the commuter's read: a 100-point route
// answered by an engine holding 7 days of 1-hour windows with every
// cover already built, so the batch pays dispatch, cover lookup and
// model evaluation only.
func BenchmarkEngineQueryBatch100(b *testing.B) {
	const days, hour = 7, 3600
	cfg := sim.DefaultLausanne(1)
	cfg.Duration = days * 24 * hour
	data, err := sim.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	st := store.MustOpenMemory(hour)
	if err := st.Append(data); err != nil {
		b.Fatal(err)
	}
	e := NewEngine(st, core.Config{Cluster: kmeans.Config{Seed: 1}})
	defer e.Close()
	mnt := defaultMaintainer(b, e)
	for _, c := range st.WindowIndexes() {
		if _, err := mnt.CoverFor(c); err != nil {
			b.Fatal(err)
		}
	}
	// Each iteration's route is 100 consecutive samples of the stream,
	// starting somewhere else in the week every time.
	reqs := make([]query.Request, 100)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := (i * 997) % (len(data) - len(reqs))
		for j := range reqs {
			r := data[from+j]
			reqs[j] = query.Request{T: r.T, X: r.X, Y: r.Y}
		}
		res, err := e.QueryBatch(ctx, reqs)
		if err != nil {
			b.Fatal(err)
		}
		if res[0].Err != nil {
			b.Fatal(res[0].Err)
		}
	}
}

// BenchmarkLiveWindowWriteRead is the bus gateway beside the commuter:
// two writers stream 64-tuple uploads into the live window of a warm
// engine (a window fills in 32 uploads, the store keeps 8) while one
// reader answers a 20-point route at the newest acknowledged time after
// each upload it sees acknowledged. One iteration is one upload. builds/write is the rebuild economy — how
// many background cover builds an upload costs once rebuilds are
// coalesced, single-flight and paced — and allocs/op carries them.
func BenchmarkLiveWindowWriteRead(b *testing.B) {
	const (
		batch      = 64
		perWindow  = 32 * batch
		windowLen  = 600.0
		dt         = windowLen / perWindow
		writers    = 2
		routeLen   = 20
		warmWindow = 4
	)
	st, err := store.Open(store.Config{WindowLength: windowLen, Retain: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	e, err := NewMultiEngineOpts(map[tuple.Pollutant]*store.Store{tuple.CO2: st},
		core.Config{Cluster: kmeans.Config{Seed: 1}}, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	// upload k is the k-th 64-tuple slice of one endless time-ordered
	// stream over a fixed field.
	upload := func(k int) tuple.Batch {
		rng := rand.New(rand.NewSource(int64(k)))
		out := make(tuple.Batch, batch)
		for i := range out {
			x, y := rng.Float64()*2000, rng.Float64()*2000
			out[i] = tuple.Raw{T: float64(k*batch+i) * dt, X: x, Y: y, S: 420 + 0.05*x + 0.02*y + rng.Float64()*5}
		}
		return out
	}
	ctx := context.Background()
	warm := warmWindow * perWindow / batch
	for k := 0; k < warm; k++ {
		if err := e.Ingest(ctx, tuple.CO2, upload(k)); err != nil {
			b.Fatal(err)
		}
	}
	e.Scheduler().Wait()
	built := e.SchedulerStats().Built

	var next, acked atomic.Int64
	next.Store(int64(warm))
	acked.Store(int64(warm - 1))
	done := make(chan struct{})
	tick := make(chan struct{}, 1)
	var wg, reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		reqs := make([]query.Request, routeLen)
		for {
			select {
			case <-done:
				return
			case <-tick: // at most one read per acknowledged upload
			}
			tm := float64(acked.Load()*batch) * dt
			for j := range reqs {
				reqs[j] = query.Request{T: tm, X: 100 * float64(j), Y: 90 * float64(j)}
			}
			if res, err := e.QueryBatch(ctx, reqs); err != nil || res[0].Err != nil {
				b.Errorf("live read at t=%v: %v %v", tm, err, res[0].Err)
				return
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := next.Add(1) - 1
				if k >= int64(warm+b.N) {
					return
				}
				if err := e.Ingest(ctx, tuple.CO2, upload(int(k))); err != nil {
					b.Error(err)
					return
				}
				for {
					seen := acked.Load()
					if k <= seen || acked.CompareAndSwap(seen, k) {
						break
					}
				}
				select {
				case tick <- struct{}{}:
				default:
				}
			}
		}()
	}
	wg.Wait()
	e.Scheduler().Wait()
	b.StopTimer()
	close(done)
	reader.Wait()
	b.ReportMetric(float64(e.SchedulerStats().Built-built)/float64(b.N), "builds/write")
}

// BenchmarkHTTPHeatmap64 is the web interface's heatmap (Fig. 5b): a
// 64×64 /v1/heatmap through API.ServeHTTP, the cover already built, so
// the request pays parameter parsing, the raster, the markers and the
// JSON encoding.
func BenchmarkHTTPHeatmap64(b *testing.B) {
	api, heat, _ := httpReadFixture(b)
	w := newSinkWriter()
	b.ReportAllocs()
	for b.Loop() {
		heat.serve(api, w)
	}
}

// BenchmarkHTTPContinuous100 is the continuous query mode: a 100-point
// route posted to /v1/query/continuous, decoded, answered as one batch
// and encoded.
func BenchmarkHTTPContinuous100(b *testing.B) {
	api, _, route := httpReadFixture(b)
	w := newSinkWriter()
	b.ReportAllocs()
	for b.Loop() {
		route.serve(api, w)
	}
}
