package repro

// One testing.B benchmark per figure of the paper's evaluation, plus the
// ablation benches DESIGN.md calls out. Non-timing quantities (NRMSE,
// retained bytes, bandwidth ratios) are emitted with b.ReportMetric so
// `go test -bench` regenerates every number the paper plots.

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/store"
	"repro/internal/tuple"
)

// benchDataset caches the synthetic deployment across benchmarks.
var benchDataset *bench.Dataset

func loadBenchDataset(b *testing.B) *bench.Dataset {
	b.Helper()
	if benchDataset == nil {
		d, err := bench.LoadDataset(1, 4*86400)
		if err != nil {
			b.Fatal(err)
		}
		benchDataset = d
	}
	return benchDataset
}

// BenchmarkFig6aEfficiency times one point query per method per window
// size — the quantity Figure 6(a) plots (there as 5000-query batches).
func BenchmarkFig6aEfficiency(b *testing.B) {
	d := loadBenchDataset(b)
	for _, h := range []int{40, 240} {
		w, err := d.WindowOfSize(len(d.Data)/3, h)
		if err != nil {
			b.Fatal(err)
		}
		wl, err := d.MakeWorkload(w, 1024, 150, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range bench.AllMethods {
			p, err := bench.BuildProcessor(m, w, 1000, 0.02, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(string(m)+"/H="+itoa(h), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					q := wl.Queries[i%len(wl.Queries)]
					if _, err := p.Interpolate(q); err != nil {
						// Queries with no data in radius are part of the
						// workload; they cost a full scan too.
						continue
					}
				}
			})
		}
	}
}

// BenchmarkFig6bAccuracy reports NRMSE per method per window size — the
// series of Figure 6(b).
func BenchmarkFig6bAccuracy(b *testing.B) {
	d := loadBenchDataset(b)
	cfg := bench.DefaultFig6Config()
	cfg.NumQueries = 2000
	cfg.WindowSizes = []int{40, 240}
	rows, err := bench.RunFig6(d, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range rows {
		row := row
		for _, m := range []bench.Method{bench.MethodAdKMN, bench.MethodNaive} {
			m := m
			b.Run(string(m)+"/H="+itoa(row.H), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = row // the measurement is precomputed; report it
				}
				b.ReportMetric(row.NRMSE[m], "NRMSE-%")
			})
		}
	}
}

// BenchmarkFig7aMemory reports the retained bytes per method at H=5000 —
// Figure 7(a).
func BenchmarkFig7aMemory(b *testing.B) {
	d := loadBenchDataset(b)
	cfg := bench.DefaultFig7aConfig()
	cfg.Runs = 3
	res, err := bench.RunFig7a(d, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []bench.Method{bench.MethodAdKMN, bench.MethodNaive, bench.MethodRTree, bench.MethodVPTree} {
		m := m
		b.Run(string(m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = res
			}
			b.ReportMetric(res.Bytes[m]/1024, "KB")
			b.ReportMetric(res.Ratio(m), "x-vs-adkmn")
		})
	}
}

// BenchmarkFig7bBandwidth reports the bandwidth experiment's three ratios
// — Figure 7(b).
func BenchmarkFig7bBandwidth(b *testing.B) {
	d := loadBenchDataset(b)
	var res *bench.Fig7bResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = bench.RunFig7b(context.Background(), d, bench.DefaultFig7bConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.SentRatio(), "sent-ratio")
	b.ReportMetric(res.ReceivedRatio(), "recv-ratio")
	b.ReportMetric(res.TimeRatio(), "time-ratio")
}

// BenchmarkAblationFixedK compares Ad-KMN against the fixed-k and grid
// covers (DESIGN.md ablations 1 and 2).
func BenchmarkAblationFixedK(b *testing.B) {
	d := loadBenchDataset(b)
	var rows []bench.AblationCoverRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = bench.RunAblationCovers(d, 2000, 500, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Strategy == "ad-kmn" || r.Strategy == "fixed-k8" || r.Strategy == "grid-6x6" {
			b.ReportMetric(r.NRMSE, r.Strategy+"-NRMSE-%")
		}
	}
}

// BenchmarkAblationModelFamily reports accuracy and payload per model
// family (DESIGN.md ablation 3).
func BenchmarkAblationModelFamily(b *testing.B) {
	d := loadBenchDataset(b)
	var rows []bench.AblationModelRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = bench.RunAblationModelFamily(d, 2000, 500, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.NRMSE, r.Family+"-NRMSE-%")
	}
}

// BenchmarkAblationCodec reports model-payload sizes per codec (DESIGN.md
// ablation 4).
func BenchmarkAblationCodec(b *testing.B) {
	d := loadBenchDataset(b)
	var rows []bench.AblationCodecRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = bench.RunAblationCodec(d, 2000, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.ModelRespByte), r.Codec+"-model-bytes")
	}
}

// BenchmarkAblationIndexTuning sweeps R-tree fan-out (DESIGN.md ablation
// 5), verifying the Figure 6(a) baselines are competently tuned.
func BenchmarkAblationIndexTuning(b *testing.B) {
	d := loadBenchDataset(b)
	var rows []bench.AblationIndexRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = bench.RunAblationIndexTuning(d, 2000, 300, 1000, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		name := r.Index
		if r.Param > 0 {
			name += "-M" + itoa(r.Param)
		}
		b.ReportMetric(r.Elapsed.Seconds()*1000, name+"-ms")
	}
}

// BenchmarkQueryBatch measures batch execution on a 2 048-point batch
// spanning several modeling windows, on warm covers.
func BenchmarkQueryBatch(b *testing.B) {
	p, err := Open(Config{WindowSeconds: 3600})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	readings, err := SimulateLausanne(3, 6*3600) // six windows of data
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if err := p.Ingest(ctx, CO2, readings); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	reqs := make([]Request, 2048)
	for i := range reqs {
		reqs[i] = Request{
			T: rng.Float64() * 6 * 3600,
			X: rng.Float64() * 2000,
			Y: rng.Float64() * 2000,
		}
	}
	// Warm the covers once, so the loop measures steady-state batch
	// execution, not cold builds.
	if _, err := p.QueryBatch(ctx, reqs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.QueryBatch(ctx, reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestThroughput measures durable append throughput under the
// two sync policies with concurrent appenders: SyncEveryBatch pays one
// fsync per batch, SyncNever is the no-durability ceiling. The
// syncs-per-append ratio is reported alongside the timing.
func BenchmarkIngestThroughput(b *testing.B) {
	policies := []struct {
		name   string
		policy store.SyncPolicy
	}{
		{"SyncEveryBatch", store.SyncEveryBatch()},
		{"SyncNever", store.SyncNever()},
	}
	const batchSize = 32
	for _, pc := range policies {
		pc := pc
		b.Run(pc.name, func(b *testing.B) {
			st, err := store.Open(store.Config{
				WindowLength: 3600,
				Retain:       4, // bound memory under long -benchtime runs
				Dir:          b.TempDir(),
				Sync:         pc.policy,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			var windowSeq atomic.Int64
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					c := windowSeq.Add(1) % 4
					batch := make(tuple.Batch, batchSize)
					for i := range batch {
						batch[i] = tuple.Raw{
							T: float64(c)*3600 + float64(i),
							X: float64(i), Y: 1, S: 420,
						}
					}
					if err := st.Append(batch); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.StopTimer()
			ds := st.DurabilityStats()
			if ds.Appends > 0 {
				b.ReportMetric(float64(ds.Syncs)/float64(ds.Appends), "syncs/append")
			}
			b.SetBytes(int64(batchSize * 33)) // approx frame payload
		})
	}
}

// BenchmarkQueryAfterIngest measures the cold-cover query latency the
// scheduler removes from the query path: each iteration invalidates the
// window's cover (as late-arriving ingest would), then queries. With the
// scheduler, the rebuild happens in the background before the query;
// without it (Workers: -1), the query pays the full Ad-KMN build.
func BenchmarkQueryAfterIngest(b *testing.B) {
	modes := []struct {
		name    string
		workers int
	}{
		{"scheduler", 0},
		{"noscheduler", -1},
	}
	for _, mode := range modes {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			p, err := Open(Config{
				WindowSeconds: 3600,
				Maintenance:   SchedulerConfig{Workers: mode.workers},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			readings, err := SimulateLausanne(5, 3600)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			if err := p.Ingest(ctx, CO2, readings); err != nil {
				b.Fatal(err)
			}
			req := Request{T: 1800, X: 1200, Y: 800}
			mnt, err := p.engine.MaintainerFor(p.engine.Default())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				mnt.Invalidate(0)   // late data arrived
				p.WaitMaintenance() // no-op without the scheduler
				b.StartTimer()
				if _, err := p.Query(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// itoa avoids importing strconv into the benchmark file repeatedly.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
