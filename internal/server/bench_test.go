package server

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/kmeans"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/store"
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
	for _, c := range st.WindowIndexes() {
		if _, err := e.Maintainer().CoverFor(c); err != nil {
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
