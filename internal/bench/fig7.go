package bench

import (
	"context"
	"fmt"
	"io"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/memsize"
	"repro/internal/netsim"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/store"
)

// Fig7aConfig parameterizes the memory experiment. Paper settings: a
// larger window of H = 5000 raw tuples, 10 independent runs averaged,
// measuring (a) the complete point set for naive, (b) the index structures
// for R-tree and VP-tree, and (c) the models for Ad-KMN.
type Fig7aConfig struct {
	H      int
	Runs   int
	Radius float64
	Tau    float64
	Seed   int64
}

// DefaultFig7aConfig returns the paper's settings.
func DefaultFig7aConfig() Fig7aConfig {
	return Fig7aConfig{H: 5000, Runs: 10, Radius: 1000, Tau: 0.02, Seed: 1}
}

// Fig7aResult holds mean retained bytes per method.
type Fig7aResult struct {
	H     int
	Runs  int
	Bytes map[Method]float64
	// CoverSizes records Ad-KMN's model count per run, for context.
	CoverSizes []int
}

// RunFig7a measures the deep memory footprint of each method's data
// structure over cfg.Runs windows drawn from different dataset offsets.
func RunFig7a(d *Dataset, cfg Fig7aConfig) (*Fig7aResult, error) {
	if cfg.Runs <= 0 {
		return nil, fmt.Errorf("bench: runs %d, want > 0", cfg.Runs)
	}
	if cfg.H > len(d.Data) {
		return nil, fmt.Errorf("bench: H=%d exceeds dataset size %d", cfg.H, len(d.Data))
	}
	res := &Fig7aResult{H: cfg.H, Runs: cfg.Runs, Bytes: make(map[Method]float64)}
	stride := (len(d.Data) - cfg.H) / cfg.Runs
	if stride < 1 {
		stride = 1
	}
	for run := 0; run < cfg.Runs; run++ {
		start := (run * stride) % (len(d.Data) - cfg.H + 1)
		w, err := d.WindowOfSize(start, cfg.H)
		if err != nil {
			return nil, err
		}

		// Each method is charged the full state it must retain to answer
		// queries: the naive method the complete set of points; the index
		// methods the points plus the index structure; the model cover
		// only centroids and coefficients. (The paper measured the Python
		// objects with Pympler; this is the Go equivalent.)
		res.Bytes[MethodNaive] += float64(memsize.Of(w))

		rt, err := query.NewRTree(w, cfg.Radius)
		if err != nil {
			return nil, err
		}
		res.Bytes[MethodRTree] += float64(memsize.Of(rt))

		vp, err := query.NewVPTree(w, cfg.Radius)
		if err != nil {
			return nil, err
		}
		res.Bytes[MethodVPTree] += float64(memsize.Of(vp))

		cv, err := core.BuildCover(w, 0, 1e18, PaperConfig(cfg.Tau, cfg.Seed+int64(run)))
		if err != nil {
			return nil, err
		}
		res.Bytes[MethodAdKMN] += float64(memsize.Of(cv))
		res.CoverSizes = append(res.CoverSizes, cv.Size())
	}
	for m := range res.Bytes {
		res.Bytes[m] /= float64(cfg.Runs)
	}
	return res, nil
}

// Ratio returns how many times more memory method m uses than Ad-KMN.
func (r *Fig7aResult) Ratio(m Method) float64 {
	ad := r.Bytes[MethodAdKMN]
	if ad <= 0 {
		return 0
	}
	return r.Bytes[m] / ad
}

// PrintFig7a writes the memory comparison (Figure 7a, log-scale in the
// paper).
func PrintFig7a(w io.Writer, r *Fig7aResult) {
	fmt.Fprintf(w, "# Figure 7(a): memory at H=%d, mean of %d runs\n", r.H, r.Runs)
	fmt.Fprintf(w, "%-10s %14s %12s\n", "method", "kilobytes", "vs ad-kmn")
	for _, m := range []Method{MethodAdKMN, MethodNaive, MethodRTree, MethodVPTree} {
		fmt.Fprintf(w, "%-10s %14.2f %11.1fx\n", m, r.Bytes[m]/1024, r.Ratio(m))
	}
}

// Fig7bConfig parameterizes the bandwidth experiment. Paper settings: a
// continuous query of 100 query tuples; measure total bytes transmitted
// and received by the mobile device and total time to complete the query.
type Fig7bConfig struct {
	// NumQueries is the continuous query length (paper: 100).
	NumQueries int
	// QueryIntervalSeconds is the uniform |t_{l+1} − t_l| spacing of the
	// mobile object's updates.
	QueryIntervalSeconds float64
	// WindowSeconds is the store's H in stream time.
	WindowSeconds float64
	// Link is the simulated bearer.
	Link netsim.LinkConfig
	// Tau is τn.
	Tau  float64
	Seed int64
}

// DefaultFig7bConfig returns the paper's settings over simulated GPRS.
// The window spans the whole continuous query, matching
// the paper's setup where the model cover stays valid across the 100
// tuples (the savings come precisely from not re-contacting the server).
func DefaultFig7bConfig() Fig7bConfig {
	return Fig7bConfig{
		NumQueries:           100,
		QueryIntervalSeconds: 60,
		WindowSeconds:        4 * 3600,
		Link:                 netsim.GPRS(),
		Tau:                  0.02,
		Seed:                 1,
	}
}

// Fig7bArm is one strategy's measurements.
type Fig7bArm struct {
	Strategy      string
	SentBytes     int64
	ReceivedBytes int64
	TotalSeconds  float64
	Exchanges     int64
}

// Fig7bResult compares the two arms.
type Fig7bResult struct {
	Baseline   Fig7bArm
	ModelCache Fig7bArm
}

// SentRatio returns baseline sent bytes / model-cache sent bytes.
func (r *Fig7bResult) SentRatio() float64 {
	if r.ModelCache.SentBytes == 0 {
		return 0
	}
	return float64(r.Baseline.SentBytes) / float64(r.ModelCache.SentBytes)
}

// ReceivedRatio returns baseline received / model-cache received.
func (r *Fig7bResult) ReceivedRatio() float64 {
	if r.ModelCache.ReceivedBytes == 0 {
		return 0
	}
	return float64(r.Baseline.ReceivedBytes) / float64(r.ModelCache.ReceivedBytes)
}

// TimeRatio returns baseline time / model-cache time.
func (r *Fig7bResult) TimeRatio() float64 {
	if r.ModelCache.TotalSeconds == 0 {
		return 0
	}
	return r.Baseline.TotalSeconds / r.ModelCache.TotalSeconds
}

// RunFig7b runs the bandwidth experiment: the same mobile trajectory and
// query stream through both strategies, over fresh identical links.
func RunFig7b(ctx context.Context, d *Dataset, cfg Fig7bConfig) (*Fig7bResult, error) {
	if cfg.NumQueries <= 0 {
		return nil, fmt.Errorf("bench: NumQueries %d, want > 0", cfg.NumQueries)
	}
	// Stand up a server over the dataset.
	st, err := store.Open(store.Config{WindowLength: cfg.WindowSeconds})
	if err != nil {
		return nil, err
	}
	if err := st.Append(d.Data); err != nil {
		return nil, err
	}
	eng := server.NewEngine(st, PaperConfig(cfg.Tau, cfg.Seed))
	defer eng.Close() // stop the pipeline/scheduler goroutines per run

	// The mobile object rides along the first bus route, one query per
	// interval, starting inside the second window so models exist.
	route := d.Cfg.Vehicles[0].Route
	t0 := cfg.WindowSeconds
	qs := make([]query.Request, cfg.NumQueries)
	for i := range qs {
		t := t0 + float64(i)*cfg.QueryIntervalSeconds
		pos := route.AtLoop(5.0 * (t - t0)) // walking/driving pace 5 m/s
		qs[i] = query.Request{T: t, X: pos.X, Y: pos.Y}
	}

	runArm := func(mk func(cluster.Transport) client.Strategy) (Fig7bArm, error) {
		link, err := netsim.NewLink(cfg.Link)
		if err != nil {
			return Fig7bArm{}, err
		}
		tr := &client.LinkTransport{Link: link, Handler: eng}
		s := mk(tr)
		if _, err := client.RunContinuousCtx(ctx, s, qs); err != nil {
			return Fig7bArm{}, err
		}
		stats := link.Stats()
		return Fig7bArm{
			Strategy:      s.Name(),
			SentBytes:     stats.SentBytes,
			ReceivedBytes: stats.ReceivedBytes,
			TotalSeconds:  stats.SimSeconds,
			Exchanges:     stats.Exchanges,
		}, nil
	}

	base, err := runArm(func(t cluster.Transport) client.Strategy { return client.NewBaseline(t) })
	if err != nil {
		return nil, fmt.Errorf("bench: baseline arm: %w", err)
	}
	mc, err := runArm(func(t cluster.Transport) client.Strategy { return client.NewModelCache(t) })
	if err != nil {
		return nil, fmt.Errorf("bench: model-cache arm: %w", err)
	}
	return &Fig7bResult{Baseline: base, ModelCache: mc}, nil
}

// PrintFig7b writes the bandwidth comparison (Figure 7b, log-scale in the
// paper, annotated with the ratios).
func PrintFig7b(w io.Writer, r *Fig7bResult) {
	fmt.Fprintln(w, "# Figure 7(b): bandwidth optimization, 100-tuple continuous query")
	fmt.Fprintf(w, "%-14s %14s %14s %14s %10s\n",
		"strategy", "sent (kb)", "received (kb)", "time (sec)", "exchanges")
	for _, arm := range []Fig7bArm{r.Baseline, r.ModelCache} {
		fmt.Fprintf(w, "%-14s %14.2f %14.2f %14.2f %10d\n",
			arm.Strategy,
			float64(arm.SentBytes)/1024,
			float64(arm.ReceivedBytes)/1024,
			arm.TotalSeconds,
			arm.Exchanges)
	}
	fmt.Fprintf(w, "ratios: sent %.0fx, received %.0fx, time %.0fx (paper: 113x, 31x, 100x)\n",
		r.SentRatio(), r.ReceivedRatio(), r.TimeRatio())
}
