package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/query"
	"repro/internal/regress"
	"repro/internal/wire"
)

// This file implements the ablation experiments DESIGN.md §4 calls out:
// they isolate the contribution of each design choice in the paper's
// system (adaptivity, model family, wire codec, index tuning).

// AblationCoverRow compares cover-construction strategies on one window.
type AblationCoverRow struct {
	Strategy  string
	Models    int
	MeanErr   float64 // tuple-weighted mean approximation error (fraction)
	MaxErr    float64
	NRMSE     float64 // against ground truth on a workload
	BuildTime time.Duration
}

// RunAblationCovers compares Ad-KMN against fixed-k k-means (at several k)
// and uniform grids (at several resolutions) on the same window and
// workload — quantifying what the paper's adaptivity buys.
func RunAblationCovers(d *Dataset, h int, numQueries int, seed int64) ([]AblationCoverRow, error) {
	start := len(d.Data) / 3
	if start+h > len(d.Data) {
		start = len(d.Data) - h
	}
	w, err := d.WindowOfSize(start, h)
	if err != nil {
		return nil, err
	}
	wl, err := d.MakeWorkload(w, numQueries, 300, seed)
	if err != nil {
		return nil, err
	}
	ccfg := PaperConfig(0, seed)

	type builder struct {
		name string
		mk   func() (*core.Cover, error)
	}
	builders := []builder{
		{"ad-kmn", func() (*core.Cover, error) { return core.BuildCover(w, 0, 1e18, ccfg) }},
		{"fixed-k2", func() (*core.Cover, error) { return core.BuildFixedKCover(w, 0, 1e18, 2, ccfg) }},
		{"fixed-k8", func() (*core.Cover, error) { return core.BuildFixedKCover(w, 0, 1e18, 8, ccfg) }},
		{"fixed-k32", func() (*core.Cover, error) { return core.BuildFixedKCover(w, 0, 1e18, 32, ccfg) }},
		{"grid-3x3", func() (*core.Cover, error) { return core.BuildGridCover(w, 0, 1e18, 3, ccfg) }},
		{"grid-6x6", func() (*core.Cover, error) { return core.BuildGridCover(w, 0, 1e18, 6, ccfg) }},
	}
	rows := make([]AblationCoverRow, 0, len(builders))
	for _, b := range builders {
		t0 := time.Now()
		cv, err := b.mk()
		if err != nil {
			return nil, fmt.Errorf("bench: ablation %s: %w", b.name, err)
		}
		build := time.Since(t0)
		p, err := query.NewCover(cv)
		if err != nil {
			return nil, err
		}
		_, est, _ := timeQueries(p, wl, w)
		nrmse, err := eval.NRMSE(est, wl.Truth)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationCoverRow{
			Strategy:  b.name,
			Models:    cv.Size(),
			MeanErr:   cv.MeanApproxError(),
			MaxErr:    cv.MaxApproxError(),
			NRMSE:     nrmse,
			BuildTime: build,
		})
	}
	return rows, nil
}

// PrintAblationCovers renders the cover-strategy ablation.
func PrintAblationCovers(w io.Writer, rows []AblationCoverRow) {
	fmt.Fprintln(w, "# Ablation: Ad-KMN vs fixed-k vs uniform grid")
	fmt.Fprintf(w, "%-10s %8s %12s %12s %10s %12s\n",
		"strategy", "models", "mean-err-%", "max-err-%", "NRMSE-%", "build")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8d %12.2f %12.2f %10.2f %12v\n",
			r.Strategy, r.Models, 100*r.MeanErr, 100*r.MaxErr, r.NRMSE, r.BuildTime.Round(time.Microsecond))
	}
}

// AblationModelRow compares per-region model families.
type AblationModelRow struct {
	Family string
	Models int
	NRMSE  float64
	// PayloadBytes is the binary model-cache payload size with this
	// family — richer models cost more bandwidth.
	PayloadBytes int
}

// RunAblationModelFamily rebuilds the Ad-KMN cover with each feature
// family and measures accuracy and model-cache payload size.
func RunAblationModelFamily(d *Dataset, h int, numQueries int, seed int64) ([]AblationModelRow, error) {
	start := len(d.Data) / 3
	if start+h > len(d.Data) {
		start = len(d.Data) - h
	}
	w, err := d.WindowOfSize(start, h)
	if err != nil {
		return nil, err
	}
	wl, err := d.MakeWorkload(w, numQueries, 300, seed)
	if err != nil {
		return nil, err
	}
	families := []regress.Features{
		regress.Constant, regress.LinearT, regress.LinearXY, regress.LinearXYT,
		regress.QuadraticXY,
	}
	rows := make([]AblationModelRow, 0, len(families))
	for _, f := range families {
		cfg := PaperConfig(0, seed)
		cfg.Features = f
		cv, err := core.BuildCover(w, 0, 1e18, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: family %s: %w", f.Name(), err)
		}
		p, err := query.NewCover(cv)
		if err != nil {
			return nil, err
		}
		_, est, _ := timeQueries(p, wl, w)
		nrmse, err := eval.NRMSE(est, wl.Truth)
		if err != nil {
			return nil, err
		}
		resp, err := wire.ModelResponseFromCover(cv)
		if err != nil {
			return nil, err
		}
		data, err := wire.Binary.Encode(resp)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationModelRow{
			Family:       f.Name(),
			Models:       cv.Size(),
			NRMSE:        nrmse,
			PayloadBytes: len(data),
		})
	}
	return rows, nil
}

// PrintAblationModelFamily renders the model-family ablation.
func PrintAblationModelFamily(w io.Writer, rows []AblationModelRow) {
	fmt.Fprintln(w, "# Ablation: per-region model family")
	fmt.Fprintf(w, "%-14s %8s %10s %14s\n", "family", "models", "NRMSE-%", "payload (B)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %8d %10.2f %14d\n", r.Family, r.Models, r.NRMSE, r.PayloadBytes)
	}
}

// AblationCodecRow compares wire codecs on the model-cache payload.
type AblationCodecRow struct {
	Codec         string
	ModelRespByte int
	QueryReqByte  int
	QueryRespByte int
}

// RunAblationCodec measures message sizes under both codecs for a real
// cover.
func RunAblationCodec(d *Dataset, h int, seed int64) ([]AblationCodecRow, error) {
	start := len(d.Data) / 3
	if start+h > len(d.Data) {
		start = len(d.Data) - h
	}
	w, err := d.WindowOfSize(start, h)
	if err != nil {
		return nil, err
	}
	cv, err := core.BuildCover(w, 0, 1e18, PaperConfig(0, seed))
	if err != nil {
		return nil, err
	}
	resp, err := wire.ModelResponseFromCover(cv)
	if err != nil {
		return nil, err
	}
	// The JSON arm is encoding/json over the same three structs — what a
	// self-describing text protocol would put on the link.
	codecs := []struct {
		name   string
		encode func(wire.Message) ([]byte, error)
	}{
		{"binary", wire.Binary.Encode},
		{"json", func(m wire.Message) ([]byte, error) { return json.Marshal(m) }},
	}
	msgs := []wire.Message{resp, wire.QueryRequest{T: 1, X: 2, Y: 3}, wire.QueryResponse{Value: 512.5}}
	rows := make([]AblationCodecRow, 0, len(codecs))
	for _, codec := range codecs {
		var sizes [3]int
		for i, m := range msgs {
			enc, err := codec.encode(m)
			if err != nil {
				return nil, err
			}
			sizes[i] = len(enc)
		}
		rows = append(rows, AblationCodecRow{
			Codec:         codec.name,
			ModelRespByte: sizes[0],
			QueryReqByte:  sizes[1],
			QueryRespByte: sizes[2],
		})
	}
	return rows, nil
}

// PrintAblationCodec renders the codec ablation.
func PrintAblationCodec(w io.Writer, rows []AblationCodecRow) {
	fmt.Fprintln(w, "# Ablation: wire codec message sizes")
	fmt.Fprintf(w, "%-8s %16s %14s %15s\n", "codec", "model resp (B)", "query req (B)", "query resp (B)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %16d %14d %15d\n", r.Codec, r.ModelRespByte, r.QueryReqByte, r.QueryRespByte)
	}
}

// AblationIndexRow measures index query time vs tuning parameter.
type AblationIndexRow struct {
	Index   string
	Param   int // R-tree fan-out (VP-tree has no tuning knob here)
	Elapsed time.Duration
}

// RunAblationIndexTuning sweeps the R-tree fan-out, verifying the baseline
// indexes are competently tuned (a fairness check on Figure 6a).
func RunAblationIndexTuning(d *Dataset, h, numQueries int, radius float64, seed int64) ([]AblationIndexRow, error) {
	start := len(d.Data) / 3
	if start+h > len(d.Data) {
		start = len(d.Data) - h
	}
	w, err := d.WindowOfSize(start, h)
	if err != nil {
		return nil, err
	}
	wl, err := d.MakeWorkload(w, numQueries, 300, seed)
	if err != nil {
		return nil, err
	}
	var rows []AblationIndexRow
	for _, fanout := range []int{4, 8, 16, 32, 64} {
		p, err := query.NewRTreeFanout(w, radius, fanout)
		if err != nil {
			return nil, err
		}
		elapsed, _, _ := timeQueries(p, wl, w)
		rows = append(rows, AblationIndexRow{Index: "r-tree", Param: fanout, Elapsed: elapsed})
	}
	vp, err := query.NewVPTree(w, radius)
	if err != nil {
		return nil, err
	}
	elapsed, _, _ := timeQueries(vp, wl, w)
	rows = append(rows, AblationIndexRow{Index: "vp-tree", Param: 0, Elapsed: elapsed})
	return rows, nil
}

// PrintAblationIndexTuning renders the index-tuning ablation.
func PrintAblationIndexTuning(w io.Writer, rows []AblationIndexRow) {
	fmt.Fprintln(w, "# Ablation: index tuning (R-tree fan-out sweep)")
	fmt.Fprintf(w, "%-10s %8s %14s\n", "index", "param", "elapsed")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8d %14v\n", r.Index, r.Param, r.Elapsed.Round(time.Microsecond))
	}
}
