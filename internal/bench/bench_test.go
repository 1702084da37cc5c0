package bench

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
)

// smallDataset generates a 2-day deployment (~11.5K tuples), enough for
// every experiment at test scale.
func smallDataset(t *testing.T) *Dataset {
	t.Helper()
	d, err := LoadDataset(1, 2*86400)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestLoadDataset(t *testing.T) {
	d := smallDataset(t)
	if len(d.Data) < 10000 {
		t.Fatalf("dataset too small: %d", len(d.Data))
	}
	if !d.Data.SortedByTime() {
		t.Error("dataset not time sorted")
	}
}

func TestWindowOfSize(t *testing.T) {
	d := smallDataset(t)
	w, err := d.WindowOfSize(100, 240)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 240 {
		t.Fatalf("window = %d tuples", len(w))
	}
	if _, err := d.WindowOfSize(-1, 10); err == nil {
		t.Error("negative start should error")
	}
	if _, err := d.WindowOfSize(0, 0); err == nil {
		t.Error("zero size should error")
	}
	if _, err := d.WindowOfSize(len(d.Data), 10); err == nil {
		t.Error("past-end window should error")
	}
}

func TestMakeWorkload(t *testing.T) {
	d := smallDataset(t)
	w, err := d.WindowOfSize(0, 200)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := d.MakeWorkload(w, 500, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(wl.Queries) != 500 || len(wl.Truth) != 500 {
		t.Fatalf("workload sizes %d/%d", len(wl.Queries), len(wl.Truth))
	}
	tMin, tMax, _ := w.TimeSpan()
	for i, q := range wl.Queries {
		if q.T < tMin || q.T > tMax {
			t.Fatalf("query %d time %v outside window [%v,%v]", i, q.T, tMin, tMax)
		}
		if wl.Truth[i] < 250 || wl.Truth[i] > 6000 {
			t.Fatalf("truth %d = %v implausible", i, wl.Truth[i])
		}
	}
	if _, err := d.MakeWorkload(nil, 10, 300, 1); err == nil {
		t.Error("empty window should error")
	}
	if _, err := d.MakeWorkload(w, 0, 300, 1); err == nil {
		t.Error("zero queries should error")
	}
}

func TestRunFig6ShapeHolds(t *testing.T) {
	d := smallDataset(t)
	cfg := DefaultFig6Config()
	cfg.NumQueries = 1000 // keep the unit test quick
	cfg.WindowSizes = []int{40, 120, 240}
	rows, err := RunFig6(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Efficiency shape (Fig 6a): the model cover is the fastest method,
		// the naive scan the slowest of the raw methods at larger H.
		if r.Elapsed[MethodAdKMN] <= 0 {
			t.Fatalf("H=%d: zero elapsed for ad-kmn", r.H)
		}
		if r.Speedup(MethodNaive) < 1 {
			t.Errorf("H=%d: ad-kmn (%v) not faster than naive (%v)",
				r.H, r.Elapsed[MethodAdKMN], r.Elapsed[MethodNaive])
		}
		// Accuracy shape (Fig 6b): the model cover beats averaging.
		if r.NRMSE[MethodAdKMN] >= r.NRMSE[MethodNaive] {
			t.Errorf("H=%d: ad-kmn NRMSE %.2f not below naive %.2f",
				r.H, r.NRMSE[MethodAdKMN], r.NRMSE[MethodNaive])
		}
		// Index methods return the same estimates as naive (identical
		// semantics; tiny float tolerance because visit order changes the
		// summation rounding).
		if math.Abs(r.NRMSE[MethodRTree]-r.NRMSE[MethodNaive]) > 1e-6 ||
			math.Abs(r.NRMSE[MethodVPTree]-r.NRMSE[MethodNaive]) > 1e-6 {
			t.Errorf("H=%d: index NRMSE differs from naive", r.H)
		}
		if r.CoverSize <= 0 {
			t.Errorf("H=%d: cover size not recorded", r.H)
		}
	}
	// Naive elapsed must grow with H (it is O(H) per query).
	if rows[2].Elapsed[MethodNaive] <= rows[0].Elapsed[MethodNaive] {
		t.Errorf("naive elapsed did not grow with H: %v -> %v",
			rows[0].Elapsed[MethodNaive], rows[2].Elapsed[MethodNaive])
	}
	var buf bytes.Buffer
	PrintFig6a(&buf, rows)
	PrintFig6b(&buf, rows)
	out := buf.String()
	if !strings.Contains(out, "Figure 6(a)") || !strings.Contains(out, "Figure 6(b)") {
		t.Error("print output missing headers")
	}
}

func TestRunFig7aShapeHolds(t *testing.T) {
	d := smallDataset(t)
	cfg := DefaultFig7aConfig()
	cfg.Runs = 3 // keep the unit test quick
	res, err := RunFig7a(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ad := res.Bytes[MethodAdKMN]
	naive := res.Bytes[MethodNaive]
	rt := res.Bytes[MethodRTree]
	vp := res.Bytes[MethodVPTree]
	// Paper ordering: models ≪ raw points < R-tree < VP-tree.
	if !(ad < naive && naive < rt && rt < vp) {
		t.Errorf("memory ordering violated: ad=%v naive=%v rtree=%v vptree=%v",
			ad, naive, rt, vp)
	}
	// The headline claim: the model cover dramatically reduces memory.
	if res.Ratio(MethodNaive) < 3 {
		t.Errorf("naive/ad-kmn ratio = %.1f, want ≥ 3", res.Ratio(MethodNaive))
	}
	if len(res.CoverSizes) != cfg.Runs {
		t.Errorf("cover sizes recorded for %d runs, want %d", len(res.CoverSizes), cfg.Runs)
	}
	var buf bytes.Buffer
	PrintFig7a(&buf, res)
	if !strings.Contains(buf.String(), "Figure 7(a)") {
		t.Error("print output missing header")
	}
	// Config validation.
	if _, err := RunFig7a(d, Fig7aConfig{H: 100, Runs: 0}); err == nil {
		t.Error("zero runs should error")
	}
	if _, err := RunFig7a(d, Fig7aConfig{H: len(d.Data) + 1, Runs: 1}); err == nil {
		t.Error("oversize H should error")
	}
}

func TestRunFig7bShapeHolds(t *testing.T) {
	d := smallDataset(t)
	res, err := RunFig7b(context.Background(), d, DefaultFig7bConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The baseline does one exchange per query tuple; the model-cache does
	// one or two in total (the 100-minute query may cross one window edge).
	if res.Baseline.Exchanges != 100 {
		t.Errorf("baseline exchanges = %d, want 100", res.Baseline.Exchanges)
	}
	if res.ModelCache.Exchanges > 2 {
		t.Errorf("model-cache exchanges = %d, want ≤ 2", res.ModelCache.Exchanges)
	}
	// Two-orders-of-magnitude shape from the paper (113x sent, 31x
	// received, 100x time): require at least ~one-and-a-half orders.
	if res.SentRatio() < 30 {
		t.Errorf("sent ratio = %.1f, want ≥ 30", res.SentRatio())
	}
	if res.ReceivedRatio() < 5 {
		t.Errorf("received ratio = %.1f, want ≥ 5", res.ReceivedRatio())
	}
	if res.TimeRatio() < 30 {
		t.Errorf("time ratio = %.1f, want ≥ 30", res.TimeRatio())
	}
	var buf bytes.Buffer
	PrintFig7b(&buf, res)
	if !strings.Contains(buf.String(), "Figure 7(b)") {
		t.Error("print output missing header")
	}
	if _, err := RunFig7b(context.Background(), d, Fig7bConfig{}); err == nil {
		t.Error("zero queries should error")
	}
}

func TestRunAblationCovers(t *testing.T) {
	d := smallDataset(t)
	rows, err := RunAblationCovers(d, 2000, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	byName := map[string]AblationCoverRow{}
	for _, r := range rows {
		byName[r.Strategy] = r
	}
	// Ad-KMN must beat the un-adaptive k=2 baseline on fit error.
	if byName["ad-kmn"].MeanErr >= byName["fixed-k2"].MeanErr {
		t.Errorf("ad-kmn mean err %.4f not below fixed-k2 %.4f",
			byName["ad-kmn"].MeanErr, byName["fixed-k2"].MeanErr)
	}
	var buf bytes.Buffer
	PrintAblationCovers(&buf, rows)
	if !strings.Contains(buf.String(), "ad-kmn") {
		t.Error("print output incomplete")
	}
}

func TestRunAblationModelFamily(t *testing.T) {
	d := smallDataset(t)
	rows, err := RunAblationModelFamily(d, 2000, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	for _, r := range rows {
		if r.PayloadBytes <= 0 || r.Models <= 0 {
			t.Errorf("family %s: payload=%d models=%d", r.Family, r.PayloadBytes, r.Models)
		}
	}
	var buf bytes.Buffer
	PrintAblationModelFamily(&buf, rows)
	if !strings.Contains(buf.String(), "linear-xyt") {
		t.Error("print output incomplete")
	}
}

func TestRunAblationCodec(t *testing.T) {
	d := smallDataset(t)
	rows, err := RunAblationCodec(d, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	var bin, js AblationCodecRow
	for _, r := range rows {
		if r.Codec == "binary" {
			bin = r
		} else {
			js = r
		}
	}
	if bin.ModelRespByte >= js.ModelRespByte {
		t.Errorf("binary model response %dB not smaller than JSON %dB",
			bin.ModelRespByte, js.ModelRespByte)
	}
	var buf bytes.Buffer
	PrintAblationCodec(&buf, rows)
	if !strings.Contains(buf.String(), "binary") {
		t.Error("print output incomplete")
	}
}

func TestRunAblationIndexTuning(t *testing.T) {
	d := smallDataset(t)
	rows, err := RunAblationIndexTuning(d, 2000, 300, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 5 fan-outs + vp-tree
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Elapsed <= 0 {
			t.Errorf("%s param %d: zero elapsed", r.Index, r.Param)
		}
	}
	var buf bytes.Buffer
	PrintAblationIndexTuning(&buf, rows)
	if !strings.Contains(buf.String(), "vp-tree") {
		t.Error("print output incomplete")
	}
}
