package bench

// The figure drivers' non-timing columns, pinned: what
// `go run ./cmd/envirometer-bench -fig all -days 1 -queries 200 -seed 1`
// prints apart from elapsed and build times — accuracy, cover sizes,
// misses, retained bytes and payload sizes — must equal a checked-in
// golden. Re-record with
//
//	go test -run TestFigureColumnsGolden -update-figures ./internal/bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"
)

var updateFigures = flag.Bool("update-figures", false, "re-record testdata/figures.golden")

const figuresGolden = "testdata/figures.golden"

// figureColumns runs Figures 6 and 7a and the ablations as the CI figure
// step does (one simulated day, 200 queries, seed 1) and renders every
// column that does not measure time.
func figureColumns(t *testing.T) []byte {
	t.Helper()
	const (
		seed    = 1
		queries = 200
	)
	d, err := LoadDataset(seed, 86400)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "dataset %d tuples\n", len(d.Data))

	cfg6 := DefaultFig6Config()
	cfg6.NumQueries, cfg6.Seed, cfg6.Repeats = queries, seed, 1
	rows, err := RunFig6(d, cfg6)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "fig6 H=%d cover=%d", r.H, r.CoverSize)
		for _, m := range AllMethods {
			fmt.Fprintf(&b, " %s:nrmse=%.6g,misses=%d", m, r.NRMSE[m], r.Misses[m])
		}
		b.WriteByte('\n')
	}

	cfg7 := DefaultFig7aConfig()
	cfg7.Seed = seed
	res, err := RunFig7a(d, cfg7)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "fig7a H=%d runs=%d covers=%v", res.H, res.Runs, res.CoverSizes)
	for _, m := range AllMethods {
		fmt.Fprintf(&b, " %s:bytes=%.6g", m, res.Bytes[m])
	}
	b.WriteByte('\n')

	covers, err := RunAblationCovers(d, 2000, queries, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range covers {
		fmt.Fprintf(&b, "ablation-covers %s models=%d mean=%.6g max=%.6g nrmse=%.6g\n", r.Strategy, r.Models, r.MeanErr, r.MaxErr, r.NRMSE)
	}
	families, err := RunAblationModelFamily(d, 2000, queries, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range families {
		fmt.Fprintf(&b, "ablation-family %s models=%d nrmse=%.6g payload=%d\n", r.Family, r.Models, r.NRMSE, r.PayloadBytes)
	}
	codecs, err := RunAblationCodec(d, 2000, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range codecs {
		fmt.Fprintf(&b, "ablation-codec %s model=%d req=%d resp=%d\n", r.Codec, r.ModelRespByte, r.QueryReqByte, r.QueryRespByte)
	}
	idx, err := RunAblationIndexTuning(d, 5000, queries, 1000, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range idx {
		fmt.Fprintf(&b, "ablation-index %s param=%d\n", r.Index, r.Param)
	}
	return b.Bytes()
}

// TestFigureColumnsGolden compares the figure drivers' non-timing columns
// with the golden, line by line.
func TestFigureColumnsGolden(t *testing.T) {
	got := figureColumns(t)
	if *updateFigures {
		if err := os.WriteFile(figuresGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(figuresGolden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}
