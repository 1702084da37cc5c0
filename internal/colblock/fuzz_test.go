package colblock

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/tuple"
)

// FuzzColBlockDecode throws arbitrary bytes at the full decode path
// (footer parse, directory validation, block checksums, column decode).
// Seeds come from the real encoder, so mutations start from structurally
// valid images; the invariant is that no input crashes or over-allocates,
// and that an image Verify accepts, carried over window by window into a
// new file (WindowData.Base), encodes to an image that verifies and holds
// the same tuples and seeds.
func FuzzColBlockDecode(f *testing.F) {
	seed := func(seq int, windows []WindowData, blockTuples int) {
		var buf bytes.Buffer
		if _, err := encode(&buf, Meta{Seq: seq, Horizon: seq - 1, MaxTime: 1201}, windows, blockTuples); err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add(buf.Bytes())
	}
	var empty bytes.Buffer
	if _, err := Encode(&empty, Meta{Seq: 1}, nil); err != nil {
		f.Fatalf("seed encode: %v", err)
	}
	f.Add(empty.Bytes())
	seed(7, windowData(testWindow{Window: 2, Tuples: tuple.Batch{
		{T: 1200.5, X: 10, Y: 20, S: 42.5},
		{T: 1201, X: -30.25, Y: 2000, S: math.Pi},
		{T: 1199, X: 10, Y: 20, S: 0},
	}}), 2)
	big := make(tuple.Batch, 300)
	for i := range big {
		big[i] = tuple.Raw{T: float64(i), X: float64(i % 17), Y: float64(i % 5), S: float64(i) / 8}
	}
	seed(12, windowData(testWindow{Window: 0, Tuples: big}, testWindow{Window: 1, Tuples: big[:7]}), 64)
	// Seed records beside the blocks: one of a region, one of several,
	// and a window without one between them.
	lw := lausanneWindows()
	seed(13, windowData([]testWindow{
		{Window: 4, Tuples: big[:40], Seed: Seed{Count: 40, Config: 7, Rounds: 1, Centroids: []geo.Point{{X: 8, Y: 2}}}},
		{Window: 5, Tuples: big[40:90]},
		{Window: 8, Tuples: lw[8].Tuples, Seed: Seed{Count: len(lw[8].Tuples), Config: 1 << 63, Rounds: 9,
			Centroids: []geo.Point{lw[8].Tuples[0].Pos(), lw[8].Tuples[500].Pos(), {X: math.Copysign(0, -1), Y: math.Inf(1)}}}},
	}...), BlockTuples)
	// A version-1 sidecar: mutations start one version field away from a
	// file the reader would have to trust without a horizon.
	v1, err := os.ReadFile(legacySidecar)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	// IEEE-bits columns in a version-4 image; the edge window as earlier
	// versions wrote it (raw and fixed columns, a seq column), which this
	// reader refuses; and a version-4 image relabelled as versions 1 and 5.
	var edge bytes.Buffer
	if _, err := Encode(&edge, Meta{Seq: 3}, windowData(testWindow{Window: 0, Tuples: edgeWindow})); err != nil {
		f.Fatalf("seed encode: %v", err)
	}
	f.Add(edge.Bytes())
	for _, name := range []string{"v2-edge.emc", "v3-edge.emc"} {
		img, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
	}
	f.Add(withVersion(edge.Bytes(), 1))
	f.Add(withVersion(edge.Bytes(), 5))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<22 || Verify(data) != nil {
			return
		}
		rd, err := OpenBytes(data)
		if err != nil {
			t.Fatalf("Verify accepted an image OpenBytes refuses: %v", err)
		}
		defer rd.Close()
		var carried []WindowData
		for _, c := range rd.Windows() {
			carried = append(carried, WindowData{Window: c, Base: rd})
		}
		var out bytes.Buffer
		if _, err := Encode(&out, rd.Meta(), carried); err != nil {
			t.Fatalf("carry-over of a verified image: %v", err)
		}
		if err := Verify(out.Bytes()); err != nil {
			t.Fatalf("carry-over of a verified image does not verify: %v", err)
		}
		rd2, err := OpenBytes(out.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		defer rd2.Close()
		if got, want := rd2.Windows(), rd.Windows(); !slices.Equal(got, want) {
			t.Fatalf("carried windows %v, want %v", got, want)
		}
		for _, c := range rd.Windows() {
			want, err := decoded(rd, c)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := decoded(rd2, c); err != nil || !bitEqualBatches(got, want) {
				t.Fatalf("window %d after the carry-over: %d tuples, %v; want the %d it had", c, len(got), err, len(want))
			}
			sd, ok, err := rd.Seed(c)
			if err != nil {
				t.Fatal(err)
			}
			if sd2, ok2, err := rd2.Seed(c); ok2 != ok || err != nil || ok && !seedsEqual(sd2, sd) {
				t.Fatalf("window %d's seed after the carry-over: %+v, %v, %v; want %+v, %v", c, sd2, ok2, err, sd, ok)
			}
		}
	})
}

// FuzzColBlockRoundTrip reads the fuzz bytes as float64 bit patterns —
// after a first byte that picks the block size, 32 bytes a tuple (T, X, Y,
// S, little-endian) — and requires what the encoder writes from them to
// verify and to decode bit-equal to them: whatever the values, the
// encoder's choice of scale, base and width must be lossless. The window's
// seed record, its centroids the first (up to 64) tuple positions and its
// fields drawn from the first tuple's bits, must read back bit-equal. The
// same tuples, packed as one run, must unpack bit-equal too.
func FuzzColBlockRoundTrip(f *testing.F) {
	add := func(blockTuples byte, b tuple.Batch) {
		data := []byte{blockTuples}
		for _, r := range b {
			for _, v := range [...]float64{r.T, r.X, r.Y, r.S} {
				data = appendU64(data, math.Float64bits(v))
			}
		}
		f.Add(data)
	}
	add(0, edgeWindow)
	add(1, edgeWindow)
	add(2, tuple.Batch{
		{T: math.NaN(), X: math.Inf(1), Y: math.Copysign(0, -1), S: 5e-324},
		{T: -0x1p62, X: 0, Y: 5, S: 1},
		{T: 0x1p62, X: 0x1p-511, Y: 5, S: 2},
		{T: 0, X: 0x1p513, Y: -math.MaxFloat64, S: math.Float64frombits(0xfff0000000000abc)},
	})
	add(63, lausanneWindows()[8].Tuples[:200])

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1<<16 {
			return
		}
		blockTuples := 1 + int(data[0])
		data = data[1:]
		b := make(tuple.Batch, len(data)/32)
		for i := range b {
			p := data[32*i:]
			b[i] = tuple.Raw{
				T: math.Float64frombits(le64(p[0:])), X: math.Float64frombits(le64(p[8:])),
				Y: math.Float64frombits(le64(p[16:])), S: math.Float64frombits(le64(p[24:])),
			}
		}
		wd := testWindow{Window: 1, Tuples: b}
		if len(b) > 0 {
			wd.Seed = Seed{
				Count:  len(b),
				Config: math.Float64bits(b[0].S),
				Rounds: int(uint32(math.Float64bits(b[0].T))),
			}
			for _, r := range b[:min(len(b), 64)] {
				wd.Seed.Centroids = append(wd.Seed.Centroids, r.Pos())
			}
		}
		requireRoundTrip(t, []testWindow{wd}, blockTuples)
		requirePackRoundTrip(t, b)
	})
}
