package colblock

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/tuple"
)

// testWindow is a window as a test builds it: its tuples in append order,
// and the seed to write beside them.
type testWindow struct {
	Window int
	Tuples tuple.Batch
	Seed   Seed
}

// data is the WindowData a store hands Encode for w: its tuples in the
// sealed chunks of a Log.
func (w testWindow) data() WindowData {
	return WindowData{Window: w.Window, Chunks: chunksOf(w.Tuples), Seed: w.Seed}
}

// windowData is data of each of ws.
func windowData(ws ...testWindow) []WindowData {
	out := make([]WindowData, len(ws))
	for i, w := range ws {
		out[i] = w.data()
	}
	return out
}

// chunksOf appends b to an empty Log, seals it and returns its chunks.
func chunksOf(b tuple.Batch) []Chunk {
	lg := new(Log)
	lg.Append(b)
	lg.Seal()
	return lg.Chunks(nil)
}

func genWindows(r *rand.Rand, nwin, perWin int) []testWindow {
	out := make([]testWindow, 0, nwin)
	for c := 0; c < nwin; c++ {
		b := make(tuple.Batch, perWin)
		for i := range b {
			b[i] = tuple.Raw{
				T: float64(c*600) + r.Float64()*600,
				X: r.Float64()*4000 - 1000,
				Y: r.Float64()*3000 - 500,
				S: math.Round(r.Float64()*1000) / 10, // one decimal: fixed-point friendly
			}
			if i%7 == 0 {
				b[i].S = r.NormFloat64() * 13.7 // irrational-ish: forces raw encoding
			}
		}
		out = append(out, testWindow{Window: c + 3, Tuples: b})
	}
	return out
}

// encodeImage encodes windows as checkpoint seq with the given block size
// (0 = BlockTuples, what Encode writes).
func encodeImage(t *testing.T, seq int, windows []WindowData, blockTuples int) []byte {
	t.Helper()
	if blockTuples == 0 {
		blockTuples = BlockTuples
	}
	var buf bytes.Buffer
	st, err := encode(&buf, Meta{Seq: seq}, windows, blockTuples)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if int64(buf.Len()) != st.Bytes {
		t.Fatalf("EncodeStats.Bytes = %d, wrote %d", st.Bytes, buf.Len())
	}
	return buf.Bytes()
}

func bitEqualBatches(a, b tuple.Batch) bool { return slices.EqualFunc(a, b, bitEqual) }

// decoded decodes window c of rd into memory of its own.
func decoded(rd *Reader, c int) (tuple.Batch, error) {
	out := make(tuple.Batch, rd.WindowCount(c))
	return out, rd.DecodeWindow(out, c)
}

func bitEqual(a, b tuple.Raw) bool {
	return math.Float64bits(a.T) == math.Float64bits(b.T) &&
		math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.S) == math.Float64bits(b.S)
}

// TestRoundTrip proves the core invariant: DecodeWindow reproduces every
// window bit-for-bit in original append order, regardless of block size.
func TestRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	windows := genWindows(r, 5, 777)
	for _, blockTuples := range []int{0, 1, 64, 100000} {
		img := encodeImage(t, 42, windowData(windows...), blockTuples)
		rd, err := OpenBytes(img)
		if err != nil {
			t.Fatalf("OpenBytes(block=%d): %v", blockTuples, err)
		}
		if rd.Meta().Seq != 42 {
			t.Fatalf("Seq = %d, want 42", rd.Meta().Seq)
		}
		if rd.Tuples() != 5*777 {
			t.Fatalf("Tuples = %d, want %d", rd.Tuples(), 5*777)
		}
		for _, wd := range windows {
			got, err := decoded(rd, wd.Window)
			if err != nil {
				t.Fatalf("DecodeWindow(%d): %v", wd.Window, err)
			}
			if len(got) != len(wd.Tuples) {
				t.Fatalf("window %d: %d tuples, want %d", wd.Window, len(got), len(wd.Tuples))
			}
			for i := range got {
				if !bitEqual(got[i], wd.Tuples[i]) {
					t.Fatalf("window %d tuple %d = %+v, want %+v (block=%d)", wd.Window, i, got[i], wd.Tuples[i], blockTuples)
				}
			}
		}
		rd.Close()
	}
}

// TestFixedPointEdgeValues hits values that must defeat the fixed-point
// encoder (negative zero, subnormals, giant magnitudes) and still
// round-trip exactly through the raw fallback.
func TestFixedPointEdgeValues(t *testing.T) {
	b := tuple.Batch{
		{T: 0, X: math.Copysign(0, -1), Y: 5e-324, S: 1e300},
		{T: 1, X: 0.1, Y: -2.5, S: math.Pi},
		{T: 2, X: 1e17, Y: -1e17, S: 123.456},
	}
	img := encodeImage(t, 1, windowData(testWindow{Window: 0, Tuples: b}), 0)
	rd, err := OpenBytes(img)
	if err != nil {
		t.Fatalf("OpenBytes: %v", err)
	}
	defer rd.Close()
	got, err := decoded(rd, 0)
	if err != nil {
		t.Fatalf("DecodeWindow: %v", err)
	}
	for i := range got {
		if !bitEqual(got[i], b[i]) {
			t.Fatalf("tuple %d = %+v (bits %x), want %+v (bits %x)", i, got[i], math.Float64bits(got[i].X), b[i], math.Float64bits(b[i].X))
		}
	}
}

// requireRoundTrip encodes windows as blocks of at most blockTuples, and
// requires the image to verify, every window to decode bit-equal to its
// source and to scan whole through a region that admits every position,
// and every seed to read back bit-equal.
func requireRoundTrip(t *testing.T, windows []testWindow, blockTuples int) []byte {
	t.Helper()
	img := encodeImage(t, 1, windowData(windows...), blockTuples)
	if err := Verify(img); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	rd, err := OpenBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	inf := math.Inf(1)
	for _, wd := range windows {
		got := make(tuple.Batch, len(wd.Tuples))
		if err := rd.DecodeWindow(got, wd.Window); err != nil || !bitEqualBatches(got, wd.Tuples) {
			t.Fatalf("window %d (blocks of %d): decoded %v, %v; want %v", wd.Window, blockTuples, got, err, wd.Tuples)
		}
		n := 0
		if _, _, _, err := rd.ScanWindowRegion(wd.Window, -inf, -inf, inf, inf, func(tuple.Raw) { n++ }); err != nil || n != len(wd.Tuples) {
			t.Fatalf("window %d: region scan of the whole plane yielded %d tuples, %v; want %d", wd.Window, n, err, len(wd.Tuples))
		}
		sd, ok, err := rd.Seed(wd.Window)
		if has := len(wd.Seed.Centroids) > 0; ok != has || err != nil || has && !seedsEqual(sd, wd.Seed) {
			t.Fatalf("window %d: seed %+v, %v, %v; want %+v", wd.Window, sd, ok, err, wd.Seed)
		}
	}
	return img
}

// blockColumns locates the four columns of every block of img.
func blockColumns(t *testing.T, img []byte) [][]column {
	t.Helper()
	rd, err := OpenBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	var out [][]column
	for _, m := range rd.blocks {
		run, _, err := blockRun(img[m.Offset:m.Offset+m.Length], m.Count)
		if err != nil {
			t.Fatal(err)
		}
		p := run[4:]
		cols := make([]column, 4)
		for i := range cols {
			if cols[i], p, err = cutColumn(p, m.Count); err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, cols)
	}
	return out
}

// TestPackedEdgeValues round-trips the values fixed-point cannot hold —
// NaN payloads of both signs, −0, subnormals, ±Inf — and the widths at
// both ends of the packed range: 0 (a constant column, a 1-tuple block)
// and 64 (keys that no shorter span holds in signed or unsigned order).
func TestPackedEdgeValues(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name   string
		b      tuple.Batch
		widths []uint // T, X, Y, S; nil: not pinned
	}{
		{"NaN payloads, ±0, subnormals, ±Inf", tuple.Batch{
			{T: 1, X: math.Float64frombits(0x7ff8000000000001), Y: negZero, S: math.Inf(1)},
			{T: 2, X: math.Float64frombits(0xfff0000000000abc), Y: 0, S: math.Inf(-1)},
			{T: 3, X: math.NaN(), Y: 5e-324, S: -math.SmallestNonzeroFloat64},
			{T: 4, X: 0x1p-1030, Y: -0x1p-1060, S: math.MaxFloat64},
		}, nil},
		{"one tuple", tuple.Batch{{T: 7.5, X: -3, Y: 1e300, S: math.NaN()}}, []uint{0, 0, 0, 0}},
		{"constant columns", tuple.Batch{
			{T: 9, X: negZero, Y: math.Inf(-1), S: 0.1},
			{T: 9, X: negZero, Y: math.Inf(-1), S: 0.1},
			{T: 9, X: negZero, Y: math.Inf(-1), S: 0.1},
		}, []uint{0, 0, 0, 0}},
		// T's integers ±2^62 are 2^63 apart at scale 0; X's rotated keys
		// are 0, 2^62, 2^63 and 3·2^62, three quarters of the circle apart
		// however the base is chosen.
		{"width 64", tuple.Batch{
			{T: -0x1p62, X: 0, Y: 5, S: 1},
			{T: 0x1p62, X: 0x1p-511, Y: 5, S: 2},
			{T: 0, X: 2, Y: 5, S: 3},
			{T: 1, X: 0x1p513, Y: 5, S: 4},
		}, []uint{64, 64, 0, 2}},
	} {
		for _, blockTuples := range []int{1, 0} {
			img := requireRoundTrip(t, []testWindow{{Window: 2, Tuples: tc.b}}, blockTuples)
			if blockTuples == 1 {
				for _, cols := range blockColumns(t, img) {
					for i, col := range cols {
						if col.width != 0 {
							t.Errorf("%s in 1-tuple blocks: column %d is %d bits wide, want 0", tc.name, i, col.width)
						}
					}
				}
				continue
			}
			if tc.widths == nil {
				continue
			}
			cols := blockColumns(t, img)[0]
			for i, col := range cols {
				if col.width != tc.widths[i] {
					t.Errorf("%s: column %d is %d bits wide, want %d", tc.name, i, col.width, tc.widths[i])
				}
			}
		}
	}
}

// TestOverflowingSpanRejected: a directory entry whose offset and length
// each fit in an int64 but whose sum does not is refused when the file is
// opened, from a file or from memory, before anything reads through it.
func TestOverflowingSpanRejected(t *testing.T) {
	img := encodeImage(t, 1, windowData(genWindows(rand.New(rand.NewSource(15)), 1, 50)...), 0)
	bad := reseal(img, 0, func(m *BlockMeta) { m.Offset, m.Length = 1<<62+1<<61, 1<<62 })
	if _, err := OpenBytes(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("OpenBytes = %v, want ErrCorrupt", err)
	}
	if err := Verify(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Verify = %v, want ErrCorrupt", err)
	}
	path := filepath.Join(t.TempDir(), "checkpoint-000001.emc")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path); !errors.Is(err, ErrCorrupt) {
		t.Errorf("OpenFile = %v, want ErrCorrupt", err)
	}
	// A reader refuses such a span by itself too.
	rd, err := OpenBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.blockBytes(new([]byte), 1<<62+1<<61, 1<<62); !errors.Is(err, ErrCorrupt) {
		t.Errorf("blockBytes of an overflowing span = %v, want ErrCorrupt", err)
	}
}

// TestZoneMapPruning checks that a region scan skips blocks whose zone
// maps exclude the region, and that the survivors yield exactly the
// in-region tuples.
func TestZoneMapPruning(t *testing.T) {
	// Two spatial clusters far apart, visited in turn for 500 tuples at a
	// time, so blocks — runs of the append order — are spatially pure.
	var b tuple.Batch
	for i := 0; i < 4000; i++ {
		x, y := float64(i%50), float64((i/50)%40)
		if i/500%2 == 1 {
			x += 100000
		}
		b = append(b, tuple.Raw{T: float64(i), X: x, Y: y, S: 1})
	}
	img := encodeImage(t, 7, windowData(testWindow{Window: 1, Tuples: b}), 256)
	rd, err := OpenBytes(img)
	if err != nil {
		t.Fatalf("OpenBytes: %v", err)
	}
	defer rd.Close()

	want := 0
	for _, r := range b {
		if r.X <= 60 {
			want++
		}
	}
	got := 0
	scanned, pruned, bytes, err := rd.ScanWindowRegion(1, -10, -10, 60, 60, func(r tuple.Raw) {
		if r.X > 60 {
			t.Fatalf("tuple outside region: %+v", r)
		}
		got++
	})
	if err != nil {
		t.Fatalf("ScanWindowRegion: %v", err)
	}
	if got != want {
		t.Fatalf("region yielded %d tuples, want %d", got, want)
	}
	if pruned == 0 {
		t.Fatalf("no blocks pruned (scanned %d); far cluster should be zone-mapped out", scanned)
	}
	if blocks, _ := rd.WindowSize(1); scanned+pruned != blocks || bytes == 0 {
		t.Fatalf("scanned %d and pruned %d of %d blocks, reading %d bytes", scanned, pruned, blocks, bytes)
	}
}

// TestWindowZone checks the directory-only zone union matches a full scan.
func TestWindowZone(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	windows := genWindows(r, 3, 500)
	img := encodeImage(t, 3, windowData(windows...), 128)
	rd, err := OpenBytes(img)
	if err != nil {
		t.Fatalf("OpenBytes: %v", err)
	}
	defer rd.Close()
	for _, wd := range windows {
		z, ok := rd.WindowZone(wd.Window)
		if !ok {
			t.Fatalf("window %d missing", wd.Window)
		}
		minX, maxX := wd.Tuples[0].X, wd.Tuples[0].X
		minY, maxY := wd.Tuples[0].Y, wd.Tuples[0].Y
		for _, tp := range wd.Tuples {
			minX, maxX = min(minX, tp.X), max(maxX, tp.X)
			minY, maxY = min(minY, tp.Y), max(maxY, tp.Y)
		}
		if z.MinX != minX || z.MaxX != maxX || z.MinY != minY || z.MaxY != maxY {
			t.Fatalf("window %d zone [%v %v %v %v], want [%v %v %v %v]",
				wd.Window, z.MinX, z.MaxX, z.MinY, z.MaxY, minX, maxX, minY, maxY)
		}
		if z.Count != len(wd.Tuples) {
			t.Fatalf("window %d zone count %d, want %d", wd.Window, z.Count, len(wd.Tuples))
		}
	}
	if _, ok := rd.WindowZone(999); ok {
		t.Fatal("WindowZone(999) reported a missing window present")
	}
}

// TestCorruption flips bytes across the image and requires every
// corruption to surface as an error (open-time or scan-time), never as
// silently wrong tuples.
func TestCorruption(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	windows := genWindows(r, 2, 300)
	img := encodeImage(t, 5, windowData(windows...), 64)
	orig := append([]byte(nil), img...)

	for _, pos := range []int{0, 5, headerSize + 3, len(img) / 2, len(img) - trailerSize + 2, len(img) - 3} {
		copy(img, orig)
		img[pos] ^= 0x5a
		if err := Verify(img); err == nil {
			t.Fatalf("corruption at byte %d went undetected", pos)
		}
	}
	// Truncations.
	for _, n := range []int{0, headerSize, len(img) - 1, len(img) - trailerSize} {
		if err := Verify(orig[:n]); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", n)
		}
	}
	copy(img, orig)
	if err := Verify(img); err != nil {
		t.Fatalf("pristine image failed verify: %v", err)
	}
}

// TestOpenFileSources reads the same image from a file and from memory
// and requires identical answers and the reads counted.
func TestOpenFileSources(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	windows := genWindows(r, 2, 400)
	img := encodeImage(t, 9, windowData(windows...), 128)
	path := filepath.Join(t.TempDir(), "checkpoint-000009.emc")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, open := range map[string]func() (*Reader, error){
		"file":   func() (*Reader, error) { return OpenFile(path) },
		"memory": func() (*Reader, error) { return OpenBytes(img) },
	} {
		rd, err := open()
		if err != nil {
			t.Fatal(err)
		}
		for _, wd := range windows {
			if got, err := decoded(rd, wd.Window); err != nil || !bitEqualBatches(got, wd.Tuples) {
				t.Fatalf("%s: window %d differs: %v", name, wd.Window, err)
			}
		}
		blocks, bytes := 0, int64(0)
		for _, wd := range windows {
			n, b := rd.WindowSize(wd.Window)
			blocks, bytes = blocks+n, bytes+b
		}
		if blocks != len(rd.blocks) || bytes == 0 {
			t.Fatalf("%s: windows take %d blocks of %d bytes, want all %d", name, blocks, bytes, len(rd.blocks))
		}
		if err := rd.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := rd.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	}
}

// TestEmptyFile checks a file with zero windows is valid and empty.
func TestEmptyFile(t *testing.T) {
	img := encodeImage(t, 2, nil, 0)
	rd, err := OpenBytes(img)
	if err != nil {
		t.Fatalf("OpenBytes: %v", err)
	}
	defer rd.Close()
	if rd.Tuples() != 0 || len(rd.blocks) != 0 || len(rd.Windows()) != 0 {
		t.Fatalf("empty file reports tuples=%d blocks=%d windows=%v", rd.Tuples(), len(rd.blocks), rd.Windows())
	}
	if got, err := decoded(rd, 0); err != nil || len(got) != 0 {
		t.Fatalf("DecodeWindow on empty = %v, %v", got, err)
	}
}

// TestMetaRoundTrip checks the trailer carries what recovery needs beside
// the tuples, including a horizon of -1 (no segment covered), the largest
// sequence and horizon an int holds, and a MaxTime no tuple in the file
// reaches.
func TestMetaRoundTrip(t *testing.T) {
	windows := genWindows(rand.New(rand.NewSource(12)), 2, 50)
	for _, meta := range []Meta{
		{Seq: 0, Horizon: -1, MaxTime: 0},
		{Seq: 7, Horizon: 41, MaxTime: 86399.5},
		{Seq: math.MaxInt, Horizon: math.MaxInt - 1, MaxTime: math.MaxFloat64},
	} {
		var buf bytes.Buffer
		st, err := Encode(&buf, meta, windowData(windows...))
		if err != nil {
			t.Fatal(err)
		}
		rd, err := OpenBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("%+v: %v", meta, err)
		}
		if rd.Meta() != meta || rd.Tuples() != st.Tuples || st.Tuples != 100 {
			t.Errorf("Meta = %+v, %d tuples (stats %d); want %+v, 100", rd.Meta(), rd.Tuples(), st.Tuples, meta)
		}
		rd.Close()
	}
}

// TestCheckBlocks proves the no-decode pass a store runs before trusting
// a checkpoint catches a flipped byte anywhere in the block section.
func TestCheckBlocks(t *testing.T) {
	windows := genWindows(rand.New(rand.NewSource(13)), 3, 200)
	img := encodeImage(t, 4, windowData(windows...), 64)
	dirStart := len(img) - trailerSize - 3*4*dirEntrySize // 3 windows × ⌈200/64⌉ blocks
	path := filepath.Join(t.TempDir(), "checkpoint-000004.emc")
	for _, pos := range []int{-1, headerSize, headerSize + 2, dirStart / 2, dirStart - 1} {
		data := append([]byte(nil), img...)
		if pos >= 0 {
			data[pos] ^= 0x01
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rd, err := OpenFile(path)
		if err != nil {
			t.Fatalf("flip at %d: the footer is intact, OpenFile must succeed: %v", pos, err)
		}
		err = rd.CheckBlocks()
		if (pos >= 0) != errors.Is(err, ErrCorrupt) {
			t.Errorf("flip at %d: CheckBlocks = %v", pos, err)
		}
		rd.Close()
	}
}

// TestVersion1Rejected feeds the reader a sidecar the last row-checkpoint
// commit wrote: it has no horizon, so it must never open as a checkpoint.
func TestVersion1Rejected(t *testing.T) {
	v1, err := os.ReadFile(legacySidecar)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenBytes(v1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenBytes(version-1 sidecar) = %v, want ErrCorrupt", err)
	}
}

// legacySidecar is a version-1 file written by commit d7f418d (one of the
// store's upgrade fixtures).
const legacySidecar = "../store/testdata/legacy-sidecar/dir/colblock-000001.emc"

// TestEncodeReusesScratch keeps the encoder's buffers in its pooled
// scratch: an encode of a day of the benchmark's windows allocates 2
// objects warm and about 30 when the pool hands out fresh scratch (after
// a collection, or under -race, where the pool drops a quarter of what it
// is given) — not the 397 (7.6 MB) of an encoder that allocates one set
// of columns per block, as the one at commit d7f418d did.
func TestEncodeReusesScratch(t *testing.T) {
	ws := windowData(lausanneWindows()...)
	run := func() {
		if _, err := Encode(io.Discard, Meta{Seq: 1}, ws); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if got := testing.AllocsPerRun(10, run); got > 40 {
		t.Errorf("Encode of %d windows: %.0f allocations, want ≤ 40", len(ws), got)
	}
}

// BenchmarkEncodeDay encodes one day of the benchmark's fleet.
func BenchmarkEncodeDay(b *testing.B) {
	ws := windowData(lausanneWindows()...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(io.Discard, Meta{Seq: 1}, ws); err != nil {
			b.Fatal(err)
		}
	}
}

// buildImage assembles a file around hand-made blocks of one window, each
// with a fresh checksum, so a test can reach the column checks behind it.
func buildImage(bodies [][]byte, counts []int) []byte {
	img := make([]byte, headerSize)
	putU32(img[0:], colMagic)
	putU32(img[4:], colVersion)
	var dir []byte
	total := 0
	for i, body := range bodies {
		blk := appendU32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
		dir = appendDirEntry(dir, BlockMeta{Window: 1, Offset: int64(len(img)), Length: int64(len(blk)), Count: counts[i]}, kindBlock)
		img = append(img, blk...)
		total += counts[i]
	}
	var trailer [trailerSize]byte
	putU64(trailer[0:], 3)
	putU64(trailer[8:], uint64(total))
	putU32(trailer[32:], uint32(len(bodies)))
	putU32(trailer[36:], colVersion)
	putU32(trailer[40:], footerCRC(dir, trailer[:]))
	putU32(trailer[44:], footMagic)
	return append(append(img, dir...), trailer[:]...)
}

// reseal rewrites img's directory entry i through edit and its footer
// checksum after it, so a test can reach the directory checks behind the
// checksum.
func reseal(img []byte, i int, edit func(*BlockMeta)) []byte {
	img = append([]byte(nil), img...)
	trailer := img[len(img)-trailerSize:]
	dirStart := len(img) - trailerSize - int(le32(trailer[32:]))*dirEntrySize
	at := dirStart + i*dirEntrySize
	m := decodeDirEntry(img[at:])
	edit(&m)
	copy(img[at:], appendDirEntry(nil, m, img[at+28]))
	putU32(trailer[40:], footerCRC(img[dirStart:len(img)-trailerSize], trailer))
	return img
}

// TestColumnChecks walks the block and column checks one by one on blocks
// whose checksum is sound: each must refuse the window as ErrCorrupt, and
// a sound block must decode to its tuples in order.
func TestColumnChecks(t *testing.T) {
	block := func(count uint32, cols ...[]byte) []byte {
		body := appendU32(nil, count)
		for _, c := range cols {
			body = append(body, c...)
		}
		return body
	}
	// Packed columns, written bit by bit here, apart from the encoder's
	// packing loop.
	packed := func(scale byte, width uint, base uint64, offs ...uint64) []byte {
		data := make([]byte, (uint(len(offs))*width+7)/8)
		for i, o := range offs {
			for b := uint(0); b < width; b++ {
				if at := uint(i)*width + b; o>>b&1 == 1 {
					data[at/8] |= 1 << (at % 8)
				}
			}
		}
		return append(appendU64([]byte{encPacked, scale, byte(width), 0}, base), data...)
	}
	ieee := func(vals ...float64) []byte { // the keys themselves: base 0, 64 bits
		keys := make([]uint64, len(vals))
		for i, v := range vals {
			keys[i] = bits.RotateLeft64(math.Float64bits(v), 1)
		}
		return packed(scaleIEEE, 64, 0, keys...)
	}
	// encoded returns col under another encoding byte.
	encoded := func(enc byte, col []byte) []byte { return append([]byte{enc}, col[1:]...) }
	// A block of three tuples: T fixed-point, X IEEE bits, Y fixed-point at
	// scale 1, S IEEE bits.
	tcol, xcol := packed(0, 4, 100, 0, 5, 9), ieee(1.5, math.Pi, -2)
	ycol, scol := packed(1, 9, 1000, 0, 300, 7), ieee(0, 1e300, 5e-324)
	sound := block(3, tcol, xcol, ycol, scol)

	cases := []struct {
		name   string
		bodies [][]byte
		counts []int
		ok     bool
	}{
		{"sound", [][]byte{sound}, []int{3}, true},
		{"two blocks", [][]byte{
			block(2, packed(0, 3, 100, 0, 5), ieee(1.5, math.Pi), packed(1, 9, 1000, 0, 300), ieee(0, 1e300)),
			block(1, packed(0, 0, 109), ieee(-2), packed(1, 0, 1007), ieee(5e-324)),
		}, []int{2, 1}, true},
		{"count differs from the directory", [][]byte{sound}, []int{2}, false},
		{"unknown encoding 0", [][]byte{block(3, tcol, encoded(0, xcol), ycol, scol)}, []int{3}, false},
		{"unknown encoding 1", [][]byte{block(3, encoded(1, tcol), xcol, ycol, scol)}, []int{3}, false},
		{"unknown encoding 7", [][]byte{block(3, tcol, xcol, encoded(7, ycol), scol)}, []int{3}, false},
		{"column header cut", [][]byte{block(3, tcol, xcol, ycol, []byte{encPacked, 0})}, []int{3}, false},
		{"width 65", [][]byte{block(3, append([]byte{encPacked, 0, 65, 0}, tcol[4:]...), xcol, ycol, scol)}, []int{3}, false},
		{"short packed column", [][]byte{block(3, tcol, xcol, ycol, packed(0, 8, 0, 2, 0))}, []int{3}, false},
		{"base cut", [][]byte{block(3, tcol, xcol, ycol, []byte{encPacked, 0, 2, 0, 0, 0})}, []int{3}, false},
		{"packed scale 10", [][]byte{block(3, tcol, xcol, packed(10, 9, 1000, 0, 300, 7), scol)}, []int{3}, false},
		{"a seq column", [][]byte{block(3, tcol, xcol, ycol, scol, packed(0, 2, 0, 2, 0, 1))}, []int{3}, false},
		{"trailing bytes", [][]byte{append(append([]byte(nil), sound...), 0)}, []int{3}, false},
	}
	for _, tc := range cases {
		img := buildImage(tc.bodies, tc.counts)
		err := Verify(img)
		if (err == nil) != tc.ok {
			t.Errorf("%s: Verify = %v, want accepted=%v", tc.name, err, tc.ok)
		}
		if !tc.ok {
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: rejected with %v, want ErrCorrupt", tc.name, err)
			}
			// A bad checksum is refused before any of the above is looked at.
			img[headerSize+5] ^= 0x40
			if err := Verify(img); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s with a bad checksum: %v", tc.name, err)
			}
			continue
		}
		rd, err := OpenBytes(img)
		if err != nil {
			t.Fatal(err)
		}
		got := make(tuple.Batch, 3)
		if err := rd.DecodeWindow(got, 1); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := tuple.Batch{{T: 100, X: 1.5, Y: 100, S: 0}, {T: 105, X: math.Pi, Y: 130, S: 1e300}, {T: 109, X: -2, Y: 100.7, S: 5e-324}}
		for i := range want {
			if !bitEqual(got[i], want[i]) {
				t.Errorf("%s: tuple %d = %+v, want %+v", tc.name, i, got[i], want[i])
			}
		}
		if err := rd.DecodeWindow(got[:2], 1); err == nil {
			t.Errorf("%s: DecodeWindow filled a destination of the wrong length", tc.name)
		}
	}
}

// TestCarryOverRoundTrip encodes a file, then a second one whose every
// window is "take it from the first": the second must be the first byte
// for byte — same blocks, same zone maps, same directory — having decoded
// nothing. A window that gained tuples since is
// decoded, merged and encoded to the bytes a direct encode of the whole
// window gives.
func TestCarryOverRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	windows := genWindows(r, 4, 700)
	first := encodeImage(t, 6, windowData(windows...), 256)
	path := filepath.Join(t.TempDir(), "checkpoint-000006.emc")
	if err := os.WriteFile(path, first, 0o644); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	carried := make([]WindowData, len(windows))
	for i, wd := range windows {
		carried[i] = WindowData{Window: wd.Window, Base: rd}
	}
	second := encodeImage(t, 6, carried, 256)
	if !bytes.Equal(second, first) {
		t.Error("a file carried over window by window differs from its source")
	}
	rd2, err := OpenBytes(second)
	if err != nil {
		t.Fatal(err)
	}
	for _, wd := range windows {
		got, err := decoded(rd2, wd.Window)
		if err != nil || !bitEqualBatches(got, wd.Tuples) {
			t.Errorf("window %d after the carry-over: %v", wd.Window, err)
		}
		z1, _ := rd.WindowZone(wd.Window)
		z2, _ := rd2.WindowZone(wd.Window)
		z1.Offset, z2.Offset = 0, 0
		if z1 != z2 {
			t.Errorf("window %d zone map %+v, was %+v", wd.Window, z2, z1)
		}
	}

	// Window 4 gained tuples, window 9 is new, the rest is unchanged.
	extra := genWindows(r, 1, 90)[0].Tuples
	fresh := genWindows(r, 1, 50)[0].Tuples
	mixed := append([]WindowData(nil), carried...)
	mixed[1].Chunks = chunksOf(extra)
	mixed = append(mixed, testWindow{Window: 9, Tuples: fresh}.data())
	whole := windowData(windows...)
	whole[1].Chunks = chunksOf(append(append(tuple.Batch(nil), windows[1].Tuples...), extra...))
	whole = append(whole, testWindow{Window: 9, Tuples: fresh}.data())
	if !bytes.Equal(encodeImage(t, 7, mixed, 256), encodeImage(t, 7, whole, 256)) {
		t.Error("base + suffix encodes differently from the whole window")
	}
	rd.Close()

	// A block that went bad stops the carry-over: nothing is copied blind.
	bad := append([]byte(nil), first...)
	bad[headerSize+9] ^= 0x10
	rd, err = OpenBytes(bad)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Encode(io.Discard, Meta{Seq: 7}, []WindowData{{Window: windows[0].Window, Base: rd}})
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("carry-over of a block that fails its checksum: %v", err)
	}
}
