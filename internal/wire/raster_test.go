package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/heatmap"
	"repro/internal/sim"
	"repro/internal/tuple"
)

// windowCover is the cover built over the second hour of the simulated
// Lausanne deployment, and that hour's tuples.
func windowCover(tb testing.TB) (*core.Cover, tuple.Batch) {
	tb.Helper()
	cfg := sim.DefaultLausanne(1)
	cfg.Duration = 2 * 3600
	data, err := sim.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var w tuple.Batch
	for _, r := range data {
		if tuple.WindowIndex(r.T, 3600) == 1 {
			w = append(w, r)
		}
	}
	cv, err := core.BuildCover(w, 1, 3600, core.Config{Pollutant: tuple.CO2})
	if err != nil {
		tb.Fatal(err)
	}
	return cv, w
}

// coverRaster is a 64×64 raster of windowCover, rendered over the
// window's data bounds inflated by 100 m — what a node answers a
// HeatmapRequest without a region.
func coverRaster(tb testing.TB) HeatmapResponse {
	tb.Helper()
	cv, w := windowCover(tb)
	bounds, ok := w.Bounds()
	if !ok {
		tb.Fatal("empty window")
	}
	g, err := heatmap.FromCover(cv, bounds.Inflate(100), 64, 64, 5400)
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := HeatmapResponseFromGrid(g)
	if err != nil {
		tb.Fatal(err)
	}
	return resp
}

// coverRasterBytes is what coverRaster encodes to; the raw layout took
// 45 + 8·4 096 = 32 813 bytes.
const coverRasterBytes = 7_131

// TestHeatmapFrameBytes pins what a raster costs on the wire: a cover's
// 64×64 raster stays within 10 % of what it was recorded at, random bit
// patterns within the worst case the cell cap assumes, and a constant
// raster costs its counts and its first cell.
func TestHeatmapFrameBytes(t *testing.T) {
	size := func(m HeatmapResponse) int {
		t.Helper()
		enc, err := Binary.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		return len(enc)
	}
	got := size(coverRaster(t))
	t.Logf("64×64 cover raster: %d B (recorded %d, raw %d)", got, coverRasterBytes, 45+8*64*64)
	if got > coverRasterBytes*11/10 {
		t.Errorf("64×64 cover raster is %d B, over %d + 10 %%", got, coverRasterBytes)
	}

	rng := rand.New(rand.NewSource(1))
	for _, dim := range [][2]uint16{{64, 64}, {7, 3}, {1, 1}, {5, 1}, {1, 5}} {
		n := int(dim[0]) * int(dim[1])
		random := HeatmapResponse{Cols: dim[0], Rows: dim[1], Values: make([]float64, n)}
		zero := HeatmapResponse{Cols: dim[0], Rows: dim[1], Values: make([]float64, n)}
		constant := HeatmapResponse{Cols: dim[0], Rows: dim[1], Values: make([]float64, n)}
		for i := range random.Values {
			random.Values[i] = math.Float64frombits(rng.Uint64())
			constant.Values[i] = 420
		}
		if got, limit := size(random), 45+(n+1)/2+8*n; got > limit || limit != RasterFrameBytes(n) {
			t.Errorf("%dx%d random raster: %d B, worst case %d (RasterFrameBytes %d)", dim[0], dim[1], got, limit, RasterFrameBytes(n))
		}
		if got, want := size(zero), 45+(n+1)/2; got != want {
			t.Errorf("%dx%d raster of zeros: %d B, want %d", dim[0], dim[1], got, want)
		}
		// Only the first cell is predicted from nothing.
		if got, want := size(constant), 45+(n+1)/2+8; got != want {
			t.Errorf("%dx%d raster of 420s: %d B, want %d", dim[0], dim[1], got, want)
		}
	}
}

// TestRasterRefusals: a frame the encoder would not write is refused —
// a count over 8, a residual longer than it needs, a set padding nibble,
// a residual cut short, a trailing byte — so every accepted frame is a
// fixed point of decode/encode.
func TestRasterRefusals(t *testing.T) {
	// Three cells: 1.0 (8 bytes), then exact, then a one-byte residual.
	good, err := Binary.Encode(HeatmapResponse{Cols: 3, Rows: 1, Values: []float64{1, 1, math.Float64frombits(math.Float64bits(1) + 1)}})
	if err != nil {
		t.Fatal(err)
	}
	if want := 45 + 2 + 8 + 1; len(good) != want || good[45] != 0x08 || good[46] != 0x01 {
		t.Fatalf("frame %x: want %d B with counts 08 01", good, want)
	}
	if _, err := Binary.Decode(good); err != nil {
		t.Fatal(err)
	}
	mutate := func(f func([]byte) []byte) []byte { return f(bytes.Clone(good)) }
	for name, frame := range map[string][]byte{
		"count over 8":     mutate(func(b []byte) []byte { b[45] = 0x09; return append(b, 0) }),
		"non-minimal":      mutate(func(b []byte) []byte { b[46] = 0x02; return append(b, 0) }),
		"padding nibble":   mutate(func(b []byte) []byte { b[46] = 0x11; return b }),
		"residual cut":     good[:len(good)-1],
		"trailing byte":    append(bytes.Clone(good), 7),
		"counts cut":       good[:46],
		"grid over counts": mutate(func(b []byte) []byte { b[33] = 5; return b }),
	} {
		for _, decode := range []func([]byte) (Message, error){Binary.Decode, Binary.DecodeLent} {
			if m, err := decode(frame); !errors.Is(err, ErrMalformed) {
				t.Errorf("%s: %x decoded to %#v, %v", name, frame, m, err)
			}
		}
	}
}

// TestOversizedRasterClaimAllocatesNothing: a 49-byte frame that claims a
// 65 535 × 65 535 grid is refused before anything is allocated.
func TestOversizedRasterClaimAllocatesNothing(t *testing.T) {
	frame := make([]byte, 49)
	frame[0] = byte(TypeHeatmapResponse)
	binary.LittleEndian.PutUint16(frame[33:], math.MaxUint16)
	binary.LittleEndian.PutUint16(frame[35:], math.MaxUint16)
	for _, decode := range []func([]byte) (Message, error){Binary.Decode, Binary.DecodeLent} {
		var err error
		if allocs := testing.AllocsPerRun(100, func() { _, err = decode(frame) }); allocs != 0 {
			t.Errorf("refusing the frame allocated %.0f times", allocs)
		}
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("decode = %v, want ErrMalformed", err)
		}
	}
}

// rasterSeeds are the bit patterns a raster's coding must carry exactly:
// NaN payloads (quiet, signalling, negative), ±0, ±Inf, subnormals, and
// values on both sides of 512.0, an exponent boundary inside CO2's range.
var rasterSeeds = []float64{
	math.Float64frombits(0x7FF8_0000_0000_0001),
	math.Float64frombits(0x7FF0_0000_0000_0001),
	math.Float64frombits(0xFFF8_0000_DEAD_BEEF),
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.Float64frombits(1), math.Float64frombits(0x000F_FFFF_FFFF_FFFF), -math.SmallestNonzeroFloat64,
	math.Nextafter(512, 0), 512, math.Nextafter(512, 1024), 511.5, 512.5, 420, 420,
}

// FuzzHeatmapRoundTrip reads the fuzz bytes as float64 bit patterns, laid
// out cols × rows (repeating them as needed): every raster must encode
// within the worst case the cell cap assumes and decode bit for bit, into
// fresh memory and into a lent raster a borrower left soiled, and its
// frame must be a fixed point of decode/encode.
func FuzzHeatmapRoundTrip(f *testing.F) {
	words := func(vs ...float64) []byte {
		b := make([]byte, 8*len(vs))
		for i, v := range vs {
			putF64(b[8*i:], v)
		}
		return b
	}
	f.Add(uint8(4), uint8(4), words(rasterSeeds...))
	f.Add(uint8(3), uint8(5), words(rasterSeeds...))
	f.Add(uint8(1), uint8(7), words(math.NaN(), math.Copysign(0, -1)))
	f.Add(uint8(9), uint8(1), words(512, math.Nextafter(512, 0)))
	f.Add(uint8(16), uint8(16), words(420.25, 420.25, 421, 600, 600))
	f.Add(uint8(0), uint8(3), []byte{})
	f.Add(uint8(2), uint8(2), []byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, cols, rows uint8, data []byte) {
		n := int(cols) * int(rows)
		m := HeatmapResponse{
			Region: geo.Rect{Max: geo.Point{X: float64(cols), Y: float64(rows)}},
			Cols:   uint16(cols), Rows: uint16(rows), T: 3600,
			Values: make([]float64, n),
		}
		if len(data) > 0 {
			word := make([]byte, 8)
			for i := range m.Values {
				for j := range word {
					word[j] = data[(8*i+j)%len(data)]
				}
				m.Values[i] = getF64(word)
			}
		}
		enc, err := Binary.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) > RasterFrameBytes(n) {
			t.Fatalf("%dx%d raster: %d B, over the worst case %d", cols, rows, len(enc), RasterFrameBytes(n))
		}
		sameBits := func(got Message, how string) {
			t.Helper()
			g, ok := got.(HeatmapResponse)
			if !ok || g.Cols != m.Cols || g.Rows != m.Rows || g.Region != m.Region || g.T != m.T || len(g.Values) != n {
				t.Fatalf("%s: decoded %#v", how, got)
			}
			for i, v := range g.Values {
				if math.Float64bits(v) != math.Float64bits(m.Values[i]) {
					t.Fatalf("%s: cell %d is %#x, sent %#x", how, i, math.Float64bits(v), math.Float64bits(m.Values[i]))
				}
			}
			if re, err := Binary.Encode(got); err != nil || !bytes.Equal(re, enc) {
				t.Fatalf("%s: frame is not a fixed point of decode/encode (%v)", how, err)
			}
		}
		dec, err := Binary.Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(dec, "Decode")
		lent, err := Binary.DecodeLent(enc)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(lent, "DecodeLent")
		Recycle(nil, lent)
		soil(lent)
		again, err := Binary.DecodeLent(enc)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(again, "DecodeLent into a soiled lend")
		Recycle(nil, again)
	})
}

// BenchmarkHeatmapCodec64 encodes a 64×64 cover raster into a reused
// buffer and decodes it into a lent one, as a node answering a heatmap and
// the client reading it do.
func BenchmarkHeatmapCodec64(b *testing.B) {
	m := coverRaster(b)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = Binary.AppendEncode(buf[:0], m); err != nil {
			b.Fatal(err)
		}
		dec, err := Binary.DecodeLent(buf)
		if err != nil {
			b.Fatal(err)
		}
		Recycle(nil, dec)
	}
	b.ReportMetric(float64(len(buf)), "B/frame")
}
