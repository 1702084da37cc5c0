package colblock

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/tuple"
)

// edgeWindow holds the values TestFixedPointEdgeValues uses to defeat the
// fixed-point encoder, so the goldens cover the raw-bits columns too.
var edgeWindow = tuple.Batch{
	{T: 0, X: math.Copysign(0, -1), Y: 5e-324, S: 1e300},
	{T: 1, X: 0.1, Y: -2.5, S: math.Pi},
	{T: 2, X: 1e17, Y: -1e17, S: 123.456},
}

// blocksDigest hashes everything between the file header and the trailer:
// the block section and the directory.
func blocksDigest(img []byte) string {
	sum := sha256.Sum256(img[headerSize : len(img)-trailerSize])
	return hex.EncodeToString(sum[:12])
}

// TestBlocksMatchParentGolden pins the block section and the directory of
// the file to the bytes the allocating encoder wrote (digests captured at
// commit d7f418d, before the encoder reused its scratch and before the
// trailer grew): the benchmark's 24 Lausanne windows as 24 windows and as
// one 45 000-tuple window (23 blocks, so the sort order crosses block
// boundaries), and the edge-value window.
func TestBlocksMatchParentGolden(t *testing.T) {
	ws := lausanneWindows()
	var day tuple.Batch
	for _, w := range ws {
		day = append(day, w.Tuples...)
	}
	for _, tc := range []struct {
		name    string
		windows []WindowData
		blocks  int
		digest  string
	}{
		{"lausanne24", ws, 24, "4b1edef6870b40672b1c17ee"},
		{"lausanne-one-window", []WindowData{{Window: 7, Tuples: day}}, 23, "5eaa4913edbfcce7cc25e7d3"},
		{"edge", []WindowData{{Window: 0, Tuples: edgeWindow}}, 1, "fa26a703e73b4acf23fd9622"},
	} {
		img := encodeImage(t, 3, tc.windows, 0)
		rd, err := OpenBytes(img)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := blocksDigest(img); rd.Blocks() != tc.blocks || got != tc.digest {
			t.Errorf("%s: %d blocks digest %q, want %d %q", tc.name, rd.Blocks(), got, tc.blocks, tc.digest)
		}
		rd.Close()
	}
}
