package colblock

import (
	"bytes"
	"errors"
	"math"
	"os"
	"testing"

	"repro/internal/tuple"
)

// FuzzColBlockDecode throws arbitrary bytes at the full decode path
// (footer parse, directory validation, block checksums, column decode).
// Seeds come from the real encoder, so mutations start from structurally
// valid images; the invariant is that no input crashes or over-allocates,
// that encoder output always verifies, and that the two window decoders —
// WindowTuples and DecodeWindow, which Verify runs side by side — accept
// and reject the same images and return the same tuples.
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
	seed(7, []WindowData{{Window: 2, Tuples: tuple.Batch{
		{T: 1200.5, X: 10, Y: 20, S: 42.5},
		{T: 1201, X: -30.25, Y: 2000, S: math.Pi},
		{T: 1199, X: 10, Y: 20, S: 0},
	}}}, 2)
	big := make(tuple.Batch, 300)
	for i := range big {
		big[i] = tuple.Raw{T: float64(i), X: float64(i % 17), Y: float64(i % 5), S: float64(i) / 8}
	}
	seed(12, []WindowData{{Window: 0, Tuples: big}, {Window: 1, Tuples: big[:7]}}, 64)
	// A version-1 sidecar: mutations start one version field away from a
	// file the reader would have to trust without a horizon.
	v1, err := os.ReadFile(legacySidecar)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<22 {
			return
		}
		if err := Verify(data); errors.Is(err, errDecodersDisagree) {
			t.Fatal(err)
		}
	})
}
