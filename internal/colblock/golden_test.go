package colblock

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/tuple"
)

// edgeWindow holds the values TestFixedPointEdgeValues uses to defeat the
// fixed-point encoder, so the goldens cover the IEEE-bits columns too.
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
// the version-4 file: the benchmark's 24 Lausanne windows as 24 windows
// and as one 45 000-tuple window (23 blocks, so the append order crosses
// block boundaries), and the edge-value window.
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
		{"lausanne24", windowData(ws...), 24, "2be92f5831d0119fc2a9a6e0"},
		{"lausanne-one-window", windowData(testWindow{Window: 7, Tuples: day}), 23, "0271d91808f60b25c37d23da"},
		{"edge", windowData(testWindow{Window: 0, Tuples: edgeWindow}), 1, "8181228e4cf49bf1e8b3dd51"},
	} {
		img := encodeImage(t, 3, tc.windows, 0)
		rd, err := OpenBytes(img)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := blocksDigest(img); len(rd.blocks) != tc.blocks || got != tc.digest {
			t.Errorf("%s: %d blocks digest %q, want %d %q", tc.name, len(rd.blocks), got, tc.blocks, tc.digest)
		}
		rd.Close()
	}
}

// withVersion returns img claiming the given version in its header and
// trailer, its footer checksum sealed over the change.
func withVersion(img []byte, version uint32) []byte {
	img = append([]byte(nil), img...)
	putU32(img[4:], version)
	trailer := img[len(img)-trailerSize:]
	putU32(trailer[36:], version)
	dirStart := len(img) - trailerSize - int(le32(trailer[32:]))*dirEntrySize
	putU32(trailer[40:], footerCRC(img[dirStart:len(img)-trailerSize], trailer))
	return img
}

// TestOtherVersionsRefused: a file whose header and checksummed footer
// agree on a version other than 4 is refused as ErrVersion, not as
// ErrCorrupt, from a file and from memory — the version-2 and version-3 images
// earlier releases wrote (testdata/v2-edge.emc and v3-edge.emc, by commits
// bf9c3e4 and 43b7fdf), and a version-4 image relabelled 1 and 5. A file
// whose header and footer disagree on the version, or whose footer
// checksum fails, stays ErrCorrupt.
func TestOtherVersionsRefused(t *testing.T) {
	v4img := encodeImage(t, 5, windowData(testWindow{Window: 0, Tuples: edgeWindow}), 0)
	refused := map[string][]byte{"version 1": withVersion(v4img, 1), "version 5": withVersion(v4img, 5)}
	for _, name := range []string{"v2-edge.emc", "v3-edge.emc"} {
		img, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		refused[name] = img
	}
	dir := t.TempDir()
	for name, img := range refused {
		if err := Verify(img); !errors.Is(err, ErrVersion) || errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Verify = %v, want ErrVersion", name, err)
		}
		path := filepath.Join(dir, "checkpoint.emc")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenFile(path); !errors.Is(err, ErrVersion) || errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: OpenFile = %v, want ErrVersion", name, err)
		}
	}

	mixed := withVersion(v4img, 5)
	putU32(mixed[4:], colVersion)
	unsealed := withVersion(v4img, 5)
	unsealed[len(unsealed)-trailerSize+40] ^= 1
	for name, img := range map[string][]byte{
		"header version 4, footer version 5": mixed,
		"version 5, footer checksum failing": unsealed,
	} {
		if _, err := OpenBytes(img); !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrVersion) {
			t.Errorf("%s: OpenBytes = %v, want ErrCorrupt", name, err)
		}
	}
}
