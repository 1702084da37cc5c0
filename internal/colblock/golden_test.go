package colblock

import (
	"bytes"
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
// block boundaries), and the edge-value window. The version-2 and
// version-3 bytes these digests pinned before are now decode goldens
// (TestVersion2Fixtures, TestVersion3Fixtures).
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
		{"lausanne24", ws, 24, "2be92f5831d0119fc2a9a6e0"},
		{"lausanne-one-window", []WindowData{{Window: 7, Tuples: day}}, 23, "0271d91808f60b25c37d23da"},
		{"edge", []WindowData{{Window: 0, Tuples: edgeWindow}}, 1, "8181228e4cf49bf1e8b3dd51"},
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

// fixture is an image an earlier encoder wrote, with the windows it holds
// and the digest of its blocks and directory.
type fixture struct {
	name    string
	digest  string
	windows func() []WindowData
}

// v2Fixtures are images the last version-2 encoder wrote.
// v2-edge.emc is the edge window alone, checkpoint 3: its digest is the
// one TestBlocksMatchParentGolden pinned while version 2 was written.
// v2-lausanne.emc (checkpoint 5) is Lausanne windows 8 and 17 and the
// edge window as window 30, so raw and fixed columns of every width the
// fleet needs are in it.
var v2Fixtures = []fixture{
	{"v2-edge.emc", "fa26a703e73b4acf23fd9622", func() []WindowData {
		return []WindowData{{Window: 0, Tuples: edgeWindow}}
	}},
	{"v2-lausanne.emc", "69decbe733b01622ce17fa84", func() []WindowData {
		ws := lausanneWindows()
		return []WindowData{ws[8], ws[17], {Window: 30, Tuples: edgeWindow}}
	}},
}

// v3Fixtures are the same windows as v2Fixtures, written by commit
// 43b7fdf, the last one whose checkpoint files were version 3. The edge
// image's digest is the one TestBlocksMatchParentGolden pinned while
// version 3 was written.
var v3Fixtures = []fixture{
	{"v3-edge.emc", "a237d4b2363848b1572cb3b1", v2Fixtures[0].windows},
	{"v3-lausanne.emc", "64375451f0c217dce9b8c0de", v2Fixtures[1].windows},
}

// TestVersion2Fixtures reads the version-2 fixtures: each verifies and
// decodes bit-equal to the windows it was written from, and a file that
// takes its windows from one as a base holds no version-2 block — the
// windows are decoded and encoded again, to the bytes a direct encode of
// the same windows gives.
func TestVersion2Fixtures(t *testing.T) { checkFixtures(t, v2Fixtures, v2) }

// TestVersion3Fixtures is TestVersion2Fixtures for the version-3 fixtures,
// whose blocks re-sort each window and carry its seq column: read through
// it, and never carried into a version-4 file.
func TestVersion3Fixtures(t *testing.T) { checkFixtures(t, v3Fixtures, v3) }

func checkFixtures(t *testing.T, fixtures []fixture, version uint32) {
	for _, fx := range fixtures {
		img, err := os.ReadFile(filepath.Join("testdata", fx.name))
		if err != nil {
			t.Fatal(err)
		}
		if got := blocksDigest(img); got != fx.digest {
			t.Fatalf("%s: digest %q, want %q: the fixture changed", fx.name, got, fx.digest)
		}
		if err := Verify(img); err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		rd, err := OpenBytes(img)
		if err != nil {
			t.Fatal(err)
		}
		if rd.version != version {
			t.Fatalf("%s: version %d, want %d", fx.name, rd.version, version)
		}
		windows := fx.windows()
		based := make([]WindowData, len(windows))
		for i, wd := range windows {
			got, err := rd.WindowTuples(wd.Window)
			if err != nil || !bitEqualBatches(got, wd.Tuples) {
				t.Errorf("%s: window %d decodes to %d tuples, %v; not its source", fx.name, wd.Window, len(got), err)
			}
			based[i] = WindowData{Window: wd.Window, Base: rd}
		}
		if again, direct := encodeImage(t, 6, based, 0), encodeImage(t, 6, windows, 0); !bytes.Equal(again, direct) {
			t.Errorf("%s: a file based on it differs from a direct encode of its windows", fx.name)
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

// TestEncodingsStrictPerVersion: a file's encodings and columns must be its
// version's. A fixture relabelled as another version, or a version-4 file
// relabelled as an earlier one, opens — the footer is sound — but no block
// of it decodes. A file whose header and trailer disagree on the version
// does not open.
func TestEncodingsStrictPerVersion(t *testing.T) {
	v2img, err := os.ReadFile(filepath.Join("testdata", "v2-lausanne.emc"))
	if err != nil {
		t.Fatal(err)
	}
	v3img, err := os.ReadFile(filepath.Join("testdata", "v3-lausanne.emc"))
	if err != nil {
		t.Fatal(err)
	}
	v4img := encodeImage(t, 5, v2Fixtures[1].windows(), 0)
	for _, tc := range []struct {
		name string
		img  []byte
	}{
		{"raw and fixed columns in a version-4 file", withVersion(v2img, colVersion)},
		{"raw and fixed columns in a version-3 file", withVersion(v2img, v3)},
		{"packed columns in a version-2 file", withVersion(v4img, v2)},
		{"a seq column in a version-4 file", withVersion(v3img, colVersion)},
		{"no seq column in a version-3 file", withVersion(v4img, v3)},
	} {
		if _, err := OpenBytes(tc.img); err != nil {
			t.Fatalf("%s: OpenBytes = %v, want the footer accepted", tc.name, err)
		}
		if err := Verify(tc.img); !errors.Is(err, ErrCorrupt) || errors.Is(err, errDecodersDisagree) {
			t.Errorf("%s: Verify = %v, want ErrCorrupt", tc.name, err)
		}
	}
	mixed := withVersion(v4img, v2)
	putU32(mixed[4:], colVersion)
	if _, err := OpenBytes(mixed); !errors.Is(err, ErrCorrupt) {
		t.Errorf("header version 4, trailer version 2: OpenBytes = %v, want ErrCorrupt", err)
	}
}
