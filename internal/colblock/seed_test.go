package colblock

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geo"
)

// seedOf returns a seed of k regions for a window of n tuples, its values
// drawn from r (a −0 among them: a seed is stored bit for bit).
func seedOf(r *rand.Rand, n, k int) Seed {
	sd := Seed{Count: n, Config: r.Uint64(), Rounds: r.Intn(40), Centroids: make([]geo.Point, k)}
	for i := range sd.Centroids {
		sd.Centroids[i] = geo.Point{X: r.NormFloat64() * 1e3, Y: r.NormFloat64() * 1e3}
	}
	sd.Centroids[0].Y = math.Copysign(0, -1)
	return sd
}

// seedsEqual compares two seeds bit for bit.
func seedsEqual(a, b Seed) bool {
	if a.Count != b.Count || a.Config != b.Config || a.Rounds != b.Rounds || len(a.Centroids) != len(b.Centroids) {
		return false
	}
	for i, p := range a.Centroids {
		q := b.Centroids[i]
		if math.Float64bits(p.X) != math.Float64bits(q.X) || math.Float64bits(p.Y) != math.Float64bits(q.Y) {
			return false
		}
	}
	return true
}

// requireSeeds fails unless rd holds exactly the seeds given, by window.
func requireSeeds(t *testing.T, label string, rd *Reader, want map[int]Seed) {
	t.Helper()
	for _, c := range rd.Windows() {
		got, ok, err := rd.Seed(c)
		w, has := want[c]
		if ok != has || err != nil || rd.HasSeed(c) != has || (has && !seedsEqual(got, w)) {
			t.Errorf("%s: window %d seed %+v, %v, %v; want %+v (present %v)", label, c, got, ok, err, w, has)
		}
	}
}

// TestSeedRoundTrip: a seed given with a window is read back bit for bit,
// seeds cost the tuples nothing (every window decodes as without them),
// and a window carried over from a version-4 base keeps its seed unless it
// is given a new one. A window that gained tuples since loses the seed of
// its base, since that seed is of fewer tuples.
func TestSeedRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	windows := genWindows(r, 4, 300)
	seeds := map[int]Seed{}
	for i := range windows {
		if i == 2 {
			continue // a window without a seed
		}
		windows[i].Seed = seedOf(r, len(windows[i].Tuples), 1+r.Intn(30))
		seeds[windows[i].Window] = windows[i].Seed
	}
	img := requireRoundTrip(t, windows, 128)
	rd, err := OpenBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	requireSeeds(t, "written", rd, seeds)
	if len(rd.blocks) != 4*3 || rd.Tuples() != 4*300 {
		t.Fatalf("%d blocks, %d tuples: seed records counted as blocks", len(rd.blocks), rd.Tuples())
	}
	if err := rd.CheckBlocks(); err != nil {
		t.Fatal(err)
	}

	carried := make([]WindowData, len(windows))
	for i, wd := range windows {
		carried[i] = WindowData{Window: wd.Window, Base: rd}
	}
	again := encodeImage(t, 2, carried, 128)
	if direct := encodeImage(t, 2, windowData(windows...), 128); string(again) != string(direct) {
		t.Error("a file carried over from one with seeds differs from a direct encode of the same windows and seeds")
	}

	renewed := seedOf(r, 300, 5)
	carried[0].Seed = renewed
	carried[1].Chunks = chunksOf(genWindows(r, 1, 10)[0].Tuples)
	rd2, err := OpenBytes(encodeImage(t, 3, carried, 128))
	if err != nil {
		t.Fatal(err)
	}
	defer rd2.Close()
	want := map[int]Seed{windows[0].Window: renewed, windows[3].Window: seeds[windows[3].Window]}
	requireSeeds(t, "carried", rd2, want)
}

// TestBadSeedCostsOnlyTheSeed: a seed record that fails its checksum is
// reported by Seed and by Verify, but the file opens, its blocks check and
// its windows decode — and a carry-over leaves that seed behind.
func TestBadSeedCostsOnlyTheSeed(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	windows := genWindows(r, 2, 100)
	for i := range windows {
		windows[i].Seed = seedOf(r, 100, 4)
	}
	img := encodeImage(t, 1, windowData(windows...), 0)
	rd, err := OpenBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	sp, _ := rd.seedSpan(windows[0].Window)
	rd.Close()
	img[sp.offset+30] ^= 0x08

	rd, err = OpenBytes(img)
	if err != nil {
		t.Fatalf("a bad seed record: OpenBytes = %v, want the file opened", err)
	}
	defer rd.Close()
	if err := rd.CheckBlocks(); err != nil {
		t.Fatalf("a bad seed record: CheckBlocks = %v", err)
	}
	if _, ok, err := rd.Seed(windows[0].Window); ok || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a bad seed record: Seed = %v, %v; want ErrCorrupt", ok, err)
	}
	if err := Verify(img); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a bad seed record: Verify = %v, want ErrCorrupt", err)
	}
	for _, wd := range windows {
		got, err := decoded(rd, wd.Window)
		if err != nil || !bitEqualBatches(got, wd.Tuples) {
			t.Fatalf("window %d beside a bad seed: %v", wd.Window, err)
		}
	}
	carried := []WindowData{{Window: windows[0].Window, Base: rd}, {Window: windows[1].Window, Base: rd}}
	rd2, err := OpenBytes(encodeImage(t, 2, carried, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer rd2.Close()
	requireSeeds(t, "carried beside a bad seed", rd2, map[int]Seed{windows[1].Window: windows[1].Seed})
}

// TestSeedDirectoryChecks: a seed entry is refused at open when it names a
// window with no blocks or a window that already has one, and any kind
// byte other than block or seed is refused.
func TestSeedDirectoryChecks(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	windows := genWindows(r, 2, 50)
	windows[0].Seed, windows[1].Seed = seedOf(r, 50, 3), seedOf(r, 50, 2)
	img := encodeImage(t, 1, windowData(windows...), 0)
	// Entries: window 3's block, its seed, window 4's block, its seed.
	entry := func(img []byte, i int) []byte {
		trailer := img[len(img)-trailerSize:]
		dirStart := len(img) - trailerSize - int(le32(trailer[32:]))*dirEntrySize
		return img[dirStart+i*dirEntrySize:]
	}
	resealed := func(img []byte) []byte {
		trailer := img[len(img)-trailerSize:]
		dirStart := len(img) - trailerSize - int(le32(trailer[32:]))*dirEntrySize
		putU32(trailer[40:], footerCRC(img[dirStart:len(img)-trailerSize], trailer))
		return img
	}
	if k := entry(img, 1)[28]; k != kindSeed {
		t.Fatalf("entry 1 is of kind %d, want the seed", k)
	}
	for _, tc := range []struct {
		name string
		edit func(img []byte)
	}{
		{"seed of a window with no blocks", func(img []byte) { putU64(entry(img, 1), 99) }},
		{"second seed of a window", func(img []byte) { putU64(entry(img, 3), 3) }},
		{"unknown kind", func(img []byte) { entry(img, 2)[28] = 2 }},
	} {
		bad := append([]byte(nil), img...)
		tc.edit(bad)
		if _, err := OpenBytes(resealed(bad)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: OpenBytes = %v, want ErrCorrupt", tc.name, err)
		}
	}
}

// TestSeedRecordLayout pins a seed record's bytes: the fields in order,
// 16 bytes a centroid, and the checksum over them.
func TestSeedRecordLayout(t *testing.T) {
	sd := Seed{Count: 1890, Config: 0x0123456789abcdef, Rounds: 9, Centroids: []geo.Point{{X: 1.5, Y: -2}, {X: 0, Y: 1e300}}}
	rec := appendSeed(nil, sd)
	if len(rec) != seedFixed+2*seedRegion {
		t.Fatalf("record of 2 regions is %d bytes, want %d", len(rec), seedFixed+2*seedRegion)
	}
	if err := seedBody(rec); err != nil {
		t.Fatal(err)
	}
	if got := decodeSeed(rec); !reflect.DeepEqual(got, sd) {
		t.Fatalf("decoded %+v, want %+v", got, sd)
	}
	for _, bad := range [][]byte{rec[:len(rec)-1], rec[:seedFixed], append(append([]byte(nil), rec...), 0)} {
		if err := seedBody(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("a %d-byte record: %v, want ErrCorrupt", len(bad), err)
		}
	}
	zero := appendSeed(nil, Seed{Centroids: sd.Centroids})
	if err := seedBody(zero); !errors.Is(err, ErrCorrupt) {
		t.Errorf("a seed of no tuples: %v, want ErrCorrupt", err)
	}
}
