package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/tuple"
)

// readBack decodes every frame of data, failing on anything but a clean
// end at a frame boundary.
func readBack(t *testing.T, data []byte) []tuple.Batch {
	t.Helper()
	r := bytes.NewReader(data)
	var out []tuple.Batch
	for {
		_, b, err := readFrame(r, nil, nil)
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("frame %d: %v", len(out), err)
		}
		out = append(out, b)
	}
}

func TestSegmentFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 7, 100, 1000} {
		b := randBatch(rng, n, 0, 1e6)
		frame := appendFrame(nil, b)
		if got := binary.LittleEndian.Uint32(frame[4:]); int(got) != len(frame)-frameHeader {
			t.Errorf("n=%d: frame of %d bytes claims a %d-byte block", n, len(frame), got)
		}
		got := readBack(t, frame)
		if len(got) != 1 {
			t.Fatalf("n=%d: %d frames read back, want 1", n, len(got))
		}
		if !batchBitEqual(got[0], b) {
			t.Fatalf("n=%d: the decoded tuples differ from those encoded", n)
		}
	}
}

func TestSegmentFramesInSequence(t *testing.T) {
	a := mkBatch(1, 2, 3)
	b := mkBatch(400, 500)
	got := readBack(t, appendFrame(appendFrame(nil, a), b))
	if len(got) != 2 {
		t.Fatalf("%d frames read back, want 2", len(got))
	}
	if !batchBitEqual(got[0], a) || !batchBitEqual(got[1], b) {
		t.Fatal("the decoded frames differ from those encoded")
	}
}

func TestSegmentFrameCorruption(t *testing.T) {
	good := appendFrame(nil, mkBatch(1, 2, 3, 4, 5))
	// reseal recomputes the block's checksum, so only the check under
	// test can refuse the frame.
	reseal := func(f []byte) []byte {
		blk := f[frameHeader:]
		binary.LittleEndian.PutUint32(blk[len(blk)-4:], crc32.ChecksumIEEE(blk[:len(blk)-4]))
		return f
	}
	for name, bad := range map[string][]byte{
		"absurd count":         reseal(append(bytes.Clone(good[:4]), 8, 0, 0, 0, 0, 0, 0, 0x40, 0, 0, 0, 0)),
		"absurd length":        binary.LittleEndian.AppendUint32(append([]byte(nil), good[:4]...), 0x7fffffff),
		"bad magic":            append([]byte{0}, good[1:]...),
		"flipped payload byte": func() []byte { f := bytes.Clone(good); f[len(f)/2] ^= 0xff; return f }(),
		"flipped length":       func() []byte { f := bytes.Clone(good); f[4]--; return f }(),
		"truncated":            good[:len(good)-5],
		"truncated header":     good[:4],
	} {
		t.Run(name, func(t *testing.T) {
			if _, _, err := readFrame(bytes.NewReader(bad), nil, nil); err == nil || errors.Is(err, io.EOF) || errors.Is(err, errRawFrame) {
				t.Errorf("decode = %v, want a corrupt frame", err)
			}
		})
	}
}

func TestSegmentFrameSpecialFloats(t *testing.T) {
	negZero := math.Copysign(0, -1)
	b := tuple.Batch{
		{T: 0, X: math.MaxFloat64, Y: -math.MaxFloat64, S: math.SmallestNonzeroFloat64},
		{T: negZero, X: math.Inf(1), Y: math.Inf(-1), S: math.Float64frombits(0x7ff8000000000001)},
	}
	if !batchBitEqual(readBack(t, appendFrame(nil, b))[0], b) {
		t.Fatal("the decoded tuples differ from those encoded")
	}
}

func TestSegmentFrameRoundTripProperty(t *testing.T) {
	f := func(ts, xs, ys, ss []float64) bool {
		n := min(len(ts), len(xs), len(ys), len(ss))
		if n == 0 {
			return true
		}
		b := make(tuple.Batch, n)
		for i := range b {
			b[i] = tuple.Raw{T: ts[i], X: xs[i], Y: ys[i], S: ss[i]}
		}
		_, got, err := readFrame(bytes.NewReader(appendFrame(nil, b)), nil, nil)
		return err == nil && batchBitEqual(got, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSegmentFrameAllocatesNothing: a frame built into a buffer with room
// for its worst case, and read back into buffers that held a frame as
// large, allocates nothing — what a durable append and a replay do frame
// after frame.
func TestSegmentFrameAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch under -race")
	}
	b := fleetDay()[:256]
	frame := appendFrame(nil, b)
	blk, batch, err := readFrame(bytes.NewReader(frame), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(frame)
	if n := testing.AllocsPerRun(100, func() {
		frame = appendFrame(frame[:0], b)
		r.Reset(frame)
		if blk, batch, err = readFrame(r, blk, batch); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a frame built and read back allocates %v times, want 0", n)
	}
	if !batchBitEqual(batch, b) {
		t.Fatal("the decoded tuples differ from those encoded")
	}
}

// rawFrame is b as one frame of the raw tuple coding earlier releases
// wrote to their segments: "EMT1", the count, 32 bytes a tuple and a
// CRC-32 of them.
func rawFrame(b tuple.Batch) []byte {
	le := binary.LittleEndian
	f := le.AppendUint32(nil, 0x454d5431) // "EMT1"
	f = le.AppendUint32(f, uint32(len(b)))
	for _, r := range b {
		for _, v := range [...]float64{r.T, r.X, r.Y, r.S} {
			f = le.AppendUint64(f, math.Float64bits(v))
		}
	}
	return le.AppendUint32(f, crc32.ChecksumIEEE(f[8:]))
}

// TestRawSegmentRefused: a segment of the raw tuple coding that recovery
// must replay — one past the checkpoint's horizon — fails Open with
// ErrCheckpointFormat naming it, every file left as it was and a stray
// temp file kept. Raw segments the checkpoint covers are never read, so
// they do not stop Open, and neither does an empty segment.
func TestRawSegmentRefused(t *testing.T) {
	// build leaves a directory whose checkpoint covers segment 0 and
	// whose segment 1 holds the tuples appended after it, every segment
	// rewritten in the raw coding.
	early, late := mkBatch(10, 20, 130), mkBatch(240, 250)
	build := func(t *testing.T, cfg Config) {
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Append(early); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(late); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		for name, b := range map[string]tuple.Batch{"segment-000000.emt": early, "segment-000001.emt": late} {
			if err := os.WriteFile(filepath.Join(cfg.Dir, name), rawFrame(b), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("replayed", func(t *testing.T) {
		cfg := Config{WindowLength: 100, Dir: t.TempDir(), KeepSegments: 1}
		build(t, cfg)
		requireRefused(t, cfg, "segment-000001.emt")
	})

	t.Run("covered", func(t *testing.T) {
		cfg := Config{WindowLength: 100, Dir: t.TempDir(), KeepSegments: 1}
		build(t, cfg)
		// Segment 1 is emptied, as the checkpoint's own rotation leaves
		// it when nothing is appended after.
		if err := os.WriteFile(filepath.Join(cfg.Dir, "segment-000001.emt"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(cfg)
		if err != nil {
			t.Fatalf("a raw segment the checkpoint covers stopped Open: %v", err)
		}
		defer s.Close()
		if !maps.Equal(collectTuples(s), collectTuples(storeOf(t, early))) {
			t.Error("the store holds other tuples than the covered segment's")
		}
	})

	t.Run("empty", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "segment-000000.emt"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Config{WindowLength: 100, Dir: dir})
		if err != nil {
			t.Fatalf("an empty segment stopped Open: %v", err)
		}
		defer s.Close()
		if s.Len() != 0 {
			t.Errorf("Len = %d, want 0", s.Len())
		}
	})
}

// storeOf is an in-memory store holding b.
func storeOf(t *testing.T, b tuple.Batch) *Store {
	t.Helper()
	s := MustOpenMemory(100)
	if err := s.Append(b); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSegmentBytesPerTupleFleet: the fleet's day, appended in the
// 256-tuple batches the ingest pipeline coalesces uploads into, takes
// ≈ 22.4 B a tuple in its segment — raw tuples took 32.05.
func TestSegmentBytesPerTupleFleet(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{WindowLength: 3600, Dir: dir, Sync: SyncNever()})
	if err != nil {
		t.Fatal(err)
	}
	day := fleetDay()
	appendDay(t, s, day)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var size int64
	for _, name := range mustSegmentNames(t, dir) {
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		size += info.Size()
	}
	perTuple := float64(size) / float64(len(day))
	t.Logf("segment bytes per tuple, %d tuples in 256-tuple appends: %.2f", len(day), perTuple)
	if perTuple > 23 {
		t.Errorf("segment bytes per tuple = %.2f, want ≤ 23", perTuple)
	}
}

// mustSegmentNames lists dir's segments.
func mustSegmentNames(t *testing.T, dir string) []string {
	t.Helper()
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// FuzzSegmentFrameDecode hardens segment replay: arbitrary bytes must
// never panic the frame decoder or the torn-tail scan, must get the same
// verdict on every read, and a frame it accepts must decode, encode and
// decode again to bit-identical tuples. (Not to identical bytes: a
// crafted frame may code a column wider than the encoder would.) The seeds
// are frames of the round-trip suite's shapes, torn, shifted and flipped,
// and a frame of the raw tuple coding.
func FuzzSegmentFrameDecode(f *testing.F) {
	for _, b := range []tuple.Batch{
		{},
		{{T: 1, X: 2, Y: 3, S: 4}},
		{{T: 0.5, X: -10, Y: 1e9, S: 421.5}, {T: 3600, X: 0, Y: 0, S: 0}},
		{{T: math.MaxFloat64, X: math.SmallestNonzeroFloat64, Y: -1, S: math.Inf(1)}},
		{{T: math.NaN(), X: math.NaN(), Y: 0, S: -0.0}},
	} {
		enc := appendFrame(nil, b)
		f.Add(enc)
		f.Add(enc[:len(enc)-3])             // torn tail
		f.Add(append([]byte{0x00}, enc...)) // shifted
		flipped := bytes.Clone(enc)
		flipped[len(flipped)/2] ^= 0xFF // checksum mismatch
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte{0x34, 0x57, 0x4d, 0x45, 0xFF, 0xFF, 0xFF, 0x7F}) // absurd length
	f.Add(rawFrame(tuple.Batch{{T: 1, X: 2, Y: 3, S: 4}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, b1, err1 := readFrame(bytes.NewReader(data), nil, nil)
		_, b2, err2 := readFrame(bytes.NewReader(data), nil, nil)
		if (err1 == nil) != (err2 == nil) || err1 != nil && err1.Error() != err2.Error() {
			t.Fatalf("unstable verdict: %v vs %v", err1, err2)
		}
		if err1 == nil {
			if !batchBitEqual(b1, b2) {
				t.Fatal("unstable decode")
			}
			_, b3, err := readFrame(bytes.NewReader(appendFrame(nil, b1)), nil, nil)
			if err != nil {
				t.Fatalf("re-decode of a re-encoded frame: %v", err)
			}
			if !batchBitEqual(b3, b1) {
				t.Fatal("decode, encode, decode is not bit-exact")
			}
		}
		_ = containsFrame(data)
	})
}
