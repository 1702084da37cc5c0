package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/colblock"
	"repro/internal/tuple"
)

// upgradeFixtures are data directories written by commit d7f418d, the
// last one whose checkpoints were row files: testdata/<name>/dir holds
// MANIFEST, checkpoint-000001.emt, the segment suffix and — for
// legacy-sidecar — that commit's version-1 colblock-000001.emc;
// testdata/<name>/appended.frames is every batch the writer appended, in
// order (WindowLength 100, Retain 4). testdata/v2-columnar has the same
// shape, written by commit bf9c3e4, the last one whose checkpoint files
// were version 2 (TestUpgradeFromVersion2), and testdata/v3-columnar the
// same batches with the checkpoint at the same point, written by commit
// 43b7fdf, the last one whose checkpoint files were version 3
// (TestUpgradeFromVersion3).
var upgradeFixtures = []string{"legacy-row", "legacy-sidecar"}

// fixtureReference replays a fixture's appended batches into a memory
// store with the writer's configuration: what the directory must open to.
func fixtureReference(t *testing.T, name string) *Store {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name, "appended.frames"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ref, err := Open(Config{WindowLength: 100, Retain: 4})
	if err != nil {
		t.Fatal(err)
	}
	for {
		b, err := tuple.ReadBinary(f)
		if errors.Is(err, io.EOF) {
			return ref
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Append(b); err != nil {
			t.Fatal(err)
		}
	}
}

// requireSameState fails unless got and want agree bit for bit on every
// observable: indexes, Len, MaxTime, and each window's length, bounds and
// tuples.
func requireSameState(t *testing.T, label string, got, want *Store) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: Len %d, want %d", label, got.Len(), want.Len())
	}
	if math.Float64bits(got.MaxTime()) != math.Float64bits(want.MaxTime()) {
		t.Fatalf("%s: MaxTime %v, want %v", label, got.MaxTime(), want.MaxTime())
	}
	gi, wi := got.WindowIndexes(), want.WindowIndexes()
	if len(gi) != len(wi) {
		t.Fatalf("%s: indexes %v, want %v", label, gi, wi)
	}
	for i, c := range wi {
		if gi[i] != c {
			t.Fatalf("%s: indexes %v, want %v", label, gi, wi)
		}
		if got.WindowLen(c) != want.WindowLen(c) {
			t.Fatalf("%s: WindowLen(%d) %d, want %d", label, c, got.WindowLen(c), want.WindowLen(c))
		}
		gb, gok := got.WindowBounds(c)
		wb, wok := want.WindowBounds(c)
		if gok != wok || gb != wb {
			t.Fatalf("%s: WindowBounds(%d) %+v,%v want %+v,%v", label, c, gb, gok, wb, wok)
		}
		if !batchBitEqual(got.Window(c), want.Window(c)) {
			t.Fatalf("%s: window %d differs", label, c)
		}
	}
}

// TestUpgradeFromRowCheckpoints opens directories the parent commit
// wrote: the row checkpoint is read (the version-1 sidecar beside it
// never is — it has no horizon), the next Checkpoint writes the
// column-block file, and its compaction removes the row file and the
// sidecar.
func TestUpgradeFromRowCheckpoints(t *testing.T) {
	for _, name := range upgradeFixtures {
		t.Run(name, func(t *testing.T) {
			ref := fixtureReference(t, name)
			dir := copyDirTo(t, filepath.Join("testdata", name, "dir"))
			cfg := Config{WindowLength: 100, Retain: 4, Dir: dir, Sync: SyncNever()}
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rs := s.RecoveryStats()
			if !rs.FromCheckpoint || rs.CheckpointSeq != 1 || rs.CorruptCheckpoints != 0 || rs.SegmentsReplayed != 1 {
				t.Fatalf("recovery %+v: want checkpoint 1 plus one replayed segment", rs)
			}
			if cs := s.ColumnarStats(); cs.LazyWindows != 0 || cs.BytesRead != 0 {
				t.Fatalf("stats %+v: a row checkpoint is read whole, a version-1 sidecar not at all", cs)
			}
			requireSameState(t, "first open", s, ref)

			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, e := range entries {
				got = append(got, e.Name())
			}
			// Segment 2 is covered; segment 3 was opened by this process
			// and sealed by the checkpoint, segment 4 is the open one.
			want := []string{manifestName, checkpointName(2), "segment-000004.emt"}
			if !slices.Equal(got, want) {
				t.Fatalf("directory after the first new checkpoint: %v, want %v", got, want)
			}

			re, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if rs := re.RecoveryStats(); !rs.FromCheckpoint || rs.CheckpointSeq != 2 || rs.CorruptCheckpoints != 0 {
				t.Fatalf("second recovery %+v: want checkpoint 2", rs)
			}
			if cs := re.ColumnarStats(); cs.LazyWindows != 4 {
				t.Fatalf("stats %+v: want the four windows lazy in the new file", cs)
			}
			requireSameState(t, "after the upgrade", re, ref)
		})
	}
}

// TestUpgradeFromVersion2 opens a directory whose checkpoint is a
// version-2 file: checkpoint 0 holds windows 2–5 and the segment suffix
// adds to window 5 and opens window 6, which evicts window 2. The file is
// read as it is — windows 3–5 lazy, every read as before — and the next
// Checkpoint writes a
// version-4 file that carries no version-2 block over: a version-4 file
// admits only packed columns, so Verify would refuse one. Every window
// reads the same after that checkpoint, and after a restart from it.
func TestUpgradeFromVersion2(t *testing.T) {
	const name = "v2-columnar"
	ref := fixtureReference(t, name)
	dir := copyDirTo(t, filepath.Join("testdata", name, "dir"))
	cfg := Config{WindowLength: 100, Retain: 4, Dir: dir, Sync: SyncNever()}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs := s.RecoveryStats()
	if !rs.FromCheckpoint || rs.CheckpointSeq != 0 || rs.CorruptCheckpoints != 0 || rs.SegmentsReplayed != 1 {
		t.Fatalf("recovery %+v: want checkpoint 0 plus one replayed segment", rs)
	}
	if cs := s.ColumnarStats(); cs.LazyWindows != 3 {
		t.Fatalf("stats %+v: want the version-2 file's three retained windows lazy", cs)
	}
	requireSameState(t, "version-2 checkpoint", s, ref)

	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, checkpointName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != 4 {
		t.Fatalf("the checkpoint after the upgrade is version %d, want 4", v)
	}
	if err := colblock.Verify(data); err != nil {
		t.Fatalf("the checkpoint after the upgrade: %v", err)
	}
	requireSameState(t, "after the version-4 checkpoint", s, ref)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rs := re.RecoveryStats(); !rs.FromCheckpoint || rs.CheckpointSeq != 1 || rs.CorruptCheckpoints != 0 {
		t.Fatalf("second recovery %+v: want checkpoint 1", rs)
	}
	requireSameState(t, "restarted from the version-4 checkpoint", re, ref)
}

// TestUpgradeFromVersion3 opens a directory whose checkpoint is a
// version-3 file — blocks re-sorted by cell and time, a seq column, no
// seeds — holding the windows of the version-2 fixture. Every window reads
// as the writer's did; the next Checkpoint writes a version-4 file, which
// re-encodes every window in append order (no version-3 block is carried
// over), and every window reads the same after it and after a restart
// from it.
func TestUpgradeFromVersion3(t *testing.T) {
	const name = "v3-columnar"
	ref := fixtureReference(t, name)
	dir := copyDirTo(t, filepath.Join("testdata", name, "dir"))
	data, err := os.ReadFile(filepath.Join(dir, checkpointName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != 3 {
		t.Fatalf("the fixture's checkpoint is version %d, want 3", v)
	}
	cfg := Config{WindowLength: 100, Retain: 4, Dir: dir, Sync: SyncNever()}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs := s.RecoveryStats()
	if !rs.FromCheckpoint || rs.CheckpointSeq != 0 || rs.CorruptCheckpoints != 0 || rs.SegmentsReplayed != 1 {
		t.Fatalf("recovery %+v: want checkpoint 0 plus one replayed segment", rs)
	}
	if cs := s.ColumnarStats(); cs.LazyWindows != 3 {
		t.Fatalf("stats %+v: want the version-3 file's three retained windows lazy", cs)
	}
	requireSameState(t, "version-3 checkpoint", s, ref)
	for _, c := range s.WindowIndexes() {
		if _, _, ok := s.WindowSeedInto(nil, c); ok {
			t.Fatalf("window %d has a seed in a version-3 file", c)
		}
	}

	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(filepath.Join(dir, checkpointName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != 4 {
		t.Fatalf("the checkpoint after the upgrade is version %d, want 4", v)
	}
	if err := colblock.Verify(data); err != nil {
		t.Fatalf("the checkpoint after the upgrade: %v", err)
	}
	requireSameState(t, "after the version-4 checkpoint", s, ref)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rs := re.RecoveryStats(); !rs.FromCheckpoint || rs.CheckpointSeq != 1 || rs.CorruptCheckpoints != 0 {
		t.Fatalf("second recovery %+v: want checkpoint 1", rs)
	}
	requireSameState(t, "restarted from the version-4 checkpoint", re, ref)
	if cs := re.ColumnarStats(); cs.SeedFailures != 0 {
		t.Fatalf("stats %+v: a file with no seeds failed none", cs)
	}
}

// TestOverflowingSpanFallsBack: a checkpoint whose first directory entry
// has an offset and a length that each fit in an int64 but sum past it —
// footer checksum resealed, so only the span check can catch it — is a
// corrupt checkpoint to Open, on both access paths: counted, skipped, and
// the segments replayed instead.
func TestOverflowingSpanFallsBack(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{WindowLength: 100, Dir: dir, KeepSegments: 100}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(mkBatch(10, 20, 150)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(mkBatch(250)); err != nil {
		t.Fatal(err)
	}
	want := collectTuples(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The file's footer: a 96-byte entry per block (offset at +8, length at
	// +16), then a 48-byte trailer (block count at +32, checksum at +40 over
	// the directory and the 40 trailer bytes before it).
	path := filepath.Join(dir, checkpointName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	trailer := data[len(data)-48:]
	dir0 := len(data) - 48 - 96*int(le.Uint32(trailer[32:]))
	le.PutUint64(data[dir0+8:], 1<<62+1<<61)
	le.PutUint64(data[dir0+16:], 1<<62)
	le.PutUint32(trailer[40:], crc32.Update(crc32.ChecksumIEEE(data[dir0:len(data)-48]), crc32.IEEETable, trailer[:40]))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, disableMmap := range []bool{false, true} {
		cfg.Dir = copyDirTo(t, dir) // an Open adds a segment: each path starts from the same files
		cfg.Columnar.DisableMmap = disableMmap
		re, err := Open(cfg)
		if err != nil {
			t.Fatalf("disableMmap=%v: recovery must fall back: %v", disableMmap, err)
		}
		sameTuples(t, collectTuples(re), want)
		if rs := re.RecoveryStats(); rs.FromCheckpoint || rs.CorruptCheckpoints != 1 || rs.SegmentsReplayed != 2 {
			t.Errorf("disableMmap=%v: recovery %+v: want the checkpoint counted corrupt and both segments replayed", disableMmap, rs)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
