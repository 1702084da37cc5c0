package store

import (
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/tuple"
)

// upgradeFixtures are data directories written by commit d7f418d, the
// last one whose checkpoints were row files: testdata/<name>/dir holds
// MANIFEST, checkpoint-000001.emt, the segment suffix and — for
// legacy-sidecar — that commit's version-1 colblock-000001.emc;
// testdata/<name>/appended.frames is every batch the writer appended, in
// order (WindowLength 100, Retain 4).
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
