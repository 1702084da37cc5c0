package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// requireSameState fails unless got and want agree bit for bit on every
// observable (sameState).
func requireSameState(t *testing.T, label string, got, want *Store) {
	t.Helper()
	if err := sameState(got, want); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// sameState says where got and want differ on an observable: indexes,
// Len, MaxTime, and each window's length, bounds and tuples.
func sameState(got, want *Store) error {
	if got.Len() != want.Len() {
		return fmt.Errorf("Len %d, want %d", got.Len(), want.Len())
	}
	if math.Float64bits(got.MaxTime()) != math.Float64bits(want.MaxTime()) {
		return fmt.Errorf("MaxTime %v, want %v", got.MaxTime(), want.MaxTime())
	}
	gi, wi := got.WindowIndexes(), want.WindowIndexes()
	if !slices.Equal(gi, wi) {
		return fmt.Errorf("indexes %v, want %v", gi, wi)
	}
	for _, c := range wi {
		if got.WindowLen(c) != want.WindowLen(c) {
			return fmt.Errorf("WindowLen(%d) %d, want %d", c, got.WindowLen(c), want.WindowLen(c))
		}
		gb, gok := got.WindowBounds(c)
		wb, wok := want.WindowBounds(c)
		if gok != wok || gb != wb {
			return fmt.Errorf("WindowBounds(%d) %+v,%v want %+v,%v", c, gb, gok, wb, wok)
		}
		if !batchBitEqual(got.Window(c), want.Window(c)) {
			return fmt.Errorf("window %d differs", c)
		}
	}
	return nil
}

// requireRefused opens cfg.Dir, with a stray temp file added, and requires
// ErrCheckpointFormat naming the file, with every file of the directory
// left as it was: nothing deleted, renamed or written.
func requireRefused(t *testing.T, cfg Config, file string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(cfg.Dir, checkpointName(9)+".tmp"), []byte("stray"), 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := readDir(cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(cfg)
	if err == nil {
		s.Close()
	}
	if !errors.Is(err, ErrCheckpointFormat) || !strings.Contains(err.Error(), file) {
		t.Errorf("Open = %v, want ErrCheckpointFormat naming %s", err, file)
	}
	after, err := readDir(cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range before {
		if a, ok := after[name]; !ok || !bytes.Equal(a, b) {
			t.Errorf("a refused Open changed or removed %s", name)
		}
	}
	for name := range after {
		if _, ok := before[name]; !ok {
			t.Errorf("a refused Open wrote %s", name)
		}
	}
}

// TestUnreadCheckpointVersionRefused relabels a checkpoint as version 5,
// its footer resealed — what a rollback from a later release meets — and
// requires Open to refuse the directory, leaving every file as it was:
// skipping the file would serve only the tuple appended after it, and the
// next checkpoint would delete it. A file whose header and footer disagree
// on the version is corrupt, and skipped.
func TestUnreadCheckpointVersionRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{WindowLength: 100, Dir: dir}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(mkBatch(10, 20, 30, 110, 120, 130, 210, 220, 230)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(mkBatch(240)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, checkpointName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The file's version is in its header (+4) and its trailer (the last
	// 48 bytes: +36), whose checksum (+40) covers the directory before it.
	relabel := func(header, footer uint32) []byte {
		img := slices.Clone(data)
		le := binary.LittleEndian
		trailer := img[len(img)-48:]
		dir0 := len(img) - 48 - 96*int(le.Uint32(trailer[32:]))
		le.PutUint32(img[4:], header)
		le.PutUint32(trailer[36:], footer)
		le.PutUint32(trailer[40:], crc32.Update(crc32.ChecksumIEEE(img[dir0:len(img)-48]), crc32.IEEETable, trailer[:40]))
		return img
	}

	if err := os.WriteFile(path, relabel(5, 5), 0o644); err != nil {
		t.Fatal(err)
	}
	requireRefused(t, cfg, checkpointName(0))

	if err := os.WriteFile(path, relabel(5, 4), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(cfg)
	if err != nil {
		t.Fatalf("header version 5, footer version 4: %v, want the file skipped as corrupt", err)
	}
	defer re.Close()
	if rs := re.RecoveryStats(); rs.FromCheckpoint || rs.CorruptCheckpoints != 1 {
		t.Errorf("header version 5, footer version 4: recovery %+v, want the checkpoint counted corrupt", rs)
	}
}

// TestOldCheckpointFormatsRefused opens data directories older releases
// wrote, and requires each to be refused with its directory unchanged:
// legacy-row and legacy-sidecar (commit d7f418d) checkpointed to a row
// file, checkpoint-000001.emt, the second beside a version-1 sidecar;
// v2-columnar and v3-columnar (commits bf9c3e4 and 43b7fdf) to a
// version-2 and a version-3 checkpoint-000000.emc.
func TestOldCheckpointFormatsRefused(t *testing.T) {
	for name, file := range map[string]string{
		"legacy-row":     "checkpoint-000001.emt",
		"legacy-sidecar": "checkpoint-000001.emt",
		"v2-columnar":    checkpointName(0),
		"v3-columnar":    checkpointName(0),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := copyDir(filepath.Join("testdata", name, "dir"), dir); err != nil {
				t.Fatal(err)
			}
			requireRefused(t, Config{WindowLength: 100, Retain: 4, Dir: dir}, file)
		})
	}
}

// TestOverflowingSpanFallsBack: a checkpoint whose first directory entry
// has an offset and a length that each fit in an int64 but sum past it —
// footer checksum resealed, so only the span check can catch it — is a
// corrupt checkpoint to Open: counted, skipped, and the segments replayed
// instead.
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

	re, err := Open(cfg)
	if err != nil {
		t.Fatalf("recovery must fall back: %v", err)
	}
	defer re.Close()
	if !maps.Equal(collectTuples(re), want) {
		t.Error("the fallback holds other tuples than the store held")
	}
	if rs := re.RecoveryStats(); rs.FromCheckpoint || rs.CorruptCheckpoints != 1 || rs.SegmentsReplayed != 2 {
		t.Errorf("recovery %+v: want the checkpoint counted corrupt and both segments replayed", rs)
	}
}
