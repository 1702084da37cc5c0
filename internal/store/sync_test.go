package store

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestSyncEveryBatchIsDefault checks the satellite fix: a durable store
// with a zero Sync policy fsyncs every append before acknowledging it.
func TestSyncEveryBatchIsDefault(t *testing.T) {
	s, err := Open(Config{WindowLength: 100, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for c := 0; c < 5; c++ {
		if err := s.Append(mkBatch(float64(c) * 100)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.DurabilityStats()
	if st.Appends != 5 || st.Syncs != 5 {
		t.Fatalf("DurabilityStats = %+v, want 5 appends and 5 syncs", st)
	}
	// The ack waits on that fsync: when it fails, so does the append.
	s.syncSeg = func(*os.File) error { return os.ErrInvalid }
	if err := s.Append(mkBatch(500)); !errors.Is(err, os.ErrInvalid) {
		t.Fatalf("append acked despite a failed fsync: %v", err)
	}
}

// TestSyncNeverIssuesNoAppendSyncs checks the historical weak guarantee
// is still available, explicitly: only Sync and Close fsync, and the first
// of them fsyncs the new segment's directory entry too.
func TestSyncNeverIssuesNoAppendSyncs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{WindowLength: 100, Dir: dir, Sync: SyncNever()})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 5; c++ {
		if err := s.Append(mkBatch(float64(c) * 100)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.DurabilityStats(); st.Syncs != 0 {
		t.Fatalf("DurabilityStats = %+v, want 0 syncs before Close", st)
	}
	var synced []string
	s.syncSeg = func(f *os.File) error { synced = append(synced, filepath.Base(f.Name())); return f.Sync() }
	if err := errors.Join(s.Sync(), s.Close()); err != nil {
		t.Fatal(err)
	}
	if st := s.DurabilityStats(); st.Syncs != 2 || !slices.Equal(synced, []string{"segment-000000.emt", filepath.Base(dir), "segment-000000.emt"}) {
		t.Fatalf("DurabilityStats = %+v after Sync and Close, which fsynced %q", st, synced)
	}
}

// TestNewSegmentEntrySyncedBeforeAck: under SyncEveryBatch an append is
// acknowledged only once its segment's directory entry is durable too,
// since an fsync of a new file does not flush its entry. The first append
// on each new segment fsyncs the directory after the file, and later ones
// do not: on the segment Open creates, on the one a failed write rotates
// to, and on the one a checkpoint rotates to, for an append that lands
// before the checkpoint's own directory fsync.
func TestNewSegmentEntrySyncedBeforeAck(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{WindowLength: 100, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var synced []string
	s.syncSeg = func(f *os.File) error {
		synced = append(synced, filepath.Base(f.Name()))
		return f.Sync()
	}
	appendSyncs := func(when string, want ...string) {
		t.Helper()
		synced = nil
		if err := s.Append(mkBatch(1)); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(synced, want) {
			t.Errorf("%s: an append fsynced %q, want %q", when, synced, want)
		}
	}
	data := filepath.Base(dir)
	appendSyncs("after Open", "segment-000000.emt", data)
	appendSyncs("later", "segment-000000.emt")

	// A torn write whose truncate fails too: the store rotates.
	writer := s.writer
	s.writer = func(f *os.File) io.Writer {
		return writeFunc(func(p []byte) (int, error) {
			f.Write(p[:len(p)/2])
			f.Close()
			return len(p) / 2, errInjected
		})
	}
	if err := s.Append(mkBatch(1)); !errors.Is(err, errInjected) {
		t.Fatalf("append with a failing write: %v", err)
	}
	s.writer = writer
	appendSyncs("after a rotation", "segment-000001.emt", data)

	// An append held in the rename of the checkpoint file.
	s.renameFile = func(oldpath, newpath string) error {
		if filepath.Base(newpath) == checkpointName(0) {
			appendSyncs("mid-checkpoint", "segment-000002.emt", data)
		}
		return os.Rename(oldpath, newpath)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	appendSyncs("after the checkpoint", "segment-000002.emt")
}
