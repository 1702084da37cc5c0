package store

import (
	"errors"
	"os"
	"testing"

	"repro/internal/tuple"
)

func syncBatch(c int, h float64, n int) tuple.Batch {
	b := make(tuple.Batch, n)
	for i := range b {
		b[i] = tuple.Raw{T: float64(c)*h + float64(i), X: float64(i), Y: 1, S: 400}
	}
	return b
}

// TestSyncEveryBatchIsDefault checks the satellite fix: a durable store
// with a zero Sync policy fsyncs every append before acknowledging it.
func TestSyncEveryBatchIsDefault(t *testing.T) {
	s, err := Open(Config{WindowLength: 100, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for c := 0; c < 5; c++ {
		if err := s.Append(syncBatch(c, 100, 3)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.DurabilityStats()
	if st.Appends != 5 || st.Syncs != 5 {
		t.Fatalf("DurabilityStats = %+v, want 5 appends and 5 syncs", st)
	}
	// The ack waits on that fsync: when it fails, so does the append.
	s.syncSeg = func(*os.File) error { return os.ErrInvalid }
	if err := s.Append(syncBatch(5, 100, 3)); !errors.Is(err, os.ErrInvalid) {
		t.Fatalf("append acked despite a failed fsync: %v", err)
	}
}

// TestSyncNeverIssuesNoAppendSyncs checks the historical weak guarantee
// is still available, explicitly.
func TestSyncNeverIssuesNoAppendSyncs(t *testing.T) {
	s, err := Open(Config{WindowLength: 100, Dir: t.TempDir(), Sync: SyncNever()})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 5; c++ {
		if err := s.Append(syncBatch(c, 100, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.DurabilityStats(); st.Syncs != 0 {
		t.Fatalf("DurabilityStats = %+v, want 0 syncs before Close", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.DurabilityStats(); st.Syncs != 1 {
		t.Fatalf("DurabilityStats = %+v, want exactly the Close sync", st)
	}
}

// TestSyncRejectsUnknownMode guards the config validation.
func TestSyncRejectsUnknownMode(t *testing.T) {
	_, err := Open(Config{WindowLength: 100, Sync: SyncPolicy{Mode: SyncMode(42)}})
	if err == nil {
		t.Fatal("Open accepted an unknown sync mode")
	}
}
