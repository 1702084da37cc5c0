package store

import (
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/tuple"
)

func mkBatch(ts ...float64) tuple.Batch {
	b := make(tuple.Batch, len(ts))
	for i, t := range ts {
		b[i] = tuple.Raw{T: t, X: float64(i), Y: float64(i), S: 400 + t}
	}
	return b
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{WindowLength: 0}); err == nil {
		t.Error("expected error for zero window length")
	}
	if _, err := Open(Config{WindowLength: -5}); err == nil {
		t.Error("expected error for negative window length")
	}
	if _, err := Open(Config{WindowLength: 10, Retain: -1}); err == nil {
		t.Error("expected error for negative retain")
	}
}

func TestAppendAndWindowing(t *testing.T) {
	s := MustOpenMemory(100)
	if err := s.Append(mkBatch(0, 50, 99.9, 100, 150, 250)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 6 {
		t.Errorf("Len = %d, want 6", s.Len())
	}
	if got := len(s.Window(0)); got != 3 {
		t.Errorf("window 0 has %d tuples, want 3", got)
	}
	if got := len(s.Window(1)); got != 2 {
		t.Errorf("window 1 has %d tuples, want 2", got)
	}
	if got := len(s.Window(2)); got != 1 {
		t.Errorf("window 2 has %d tuples, want 1", got)
	}
	if got := len(s.Window(99)); got != 0 {
		t.Errorf("missing window has %d tuples, want 0", got)
	}
	if got := s.WindowIndexes(); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Errorf("WindowIndexes = %v", got)
	}
	if s.MaxTime() != 250 {
		t.Errorf("MaxTime = %v, want 250", s.MaxTime())
	}
}

func TestWindowReturnsSortedCopy(t *testing.T) {
	s := MustOpenMemory(100)
	if err := s.Append(mkBatch(50, 10, 30)); err != nil {
		t.Fatal(err)
	}
	w := s.Window(0)
	if !w.SortedByTime() {
		t.Error("window not sorted by time")
	}
	w[0].S = -999
	if s.Window(0)[0].S == -999 {
		t.Error("Window must return a copy")
	}
}

func TestAppendValidates(t *testing.T) {
	s := MustOpenMemory(100)
	bad := tuple.Batch{{T: -1}}
	if err := s.Append(bad); err == nil {
		t.Error("expected validation error")
	}
	if s.Len() != 0 {
		t.Error("failed append must not change state")
	}
	if err := s.Append(nil); err != nil {
		t.Errorf("empty append should be a no-op, got %v", err)
	}
}

func TestRetentionEviction(t *testing.T) {
	s, err := Open(Config{WindowLength: 10, Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(mkBatch(5, 15, 25, 35)); err != nil { // windows 0..3
		t.Fatal(err)
	}
	if got := s.WindowIndexes(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("retained windows = %v, want [2 3]", got)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	if len(s.Window(0)) != 0 {
		t.Error("evicted window still readable")
	}
}

func TestEmptyStore(t *testing.T) {
	s := MustOpenMemory(10)
	if got := s.WindowIndexes(); len(got) != 0 {
		t.Errorf("empty store retains windows %v", got)
	}
	if s.MaxTime() != 0 {
		t.Error("empty MaxTime should be 0")
	}
	if s.Len() != 0 {
		t.Error("empty Len should be 0")
	}
}

func TestDurabilityAndRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{WindowLength: 100, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(mkBatch(1, 2, 150)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(mkBatch(250)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: all tuples must come back.
	s2, err := Open(Config{WindowLength: 100, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 4 {
		t.Fatalf("recovered Len = %d, want 4", s2.Len())
	}
	if got := len(s2.Window(0)); got != 2 {
		t.Errorf("recovered window 0 = %d tuples, want 2", got)
	}
	if s2.MaxTime() != 250 {
		t.Errorf("recovered MaxTime = %v, want 250", s2.MaxTime())
	}
	// New appends go to a fresh segment.
	if err := s2.Append(mkBatch(300)); err != nil {
		t.Fatal(err)
	}
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Errorf("segments = %v, want 2 files", names)
	}
}

func TestRecoveryToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{WindowLength: 100, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(mkBatch(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write: append garbage to the segment.
	names, _ := segmentNames(dir)
	path := filepath.Join(dir, names[0])
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x45, 0x4d, 0x54}); err != nil { // partial magic
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(Config{WindowLength: 100, Dir: dir})
	if err != nil {
		t.Fatalf("recovery should tolerate torn tail: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 3 {
		t.Errorf("recovered Len = %d, want 3", s2.Len())
	}
}

func TestRecoveryToleratesTornTailInEarlierSegment(t *testing.T) {
	// The write path never appends after a torn frame (it truncates or
	// rotates), so a corrupt frame is always at a segment's tail — even
	// in a non-last segment left behind by a rotation. Recovery keeps the
	// frames before it and replays the remaining segments normally.
	dir := t.TempDir()
	s, err := Open(Config{WindowLength: 100, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(mkBatch(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(mkBatch(2)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Tear the tail of the FIRST segment (corrupting the second frame),
	// then add a later segment holding one more acked batch, as a
	// rotation would have.
	names, _ := segmentNames(dir)
	path := filepath.Join(dir, names[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame1 := len(appendFrame(nil, mkBatch(1)))
	data[frame1+10] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	next, err := os.Create(filepath.Join(dir, "segment-999999.emt"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := next.Write(appendFrame(nil, mkBatch(3))); err != nil {
		t.Fatal(err)
	}
	next.Close()

	s2, err := Open(Config{WindowLength: 100, Dir: dir})
	if err != nil {
		t.Fatalf("recovery should tolerate a torn segment tail: %v", err)
	}
	defer s2.Close()
	// Batches 1 and 3 survive; the torn batch 2 is lost with the tail.
	want := len(mkBatch(1)) + len(mkBatch(3))
	if s2.Len() != want {
		t.Errorf("recovered Len = %d, want %d", s2.Len(), want)
	}
}

func TestConcurrentAppendAndRead(t *testing.T) {
	s := MustOpenMemory(50)
	var wg sync.WaitGroup
	const writers = 8
	const perWriter = 200
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				b := tuple.Batch{{T: rng.Float64() * 1000, S: 400}}
				if err := s.Append(b); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Concurrent readers.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = s.Len()
				_ = s.WindowIndexes()
				_ = s.Window(i % 20)
			}
		}()
	}
	wg.Wait()
	if s.Len() != writers*perWriter {
		t.Errorf("Len = %d, want %d", s.Len(), writers*perWriter)
	}
	// Every tuple landed in its correct window.
	total := 0
	for _, c := range s.WindowIndexes() {
		w := s.Window(c)
		total += len(w)
		for _, r := range w {
			if tuple.WindowIndex(r.T, 50) != c {
				t.Fatalf("tuple %v in wrong window %d", r, c)
			}
		}
	}
	if total != writers*perWriter {
		t.Errorf("window sum = %d, want %d", total, writers*perWriter)
	}
}

func TestCloseIdempotentWithoutDurability(t *testing.T) {
	s := MustOpenMemory(10)
	if err := s.Close(); err != nil {
		t.Errorf("Close on memory store: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Errorf("Sync on memory store: %v", err)
	}
}

// failPartialWrite simulates a torn write: it emits a prefix of garbage
// bytes to the segment, then fails, leaving a partial frame behind.
func failPartialWrite(w io.Writer, _ []byte) error {
	w.Write([]byte{0x45, 0x4d, 0x54, 0x31, 0xde, 0xad}) // magic + junk
	return errors.New("disk full")
}

func TestFailedAppendTruncatesTornFrame(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{WindowLength: 100, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(mkBatch(1)); err != nil {
		t.Fatal(err)
	}
	s.writeFrame = failPartialWrite
	if err := s.Append(mkBatch(2)); err == nil {
		t.Fatal("append with failing write must error")
	}
	if s.Len() != 1 {
		t.Errorf("failed append must not be ingested: Len = %d, want 1", s.Len())
	}
	// The torn bytes must be gone: later appends land after the last good
	// frame and the whole log replays.
	s.writeFrame = writeWhole
	if err := s.Append(mkBatch(3, 4)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{WindowLength: 100, Dir: dir})
	if err != nil {
		t.Fatalf("recovery after failed append: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 3 {
		t.Errorf("recovered Len = %d, want 3 (batches 1 and 3)", s2.Len())
	}
}

func TestFailedAppendRotatesWhenTruncateFails(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{WindowLength: 100, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(mkBatch(1)); err != nil {
		t.Fatal(err)
	}
	// Tear the write AND close the segment under the store's feet, so the
	// truncate rollback fails and the store must rotate.
	s.writeFrame = func(w io.Writer, _ []byte) error {
		w.Write([]byte{0x45, 0x4d, 0x54, 0x31, 0xde, 0xad})
		s.seg.f.Close()
		return errors.New("disk failure")
	}
	if err := s.Append(mkBatch(2)); err == nil {
		t.Fatal("append with failing write must error")
	}
	s.writeFrame = writeWhole
	if err := s.Append(mkBatch(3, 4)); err != nil {
		t.Fatalf("append after rotation: %v", err)
	}
	names, _ := segmentNames(dir)
	if len(names) != 2 {
		t.Fatalf("got segments %v, want a rotated second segment", names)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash-recovery: the torn frame sits at the abandoned segment's
	// tail; every acked batch replays.
	s2, err := Open(Config{WindowLength: 100, Dir: dir})
	if err != nil {
		t.Fatalf("recovery after rotation: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 3 {
		t.Errorf("recovered Len = %d, want 3 (batches 1 and 3)", s2.Len())
	}
}

func TestRecoverEnforcesRetain(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{WindowLength: 100, Dir: dir, Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 6; c++ {
		if err := s.Append(mkBatch(float64(c)*100 + 50)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.WindowIndexes()); got != 2 {
		t.Fatalf("running store retains %d windows, want 2", got)
	}
	s.Close()

	// Segments still hold every window ever appended; replay must re-apply
	// the retention bound instead of resurrecting them all.
	s2, err := Open(Config{WindowLength: 100, Dir: dir, Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.WindowIndexes(); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Errorf("recovered WindowIndexes = %v, want [4 5]", got)
	}
}

func TestOnEvictHook(t *testing.T) {
	s, err := Open(Config{WindowLength: 100, Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var evicted []int
	s.OnEvict(func(ws []int) {
		mu.Lock()
		evicted = append(evicted, ws...)
		mu.Unlock()
	})
	for c := 0; c < 5; c++ {
		if err := s.Append(mkBatch(float64(c)*100 + 50)); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(evicted) != 3 || evicted[0] != 0 || evicted[1] != 1 || evicted[2] != 2 {
		t.Errorf("evicted = %v, want [0 1 2]", evicted)
	}
}

func TestRecoveryRejectsCorruptionFollowedByIntactFrames(t *testing.T) {
	// A corrupt frame with intact frames after it inside one segment
	// cannot be produced by the write discipline (nothing is written
	// after a torn frame) — it is real damage, and recovery must fail
	// loudly instead of silently dropping the acked frames behind it.
	dir := t.TempDir()
	s, err := Open(Config{WindowLength: 100, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(mkBatch(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(mkBatch(2)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	names, _ := segmentNames(dir)
	path := filepath.Join(dir, names[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0xFF // corrupt the FIRST frame; the second stays intact
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{WindowLength: 100, Dir: dir}); err == nil {
		t.Error("expected error for corruption followed by intact frames")
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{WindowLength: 100, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(mkBatch(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(mkBatch(2)); err == nil {
		t.Error("durable append after Close must fail")
	}
	names, _ := segmentNames(dir)
	if len(names) != 1 {
		t.Errorf("Close must not leave reopened segments: %v", names)
	}
}

func TestOnEvictUnregister(t *testing.T) {
	s, err := Open(Config{WindowLength: 100, Retain: 1})
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	unregister := s.OnEvict(func([]int) { calls++ })
	if err := s.Append(mkBatch(50, 150)); err != nil { // evicts window 0
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	unregister()
	if err := s.Append(mkBatch(250)); err != nil { // evicts window 1
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("unregistered hook still fired (calls = %d)", calls)
	}
}
