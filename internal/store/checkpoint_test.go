package store

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/geo"
	"repro/internal/tuple"
)

// collectTuples flattens every retained window into one multiset keyed
// by the raw tuple value.
func collectTuples(s *Store) map[tuple.Raw]int {
	out := make(map[tuple.Raw]int)
	for _, c := range s.WindowIndexes() {
		for _, r := range s.Window(c) {
			out[r]++
		}
	}
	return out
}

func sameTuples(t *testing.T, got, want map[tuple.Raw]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("distinct tuples: got %d, want %d", len(got), len(want))
	}
	for r, n := range want {
		if got[r] != n {
			t.Fatalf("tuple %v: got %d copies, want %d", r, got[r], n)
		}
	}
}

func TestCheckpointRecoversWithSuffixReplayOnly(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{WindowLength: 100, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(mkBatch(10, 20, 150)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(mkBatch(250)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint appends land in the rotated segment and must
	// replay on top of the checkpoint.
	if err := s.Append(mkBatch(260, 350)); err != nil {
		t.Fatal(err)
	}
	want := collectTuples(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{WindowLength: 100, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	sameTuples(t, collectTuples(s2), want)
	rs := s2.RecoveryStats()
	if !rs.FromCheckpoint {
		t.Fatal("recovery ignored the checkpoint")
	}
	if rs.CheckpointSeq != 0 {
		t.Errorf("CheckpointSeq = %d, want 0", rs.CheckpointSeq)
	}
	if rs.CheckpointTuples != 4 {
		t.Errorf("CheckpointTuples = %d, want 4", rs.CheckpointTuples)
	}
	if rs.SegmentsReplayed != 1 || rs.TuplesReplayed != 2 {
		t.Errorf("replayed %d segments / %d tuples, want exactly the post-checkpoint suffix (1 / 2)",
			rs.SegmentsReplayed, rs.TuplesReplayed)
	}
	if rs.CorruptCheckpoints != 0 {
		t.Errorf("CorruptCheckpoints = %d, want 0", rs.CorruptCheckpoints)
	}
	// The recovered checkpoint is the newest committed one; its
	// counters must survive the restart.
	if st := s2.CheckpointStats(); st.LastSeq != 0 || st.LastTuples != 4 {
		t.Errorf("restored checkpoint counters = %+v, want LastSeq 0, LastTuples 4", st)
	}
}

func TestCheckpointBoundsOnDiskSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{WindowLength: 100, Dir: dir, Retain: 4, KeepSegments: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 8; i++ {
		if err := s.Append(mkBatch(float64(i*100+10), float64(i*100+20))); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		names, err := segmentNames(dir)
		if err != nil {
			t.Fatal(err)
		}
		// One kept covered segment plus the freshly rotated open one.
		if len(names) > 2 {
			t.Fatalf("round %d: %d segments on disk (%v), want ≤ 2", i, len(names), names)
		}
		// Beside the segments: MANIFEST and the one checkpoint file.
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var others []string
		for _, e := range entries {
			if _, seg := parseSeq(e.Name(), "segment-", segExt); !seg {
				others = append(others, e.Name())
			}
		}
		if want := []string{manifestName, checkpointName(i)}; !slices.Equal(others, want) {
			t.Fatalf("round %d: files beside the segments %v, want %v", i, others, want)
		}
	}
	st := s.CheckpointStats()
	if st.Checkpoints != 8 || st.Failures != 0 {
		t.Errorf("CheckpointStats = %+v, want 8 checkpoints, 0 failures", st)
	}
	if st.SegmentsDeleted == 0 {
		t.Error("compaction deleted no segments")
	}
}

func TestCheckpointMemoryStoreIsNoop(t *testing.T) {
	s := MustOpenMemory(100)
	if err := s.Append(mkBatch(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Errorf("memory-store checkpoint: %v", err)
	}
	if st := s.CheckpointStats(); st.Checkpoints != 0 {
		t.Errorf("memory store counted a checkpoint: %+v", st)
	}
}

func TestCheckpointEmptyStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{WindowLength: 100, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Config{WindowLength: 100, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 0 {
		t.Errorf("Len = %d, want 0", s2.Len())
	}
	if !s2.RecoveryStats().FromCheckpoint {
		t.Error("empty checkpoint should still be used")
	}
}

func TestCheckpointAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{WindowLength: 100, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err == nil {
		t.Error("checkpoint after Close must fail")
	}
}

func TestRecoverFallsBackToFullReplayOnCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	// KeepSegments large enough that compaction spares every covered
	// segment: the fallback then loses nothing.
	s, err := Open(Config{WindowLength: 100, Dir: dir, KeepSegments: 100})
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

	path := filepath.Join(dir, checkpointName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // corrupt the footer
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{WindowLength: 100, Dir: dir, KeepSegments: 100})
	if err != nil {
		t.Fatalf("recovery must fall back on a corrupt checkpoint: %v", err)
	}
	defer s2.Close()
	sameTuples(t, collectTuples(s2), want)
	rs := s2.RecoveryStats()
	if rs.FromCheckpoint {
		t.Error("corrupt checkpoint was trusted")
	}
	if rs.CorruptCheckpoints != 1 {
		t.Errorf("CorruptCheckpoints = %d, want 1", rs.CorruptCheckpoints)
	}
	if rs.SegmentsReplayed != 2 {
		t.Errorf("SegmentsReplayed = %d, want 2 (full replay)", rs.SegmentsReplayed)
	}
}

func TestRecoverFallsBackToOlderValidCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{WindowLength: 100, Dir: dir, KeepSegments: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Keep superseded checkpoints on disk so an older candidate exists.
	realRemove := s.removeFile
	s.removeFile = func(path string) error {
		if _, ok := parseSeq(filepath.Base(path), "checkpoint-", ckExt); ok {
			return nil
		}
		return realRemove(path)
	}
	if err := s.Append(mkBatch(10, 20)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil { // checkpoint 0
		t.Fatal(err)
	}
	if err := s.Append(mkBatch(150)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil { // checkpoint 1
		t.Fatal(err)
	}
	if err := s.Append(mkBatch(250)); err != nil {
		t.Fatal(err)
	}
	want := collectTuples(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the newest (manifest-committed) checkpoint; recovery must
	// fall back to checkpoint 0 and replay everything after ITS horizon.
	path := filepath.Join(dir, checkpointName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[8] ^= 0xFF // corrupt the first block
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{WindowLength: 100, Dir: dir, KeepSegments: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	sameTuples(t, collectTuples(s2), want)
	rs := s2.RecoveryStats()
	if !rs.FromCheckpoint || rs.CheckpointSeq != 0 {
		t.Errorf("recovery = %+v, want fallback to checkpoint 0", rs)
	}
	if rs.CorruptCheckpoints != 1 {
		t.Errorf("CorruptCheckpoints = %d, want 1", rs.CorruptCheckpoints)
	}
	// New checkpoints must number past the corrupt one, never reuse it.
	if err := s2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := s2.CheckpointStats(); st.LastSeq != 2 {
		t.Errorf("next checkpoint seq = %d, want 2", st.LastSeq)
	}
}

func TestRecoverHealsManifestForOrphanCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{WindowLength: 100, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(mkBatch(10, 150)); err != nil {
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
	// Crash scenario: the checkpoint file was renamed into place but
	// the MANIFEST commit was lost.
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{WindowLength: 100, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !s2.RecoveryStats().FromCheckpoint {
		t.Fatal("orphan checkpoint not used")
	}
	sameTuples(t, collectTuples(s2), want)
	// Recovery must have re-committed the checkpoint it used, so the
	// next restart agrees with this one even after compaction.
	if seq, _, err := readManifest(dir); err != nil || seq != 0 {
		t.Fatalf("manifest not healed: seq=%d err=%v", seq, err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(Config{WindowLength: 100, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	sameTuples(t, collectTuples(s3), want)
	if rs := s3.RecoveryStats(); !rs.FromCheckpoint || rs.CorruptCheckpoints != 0 {
		t.Errorf("second restart recovery = %+v", rs)
	}
}

func TestRecoverDeletesRetentionDeadSegments(t *testing.T) {
	dir := t.TempDir()
	// Build six single-window segments via reopen cycles (each Open
	// starts a fresh segment) — no checkpoints involved.
	for c := 0; c < 6; c++ {
		s, err := Open(Config{WindowLength: 100, Dir: dir, Retain: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Append(mkBatch(float64(c*100 + 50))); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(Config{WindowLength: 100, Dir: dir, Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.WindowIndexes(); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Fatalf("retained windows = %v, want [4 5]", got)
	}
	if rs := s.RecoveryStats(); rs.SegmentsDeleted == 0 {
		t.Errorf("retention-dead segments not reclaimed: %+v", rs)
	}
	// The survivors must still cover the retained windows on yet
	// another restart.
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if seq, _ := parseSeq(name, "segment-", segExt); seq < 4 {
			// Segments 0..3 hold only windows 0..3 — all dead. (Empty
			// reopen segments may persist; they hold no data.)
			f, err := os.Stat(filepath.Join(dir, name))
			if err == nil && f.Size() > 0 {
				t.Errorf("dead segment %s (size %d) survived", name, f.Size())
			}
		}
	}
	s.Close()
	s2, err := Open(Config{WindowLength: 100, Dir: dir, Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.WindowIndexes(); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Errorf("second restart windows = %v, want [4 5]", got)
	}
}

func TestCheckpointConcurrentWithAppends(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{WindowLength: 100, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	const perWriter = 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				b := tuple.Batch{{T: float64(w*1000 + i), S: 400}}
				if err := s.Append(b); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 5; i++ {
		if err := s.Checkpoint(); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := collectTuples(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Config{WindowLength: 100, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	sameTuples(t, collectTuples(s2), want)
	if s2.Len() != writers*perWriter {
		t.Errorf("recovered Len = %d, want %d", s2.Len(), writers*perWriter)
	}
}

// TestCheckpointSharesWindowsWithWriters runs back-to-back checkpoints
// against a store that is being appended to (growing the windows the
// checkpoint is encoding from, and evicting others), read through every
// window accessor, and restarted in between: the checkpoint takes slice
// headers, not copies, of the windows, and its release step cuts them down
// to what was appended since, so under -race this is the test that would
// catch anything writing below a window's length or reading a window
// half-released. The appends go to a memory-only reference store too, under
// a lock the readers share, so every read — while checkpoints write,
// release and compact freely — must equal the reference's: bit for bit and,
// timestamps tying, in append order.
func TestCheckpointSharesWindowsWithWriters(t *testing.T) {
	cfg := Config{WindowLength: 100, Retain: 3, Dir: t.TempDir(), Sync: SyncNever()}
	ref, err := Open(Config{WindowLength: cfg.WindowLength, Retain: cfg.Retain})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	win := 0
	var released int64
	for phase := 0; phase < 3; phase++ {
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireSameState(t, fmt.Sprintf("open %d", phase), s, ref)
		if phase > 0 {
			// The previous phase's windows are lazy again for this one.
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = Open(cfg); err != nil {
				t.Fatal(err)
			}
		}
		done := make(chan struct{})
		running := func() bool {
			select {
			case <-done:
				return false
			default:
				return true
			}
		}
		// feed orders the readers against the appends (never against the
		// checkpoints): an append reaches both stores or neither.
		var feed sync.RWMutex
		// appended counts the appends; covered is the highest count a
		// finished checkpoint read before it began. Every 25 appends the
		// writer waits for them to be covered, so checkpoints interleave
		// with the appends however the goroutines are scheduled (even on
		// one CPU), and every phase ends with a checkpoint of all it
		// appended.
		var appended, covered atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for running() {
					n := appended.Load()
					if err := s.Checkpoint(); err != nil {
						t.Error(err)
						return
					}
					for c := covered.Load(); c < n && !covered.CompareAndSwap(c, n); c = covered.Load() {
					}
				}
			}()
		}
		reader := func(read func(i, c int) string) {
			defer wg.Done()
			for i := 0; running(); i++ {
				feed.RLock()
				idxs := ref.WindowIndexes()
				if got := s.WindowIndexes(); !slices.Equal(got, idxs) {
					t.Errorf("windows %v, reference %v", got, idxs)
				} else if got, want := s.Len(), ref.Len(); got != want {
					t.Errorf("Len %d, reference %d", got, want)
				} else if len(idxs) > 0 {
					//lockcheck:allow the read must see both stores between the same two appends
					if diff := read(i, idxs[i%len(idxs)]); diff != "" {
						t.Errorf("phase %d window %d: %s", phase, idxs[i%len(idxs)], diff)
					}
				}
				feed.RUnlock()
				if t.Failed() {
					return
				}
			}
		}
		wg.Add(3)
		var buf, refBuf tuple.Batch // the WindowInto reader's own
		go reader(func(_, c int) string {
			buf, refBuf = s.WindowInto(buf[:0], c), ref.WindowInto(refBuf[:0], c)
			if !batchBitEqual(buf, refBuf) {
				return fmt.Sprintf("WindowInto: %d tuples, reference %d, or not the same ones in the same order", len(buf), len(refBuf))
			}
			return ""
		})
		go reader(func(i, c int) string {
			box := geo.Rect{Min: geo.Point{X: float64(i%7) * 500, Y: -800}, Max: geo.Point{X: float64(i%7)*500 + 1500, Y: 2000}}
			got := s.WindowRegion(c, box)
			var want tuple.Batch
			for _, tp := range ref.Window(c) {
				if box.Contains(tp.Pos()) {
					want = append(want, tp)
				}
			}
			// The region scan promises the set, not the order.
			byX := func(a, b tuple.Raw) int { return cmp.Compare(a.X, b.X) }
			slices.SortFunc(got, byX)
			slices.SortFunc(want, byX)
			if !batchBitEqual(got, want) {
				return fmt.Sprintf("WindowRegion: %d tuples, reference %d", len(got), len(want))
			}
			return ""
		})
		go reader(func(_, c int) string {
			gb, gok := s.WindowBounds(c)
			wb, wok := ref.WindowBounds(c)
			if gb != wb || gok != wok || s.WindowLen(c) != ref.WindowLen(c) {
				return fmt.Sprintf("WindowBounds %+v,%v WindowLen %d, reference %+v,%v and %d", gb, gok, s.WindowLen(c), wb, wok, ref.WindowLen(c))
			}
			return ""
		})
		for i := 0; i < 150 && !t.Failed(); i++ {
			if i%25 == 24 {
				win++ // a new window: the oldest retained one is evicted
			}
			lo := max(win-2, 0) // late arrivals into every retained window
			b := randBatch(rng, 40, float64(lo*100), float64(win*100+100))
			for j := range b {
				b[j].T = math.Floor(b[j].T/5) * 5 // ties: the stable time order shows the append order
			}
			feed.Lock()
			err := s.Append(b)
			if err == nil {
				err = ref.Append(b)
			}
			feed.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			if n := appended.Add(1); (i+1)%25 == 0 {
				for covered.Load() < n && !t.Failed() {
					runtime.Gosched()
				}
			}
		}
		close(done)
		wg.Wait()
		requireSameState(t, fmt.Sprintf("phase %d, quiet", phase), s, ref)
		released += s.ColumnarStats().LazyWindows
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if released == 0 {
		t.Error("no phase ended with a window released to a checkpoint file: the test did not exercise the release")
	}
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	requireSameState(t, "final open", re, ref)
}

// TestCheckpointReleaseSkipsEvictedWindows evicts windows between a
// checkpoint's snapshot and its release — windows that were never
// checkpointed before, so only the snapshot knows them. The file holds
// them; the store no longer does, and the release must not bring them
// back.
func TestCheckpointReleaseSkipsEvictedWindows(t *testing.T) {
	cfg := Config{WindowLength: 100, Retain: 2, Dir: t.TempDir(), Sync: SyncNever()}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ref, err := Open(Config{WindowLength: cfg.WindowLength, Retain: cfg.Retain})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(24))
	add := func(lo, hi float64) {
		t.Helper()
		b := randBatch(rng, 80, lo, hi)
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
		if err := ref.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	add(0, 200)
	renames := 0
	s.renameFile = func(oldpath, newpath string) error {
		if renames++; renames == 1 {
			add(100, 400) // the file is written: window 0, then window 1, leave the store
		}
		return os.Rename(oldpath, newpath)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := s.WindowIndexes(); !slices.Equal(got, []int{2, 3}) {
		t.Fatalf("windows %v after the checkpoint, want [2 3]", got)
	}
	if cs := s.ColumnarStats(); cs.LazyWindows != 0 {
		t.Errorf("stats %+v: the only windows the checkpoint holds were evicted", cs)
	}
	requireSameState(t, "after the checkpoint", s, ref)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if cs := s.ColumnarStats(); cs.LazyWindows != 2 {
		t.Errorf("stats %+v: want windows 2 and 3 released by the next checkpoint", cs)
	}
	requireSameState(t, "after the next checkpoint", s, ref)
}

// TestCheckpointWriteFailureKeepsPrevious fails the checkpoint file's
// rename, then the MANIFEST's: each attempt is counted in Failures, the
// previous checkpoint stays the one recovery uses, and no tuple is lost.
func TestCheckpointWriteFailureKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{WindowLength: 100, Dir: dir}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	failOn := ""
	s.renameFile = func(oldpath, newpath string) error {
		if failOn != "" && filepath.Base(newpath) == failOn {
			return errInjected
		}
		return os.Rename(oldpath, newpath)
	}
	if err := s.Append(mkBatch(10, 150)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{checkpointName(1), manifestName} {
		if err := s.Append(mkBatch(float64(250 + 100*i))); err != nil {
			t.Fatal(err)
		}
		failOn = name
		if err := s.Checkpoint(); !errors.Is(err, errInjected) {
			t.Fatalf("checkpoint with a failing rename of %s: %v", name, err)
		}
		st := s.CheckpointStats()
		if st.Failures != int64(i+1) || st.Checkpoints != 1 || st.LastSeq != 0 {
			t.Fatalf("after a failed rename of %s: %+v", name, st)
		}
		if cs := s.ColumnarStats(); cs.SidecarsWritten != 1 {
			t.Fatalf("after a failed rename of %s: %+v counts an uncommitted file", name, cs)
		}
	}
	want := collectTuples(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Errorf("a failed checkpoint left %s behind", e.Name())
		}
	}
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rs := re.RecoveryStats(); !rs.FromCheckpoint || rs.CheckpointSeq != 0 || rs.CorruptCheckpoints != 0 {
		t.Fatalf("recovery %+v: want the committed checkpoint 0", rs)
	}
	sameTuples(t, collectTuples(re), want)
}
