package store

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/colblock"
	"repro/internal/tuple"
)

// The crash-injection harness drives a scripted append/checkpoint
// workload through a store whose disk operations — frame writes, fsyncs,
// renames, removes — are instrumented. Two matrices run for every sync
// policy:
//
//   - The snapshot matrix copies the whole directory immediately BEFORE
//     every disk operation, i.e. the exact on-disk state a crash at that
//     instant would leave behind (modulo lost page cache, which the
//     fsync discipline, not this harness, protects against). Every
//     snapshot must reopen cleanly, contain every batch acknowledged by
//     then, contain nothing that was never appended, and — when a
//     committed checkpoint is present — recover from it and replay only
//     the segment suffix behind its horizon.
//
//   - The fault matrix re-runs the workload once per operation index,
//     failing exactly that operation. The store must degrade gracefully
//     (failed appends unacknowledged, failed checkpoints aborted), keep
//     working afterwards, and a reopen must surface every batch that was
//     acknowledged despite the fault.

// crashPolicies are the sync policies the matrices cover.
var crashPolicies = []struct {
	name string
	sync SyncPolicy
}{
	{"every", SyncEveryBatch()},
	{"never", SyncNever()},
}

// crashStep is one scripted workload action.
type crashStep struct {
	batch      tuple.Batch // nil = checkpoint
	checkpoint bool
}

// crashWorkload spans four windows with two checkpoints, so the matrix
// crosses segment writes, checkpoint temp/rename commits, manifest
// replacement, and two rounds of compaction (the second removes the
// first's checkpoint file).
func crashWorkload() []crashStep {
	return []crashStep{
		{batch: mkBatch(10, 20)},
		{batch: mkBatch(150)},
		{checkpoint: true},
		{batch: mkBatch(160, 250)},
		{checkpoint: true},
		{batch: mkBatch(350)},
	}
}

// harness instruments a store's disk operations with fn, which runs
// before each operation and may veto it by returning an error.
func harness(s *Store, fn func(op string) error) {
	s.writeFrame = func(w io.Writer, frame []byte) error {
		if err := fn("write"); err != nil {
			return err
		}
		return writeWhole(w, frame)
	}
	s.syncSeg = func(f *os.File) error {
		if err := fn("sync"); err != nil {
			return err
		}
		return f.Sync()
	}
	s.renameFile = func(oldpath, newpath string) error {
		if err := fn("rename"); err != nil {
			return err
		}
		return os.Rename(oldpath, newpath)
	}
	s.removeFile = func(path string) error {
		if err := fn("remove"); err != nil {
			return err
		}
		return os.Remove(path)
	}
}

func addTuples(dst map[tuple.Raw]int, b tuple.Batch) {
	for _, r := range b {
		dst[r]++
	}
}

func cloneTuples(src map[tuple.Raw]int) map[tuple.Raw]int {
	out := make(map[tuple.Raw]int, len(src))
	for r, n := range src {
		out[r] = n
	}
	return out
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// expectedRecovery is an independent oracle for what Open must do with
// dir: which checkpoint (if any) a recovery must use, and how many
// segments form the replay suffix.
func expectedRecovery(t *testing.T, dir string) (fromCheckpoint bool, seq, suffix int) {
	t.Helper()
	segNames, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	cks, err := checkpointFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if manSeq, _, err := readManifest(dir); err == nil {
		sort.SliceStable(cks, func(i, j int) bool { return cks[i].seq == manSeq && cks[j].seq != manSeq })
	}
	for _, ck := range cks {
		// The oracle decodes every tuple (colblock.Verify), where Open
		// only checksums the blocks.
		img, err := os.ReadFile(filepath.Join(dir, ck.name))
		if err != nil || colblock.Verify(img) != nil {
			continue
		}
		rd, err := colblock.OpenBytes(img)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, name := range segNames {
			if sq, _ := parseSeq(name, "segment-", segExt); sq > rd.Meta().Horizon {
				n++
			}
		}
		return true, ck.seq, n
	}
	return false, 0, len(segNames)
}

// verifyCrashState opens a crash-consistent directory and checks the
// acknowledged-data and replay-counter invariants.
func verifyCrashState(t *testing.T, label, dir string, acked, ceiling map[tuple.Raw]int) {
	t.Helper()
	wantFromCk, wantSeq, wantSuffix := expectedRecovery(t, dir)
	re, err := Open(Config{WindowLength: 100, Dir: dir})
	if err != nil {
		t.Fatalf("%s: reopen failed: %v", label, err)
	}
	defer re.Close()
	got := collectTuples(re)
	for r, n := range acked {
		if got[r] < n {
			t.Fatalf("%s: acknowledged tuple %v lost (%d/%d copies)", label, r, got[r], n)
		}
	}
	for r, n := range got {
		if n > ceiling[r] {
			t.Fatalf("%s: tuple %v recovered %d times, only %d ever appended", label, r, n, ceiling[r])
		}
	}
	rs := re.RecoveryStats()
	if rs.FromCheckpoint != wantFromCk {
		t.Fatalf("%s: FromCheckpoint = %v, oracle says %v", label, rs.FromCheckpoint, wantFromCk)
	}
	if wantFromCk && rs.CheckpointSeq != wantSeq {
		t.Fatalf("%s: recovered from checkpoint %d, oracle says %d", label, rs.CheckpointSeq, wantSeq)
	}
	if rs.SegmentsReplayed != wantSuffix {
		t.Fatalf("%s: replayed %d segments, oracle says %d", label, rs.SegmentsReplayed, wantSuffix)
	}
}

// TestCrashSnapshotMatrix captures the directory before every disk
// operation of the workload and proves each such crash state recovers.
func TestCrashSnapshotMatrix(t *testing.T) {
	for _, pol := range crashPolicies {
		pol := pol
		t.Run(pol.name, func(t *testing.T) {
			dir := t.TempDir()
			snapRoot := t.TempDir()
			s, err := Open(Config{WindowLength: 100, Dir: dir, Sync: pol.sync})
			if err != nil {
				t.Fatal(err)
			}

			type snap struct {
				label   string
				dir     string
				acked   map[tuple.Raw]int
				ceiling map[tuple.Raw]int
			}
			var (
				mu       sync.Mutex
				snaps    []snap
				acked    = map[tuple.Raw]int{}
				inflight tuple.Batch
			)
			ceiling := map[tuple.Raw]int{}
			for _, st := range crashWorkload() {
				addTuples(ceiling, st.batch)
			}
			harness(s, func(op string) error {
				mu.Lock()
				defer mu.Unlock()
				idx := len(snaps)
				d := filepath.Join(snapRoot, fmt.Sprintf("op%03d", idx))
				copyDir(t, dir, d)
				// A crash before this op may still surface the append in
				// flight (its frame can already be on disk), so the upper
				// bound is acked plus the in-flight batch.
				ceil := cloneTuples(acked)
				addTuples(ceil, inflight)
				snaps = append(snaps, snap{
					label:   fmt.Sprintf("%s/op%03d(%s)", pol.name, idx, op),
					dir:     d,
					acked:   cloneTuples(acked),
					ceiling: ceil,
				})
				return nil
			})

			for _, st := range crashWorkload() {
				if st.checkpoint {
					if err := s.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					continue
				}
				mu.Lock()
				inflight = st.batch
				mu.Unlock()
				if err := s.Append(st.batch); err != nil {
					t.Fatal(err)
				}
				mu.Lock()
				inflight = nil
				addTuples(acked, st.batch)
				mu.Unlock()
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			if len(snaps) < 10 {
				t.Fatalf("harness captured only %d operations; instrumentation broken?", len(snaps))
			}
			for _, sn := range snaps {
				verifyCrashState(t, sn.label, sn.dir, sn.acked, sn.ceiling)
			}
			// The final (cleanly closed) state must hold exactly the
			// acknowledged data.
			verifyCrashState(t, pol.name+"/final", dir, acked, ceiling)
		})
	}
}

var errInjected = errors.New("injected fault")

// countWorkloadOps dry-runs the workload to size the fault matrix.
func countWorkloadOps(t *testing.T, pol SyncPolicy) int {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(Config{WindowLength: 100, Dir: dir, Sync: pol})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	var mu sync.Mutex
	harness(s, func(string) error {
		mu.Lock()
		n++
		mu.Unlock()
		return nil
	})
	for _, st := range crashWorkload() {
		if st.checkpoint {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		} else if err := s.Append(st.batch); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	return n
}

// TestCrashFaultInjectionMatrix fails every disk operation of the
// workload in turn (one fault per run) and proves no acknowledged batch
// is ever lost and the store keeps functioning after the fault.
func TestCrashFaultInjectionMatrix(t *testing.T) {
	for _, pol := range crashPolicies {
		pol := pol
		t.Run(pol.name, func(t *testing.T) {
			total := countWorkloadOps(t, pol.sync)
			for k := 0; k < total; k++ {
				label := fmt.Sprintf("%s/fault%03d", pol.name, k)
				dir := t.TempDir()
				s, err := Open(Config{WindowLength: 100, Dir: dir, Sync: pol.sync})
				if err != nil {
					t.Fatal(err)
				}
				var (
					mu    sync.Mutex
					idx   int
					acked = map[tuple.Raw]int{}
				)
				harness(s, func(op string) error {
					mu.Lock()
					defer mu.Unlock()
					idx++
					if idx-1 == k {
						return fmt.Errorf("%w: %s op %d", errInjected, op, k)
					}
					return nil
				})
				ceiling := map[tuple.Raw]int{}
				for _, st := range crashWorkload() {
					addTuples(ceiling, st.batch)
					if st.checkpoint {
						// A vetoed checkpoint (or a vetoed compaction
						// after a committed one) reports its error but
						// must never lose acknowledged data.
						_ = s.Checkpoint()
						continue
					}
					if err := s.Append(st.batch); err == nil {
						addTuples(acked, st.batch)
					}
				}
				// The store must still accept work after the fault. The
				// injected fault may land on this very append (earlier
				// vetoed operations shorten the sequence) — but it fires
				// only once, so the retry must succeed.
				heal := mkBatch(420)
				addTuples(ceiling, heal)
				if err := s.Append(heal); err == nil {
					addTuples(acked, heal)
				} else {
					heal2 := mkBatch(430)
					addTuples(ceiling, heal2)
					if err := s.Append(heal2); err != nil {
						t.Fatalf("%s: store did not heal after fault: %v", label, err)
					}
					addTuples(acked, heal2)
				}
				_ = s.Close() // a poisoned final sync may legitimately error
				verifyCrashState(t, label, dir, acked, ceiling)
			}
		})
	}
}

// TestCheckpointCutPoints pins the disk operations of one checkpoint, in
// order — seal the segment, checkpoint file, MANIFEST, the read-back,
// compaction — and, for a crash before each of them, which state recovery
// finds: the old checkpoint plus its two-segment suffix up to and including
// the rename of MANIFEST (the new file is complete before that, but the
// committed one is still there and comes first), the new one and the one
// open segment after it. Never something in between, and the same tuples
// either way.
func TestCheckpointCutPoints(t *testing.T) {
	dir := t.TempDir()
	snapRoot := t.TempDir()
	cfg := Config{WindowLength: 100, Dir: dir, Sync: SyncNever()}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(mkBatch(10, 150)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(mkBatch(160, 250)); err != nil {
		t.Fatal(err)
	}
	want := collectTuples(s)

	var ops []string
	cut := func(op, path string) {
		copyDir(t, dir, filepath.Join(snapRoot, fmt.Sprintf("cut%02d", len(ops))))
		ops = append(ops, op+" "+filepath.Base(path))
	}
	open := s.openColumnar
	s.syncSeg = func(f *os.File) error { cut("sync", f.Name()); return f.Sync() }
	s.renameFile = func(o, n string) error { cut("rename", n); return os.Rename(o, n) }
	s.removeFile = func(p string) error { cut("remove", p); return os.Remove(p) }
	s.openColumnar = func(p string) (*colblock.Reader, error) { cut("verify", p); return open(p) }
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.syncSeg = func(f *os.File) error { return f.Sync() }
	// The running store serves the same tuples from the file it released
	// them to.
	if cs := s.ColumnarStats(); cs.LazyWindows != 3 {
		t.Errorf("stats %+v: want all three windows released to the new file", cs)
	}
	sameTuples(t, collectTuples(s), want)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	data := filepath.Base(dir)
	wantOps := []string{
		"sync segment-000001.emt",
		"sync checkpoint-000001.emc.tmp",
		"rename checkpoint-000001.emc",
		"sync " + data,
		"sync MANIFEST.tmp",
		"rename MANIFEST",
		"sync " + data,
		"verify checkpoint-000001.emc",
		"remove segment-000001.emt",
		"remove checkpoint-000000.emc",
	}
	if !slices.Equal(ops, wantOps) {
		t.Fatalf("checkpoint operations:\n%q\nwant\n%q", ops, wantOps)
	}
	committed := false
	for i, op := range ops {
		re, err := Open(Config{WindowLength: 100, Dir: filepath.Join(snapRoot, fmt.Sprintf("cut%02d", i))})
		if err != nil {
			t.Fatalf("crash before %q: %v", op, err)
		}
		wantSeq, wantSuffix := 0, 2 // segment 1, and segment 2 opened by the rotation
		if op == "rename MANIFEST" {
			committed = true
		} else if committed {
			wantSeq, wantSuffix = 1, 1
		}
		rs := re.RecoveryStats()
		if !rs.FromCheckpoint || rs.CheckpointSeq != wantSeq || rs.SegmentsReplayed != wantSuffix || rs.CorruptCheckpoints != 0 {
			t.Errorf("crash before %q: recovery %+v, want checkpoint %d and %d replayed segments", op, rs, wantSeq, wantSuffix)
		}
		if seq, _, err := readManifest(re.cfg.Dir); err != nil || seq != wantSeq {
			t.Errorf("crash before %q: MANIFEST names %d (%v) after recovery, want %d", op, seq, err, wantSeq)
		}
		sameTuples(t, collectTuples(re), want)
		re.Close()
	}
}

// TestCheckpointReadBackFailureReleasesNothing damages the checkpoint file
// between the rename of MANIFEST and the read-back. Nothing that was
// durable fails — the file and MANIFEST stand — but the store releases
// nothing and compacts nothing: the heap copy keeps serving, the attempt
// counts as a failure, and a restart finds the committed file bad and falls
// back to the previous one and the segments behind it. The next checkpoint
// then goes through and releases.
func TestCheckpointReadBackFailureReleasesNothing(t *testing.T) {
	cfg := colCfg(t.TempDir())
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Open(Config{WindowLength: cfg.WindowLength})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	add := func(lo, hi float64) {
		t.Helper()
		b := randBatch(rng, 200, lo, hi)
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
		if err := ref.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	add(0, 200)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	add(100, 400) // suffixes behind released bases, and two windows only in memory
	before := s.ColumnarStats()

	open := s.openColumnar
	s.openColumnar = func(p string) (*colblock.Reader, error) {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[20] ^= 0xff // inside the first block
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return open(p)
	}
	if err := s.Checkpoint(); !errors.Is(err, colblock.ErrCorrupt) {
		t.Fatalf("checkpoint whose read-back finds a bad block: %v", err)
	}
	s.openColumnar = open
	if st := s.CheckpointStats(); st.Failures != 1 || st.Checkpoints != 2 || st.LastSeq != 1 {
		t.Fatalf("checkpoint stats %+v: want checkpoint 1 committed and one failure", st)
	}
	after := s.ColumnarStats()
	if after.LazyWindows != before.LazyWindows || after.MaterializeFailures != 0 {
		t.Fatalf("stats %+v, before the checkpoint %+v: nothing may be released to a file that failed its read-back", after, before)
	}
	requireSameState(t, "after the failed read-back", s, ref)
	for _, name := range []string{checkpointName(0), checkpointName(1), "segment-000001.emt"} {
		if _, err := os.Stat(filepath.Join(cfg.Dir, name)); err != nil {
			t.Errorf("a checkpoint that failed its read-back compacted: %v", err)
		}
	}

	// A crash now: recovery rejects the committed file and falls back.
	crashCfg := cfg
	crashCfg.Dir = copyDirTo(t, cfg.Dir)
	re, err := Open(crashCfg)
	if err != nil {
		t.Fatal(err)
	}
	if rs := re.RecoveryStats(); !rs.FromCheckpoint || rs.CheckpointSeq != 0 || rs.CorruptCheckpoints != 1 {
		t.Errorf("recovery %+v: want checkpoint 1 rejected, checkpoint 0 used", rs)
	}
	requireSameState(t, "restart after the failed read-back", re, ref)
	re.Close()

	// The running store carries on: the next checkpoint reads its bases
	// from checkpoint 0, is read back, releases and compacts.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if cs := s.ColumnarStats(); cs.LazyWindows != 4 {
		t.Errorf("stats %+v: want all four windows released", cs)
	}
	requireSameState(t, "after the next checkpoint", s, ref)
	for _, name := range []string{checkpointName(0), checkpointName(1)} {
		if _, err := os.Stat(filepath.Join(cfg.Dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s survived the next compaction: %v", name, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rs := re.RecoveryStats(); !rs.FromCheckpoint || rs.CheckpointSeq != 2 || rs.CorruptCheckpoints != 0 {
		t.Errorf("recovery %+v: want checkpoint 2", rs)
	}
	requireSameState(t, "final restart", re, ref)
}
