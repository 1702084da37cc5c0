package store

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/colblock"
	"repro/internal/geo"
	"repro/internal/tuple"
)

func colCfg(dir string) Config {
	return Config{WindowLength: 100, Dir: dir, Sync: SyncNever()}
}

func randBatch(rng *rand.Rand, n int, tmin, tmax float64) tuple.Batch {
	b := make(tuple.Batch, n)
	for i := range b {
		b[i] = tuple.Raw{
			T: tmin + rng.Float64()*(tmax-tmin),
			X: rng.Float64()*5000 - 1000,
			Y: rng.Float64()*4000 - 800,
			S: rng.NormFloat64() * 40,
		}
	}
	return b
}

func batchBitEqual(a, b tuple.Batch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].T) != math.Float64bits(b[i].T) ||
			math.Float64bits(a[i].X) != math.Float64bits(b[i].X) ||
			math.Float64bits(a[i].Y) != math.Float64bits(b[i].Y) ||
			math.Float64bits(a[i].S) != math.Float64bits(b[i].S) {
			return false
		}
	}
	return true
}

func copyDirTo(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
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
	return dst
}

// TestColumnarLazyRecovery checks the headline behavior: a restart over a
// checkpointed log recovers lazily (no tuples decoded), serves exact
// counts and bounds from the footer, and decodes windows bit-identically
// on demand — including a window that is lazy base + replayed segment
// suffix — without installing them: a window read twice is decoded twice,
// and stays lazy.
func TestColumnarLazyRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(colCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for c := 0; c < 5; c++ {
		if err := s.Append(randBatch(rng, 120, float64(c*100), float64(c*100+100))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Suffix after the checkpoint: window 4 gains tuples, window 5 is new.
	suffix4 := randBatch(rng, 30, 400, 500)
	suffix5 := randBatch(rng, 40, 500, 600)
	if err := s.Append(suffix4); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(suffix5); err != nil {
		t.Fatal(err)
	}
	want := map[int]tuple.Batch{}
	for c := 0; c <= 5; c++ {
		want[c] = s.Window(c)
	}
	wantLen := s.Len()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(colCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rs := r.RecoveryStats()
	if !rs.FromCheckpoint {
		t.Fatalf("recovery %+v: want checkpoint recovery", rs)
	}
	cs := r.ColumnarStats()
	if cs.LazyWindows == 0 {
		t.Fatalf("stats %+v: no lazy windows after columnar recovery", cs)
	}
	if cs.Materializations != 0 {
		t.Fatalf("stats %+v: windows materialized before anything was read", cs)
	}
	if r.Len() != wantLen {
		t.Fatalf("Len = %d, want %d", r.Len(), wantLen)
	}
	for c := 0; c <= 5; c++ {
		if got := r.WindowLen(c); got != len(want[c]) {
			t.Fatalf("WindowLen(%d) = %d, want %d", c, got, len(want[c]))
		}
		wb, wok := want[c].Bounds()
		gb, gok := r.WindowBounds(c)
		if wok != gok || gb != wb {
			t.Fatalf("WindowBounds(%d) = %+v,%v want %+v,%v", c, gb, gok, wb, wok)
		}
	}
	for c := 0; c <= 5; c++ {
		if got := r.Window(c); !batchBitEqual(got, want[c]) {
			t.Fatalf("window %d differs after columnar recovery", c)
		}
	}
	read := r.ColumnarStats()
	if read.LazyWindows != cs.LazyWindows {
		t.Fatalf("stats %+v: reads moved LazyWindows from %d; a read decodes, it does not install", read, cs.LazyWindows)
	}
	// Windows 0–4 have a base in the file, window 5 is all suffix: five
	// bases decoded, one block each.
	if read.Materializations != 5 || read.BlocksScanned != 5 || read.BytesRead == 0 {
		t.Fatalf("stats %+v: want 5 bases decoded from 5 blocks", read)
	}
	for c := 0; c <= 5; c++ {
		if got := r.Window(c); !batchBitEqual(got, want[c]) {
			t.Fatalf("window %d differs on the second read", c)
		}
	}
	again := r.ColumnarStats()
	if again.BlocksScanned != 2*read.BlocksScanned || again.BytesRead != 2*read.BytesRead || again.LazyWindows != cs.LazyWindows {
		t.Fatalf("stats %+v after a second read of every window, %+v after the first: the second must cost what the first did", again, read)
	}
	if again.MaterializeFailures != 0 {
		t.Fatalf("stats %+v: unexpected failures on a clean checkpoint", again)
	}
	if r.Len() != wantLen {
		t.Fatalf("Len = %d after the reads, want %d", r.Len(), wantLen)
	}
}

// TestTruncatedCheckpointDegrades: a checkpoint file cut to nothing under
// a running store costs each window its base, counted once, and the
// window serves its in-memory suffix; no read fails or faults.
func TestTruncatedCheckpointDegrades(t *testing.T) {
	s, err := Open(colCfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(7))
	if err := s.Append(randBatch(rng, 600, 0, 300)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	suffix := randBatch(rng, 30, 0, 300)
	if err := s.Append(suffix); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(s.cfg.Dir, checkpointName(0)), 0); err != nil {
		t.Fatal(err)
	}
	suffix.SortByTime()
	for read := 1; read <= 2; read++ {
		for c := 0; c < 3; c++ {
			var want tuple.Batch
			for _, tp := range suffix {
				if int(tp.T/100) == c {
					want = append(want, tp)
				}
			}
			if got := s.Window(c); !batchBitEqual(got, want) {
				t.Fatalf("read %d: window %d served %d tuples, want its %d-tuple suffix", read, c, len(got), len(want))
			}
		}
		if cs := s.ColumnarStats(); cs.MaterializeFailures != 3 || cs.LazyWindows != 0 {
			t.Fatalf("read %d: stats %+v: want each of the three lost bases counted once", read, cs)
		}
	}
}

// TestColumnarCorruptBlockFallsBack flips a byte inside a checkpoint
// block (leaving its footer intact). Found at Open, the candidate is
// rejected and recovery falls back — to the next candidate or to the kept
// segments — without losing a tuple; appearing after Open has checked the
// file — at Open, or by the read-back of the checkpoint that wrote it — it
// degrades the window to its in-memory suffix and is counted.
// (With KeepSegments 0 a fallback can only recover what the surviving
// files hold — the same as for any unreadable checkpoint.)
func TestColumnarCorruptBlockFallsBack(t *testing.T) {
	// build writes two checkpoints, the first kept on disk, plus a suffix.
	build := func(t *testing.T, cfg Config, keepOld bool) (dir string, want map[int]tuple.Batch) {
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if keepOld {
			realRemove := s.removeFile
			s.removeFile = func(path string) error {
				if _, ok := parseSeq(filepath.Base(path), "checkpoint-", ckExt); ok {
					return nil
				}
				return realRemove(path)
			}
		}
		rng := rand.New(rand.NewSource(3))
		for _, step := range []struct{ lo, hi float64 }{{0, 200}, {100, 300}, {200, 400}} {
			if err := s.Append(randBatch(rng, 300, step.lo, step.hi)); err != nil {
				t.Fatal(err)
			}
			if step.hi < 400 {
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		want = map[int]tuple.Batch{}
		for _, c := range s.WindowIndexes() {
			want[c] = s.Window(c)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return cfg.Dir, want
	}
	flip := func(t *testing.T, path string) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[20] ^= 0xff // inside the first block, past the 8-byte header
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	requireWindows := func(t *testing.T, r *Store, want map[int]tuple.Batch) {
		t.Helper()
		if got := len(r.WindowIndexes()); got != len(want) {
			t.Fatalf("%d windows, want %d", got, len(want))
		}
		for c, w := range want {
			if got := r.Window(c); !batchBitEqual(got, w) {
				t.Fatalf("window %d differs after the fallback", c)
			}
		}
	}

	t.Run("at-open/next-candidate", func(t *testing.T) {
		cfg := colCfg(t.TempDir())
		cfg.KeepSegments = 100 // checkpoint 0 needs the segments checkpoint 1 covered
		dir, want := build(t, cfg, true)
		flip(t, filepath.Join(dir, checkpointName(1)))
		r, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		rs := r.RecoveryStats()
		if !rs.FromCheckpoint || rs.CheckpointSeq != 0 || rs.CorruptCheckpoints != 1 {
			t.Fatalf("recovery %+v: want checkpoint 1 rejected, checkpoint 0 used", rs)
		}
		requireWindows(t, r, want)
		if cs := r.ColumnarStats(); cs.MaterializeFailures != 0 {
			t.Fatalf("stats %+v: nothing may fail once Open has picked a sound candidate", cs)
		}
	})

	t.Run("at-open/kept-segments", func(t *testing.T) {
		cfg := colCfg(t.TempDir())
		cfg.KeepSegments = 100
		dir, want := build(t, cfg, false)
		flip(t, filepath.Join(dir, checkpointName(1)))
		r, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		rs := r.RecoveryStats()
		if rs.FromCheckpoint || rs.CorruptCheckpoints != 1 || rs.SegmentsReplayed != 3 {
			t.Fatalf("recovery %+v: want the only checkpoint rejected and all three segments replayed", rs)
		}
		requireWindows(t, r, want)
	})

	t.Run("after-open", func(t *testing.T) {
		cfg := colCfg(t.TempDir())
		dir, want := build(t, cfg, false)
		r, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if rs := r.RecoveryStats(); !rs.FromCheckpoint || rs.CorruptCheckpoints != 0 {
			t.Fatalf("recovery %+v: the checkpoint was sound at Open", rs)
		}
		flip(t, filepath.Join(dir, checkpointName(1)))
		// Window 0 is the first block: its base is gone and it had no
		// suffix. The other windows are intact; window 2 and 3 carry the
		// replayed suffix on top.
		if got := r.Window(0); len(got) != 0 {
			t.Fatalf("window 0 served %d tuples from a block that fails its checksum", len(got))
		}
		for _, c := range []int{1, 2, 3} {
			if got := r.Window(c); !batchBitEqual(got, want[c]) {
				t.Fatalf("window %d differs", c)
			}
		}
		// Checkpoint 1 holds windows 0–2: window 0 lost its base, 1 and 2
		// keep theirs after the reads.
		cs := r.ColumnarStats()
		if cs.MaterializeFailures != 1 || cs.LazyWindows != 2 {
			t.Fatalf("stats %+v: want exactly window 0 counted as a failed read, windows 1 and 2 still lazy", cs)
		}
		if got, wantLen := r.Len(), len(want[1])+len(want[2])+len(want[3]); got != wantLen {
			t.Fatalf("Len = %d, want %d: the lost base no longer counts", got, wantLen)
		}
		// Settled once: reading the degraded window again neither finds
		// tuples nor counts a second failure.
		if got := r.Window(0); len(got) != 0 {
			t.Fatalf("window 0 served %d tuples on the second read", len(got))
		}
		if cs := r.ColumnarStats(); cs.MaterializeFailures != 1 {
			t.Fatalf("stats %+v: the same lost base was counted twice", cs)
		}
	})

	// The same damage to the file a running store released its windows to.
	t.Run("after-release", func(t *testing.T) {
		cfg := colCfg(t.TempDir())
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		rng := rand.New(rand.NewSource(3))
		if err := s.Append(randBatch(rng, 600, 0, 300)); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		want := map[int]tuple.Batch{}
		for _, c := range []int{1, 2} {
			want[c] = s.Window(c)
		}
		if cs := s.ColumnarStats(); cs.LazyWindows != 3 || cs.MaterializeFailures != 0 {
			t.Fatalf("stats %+v: want the three checkpointed windows released", cs)
		}
		flip(t, filepath.Join(cfg.Dir, checkpointName(0)))

		// The next checkpoint has to carry window 0's block over, and the
		// one after that — window 0 has a suffix by then — to decode it:
		// both fail on the bad block, and the file they would have
		// superseded stays the committed one.
		suffix := randBatch(rng, 20, 0, 100)
		for failures := int64(1); failures <= 2; failures++ {
			if err := s.Checkpoint(); err == nil {
				t.Fatal("a checkpoint read a block that fails its checksum")
			}
			if st := s.CheckpointStats(); st.Failures != failures || st.Checkpoints != 1 || st.LastSeq != 0 {
				t.Fatalf("checkpoint stats %+v: want %d failures, checkpoint 0 still the last", st, failures)
			}
			if seq, _, err := readManifest(cfg.Dir); err != nil || seq != 0 {
				t.Fatalf("MANIFEST names %d (%v), want 0", seq, err)
			}
			if _, err := os.Stat(filepath.Join(cfg.Dir, checkpointName(0))); err != nil {
				t.Fatalf("the previous checkpoint file: %v", err)
			}
			if failures == 1 {
				if err := s.Append(suffix); err != nil {
					t.Fatal(err)
				}
			}
		}
		suffix.SortByTime()
		want[0] = suffix
		// Reads: window 0 serves its suffix, the others are whole.
		for c, w := range want {
			if got := s.Window(c); !batchBitEqual(got, w) {
				t.Fatalf("window %d: %d tuples, want %d", c, len(got), len(w))
			}
		}
		if got, wantLen := s.Len(), len(want[0])+len(want[1])+len(want[2]); got != wantLen {
			t.Fatalf("Len = %d, want %d", got, wantLen)
		}
		if cs := s.ColumnarStats(); cs.MaterializeFailures != 1 || cs.LazyWindows != 2 {
			t.Fatalf("stats %+v: want window 0 counted once, windows 1 and 2 still lazy", cs)
		}
		// Window 0 is now checkpointed as served, and nothing else touches
		// the bad block.
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("checkpoint after the window settled on its suffix: %v", err)
		}
		for c, w := range want {
			if got := s.Window(c); !batchBitEqual(got, w) {
				t.Fatalf("window %d differs after the second checkpoint", c)
			}
		}
	})
}

// TestColumnarCheckpointOfLazyWindows checkpoints a store whose windows
// were never read: the new checkpoint must carry the full data (block for
// block from the old file, decoding nothing), proven by a third, clean
// restart.
func TestColumnarCheckpointOfLazyWindows(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(colCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	if err := s.Append(randBatch(rng, 250, 0, 300)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	mid, err := Open(colCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Append a suffix but read nothing: every checkpointed base stays lazy.
	extra := randBatch(rng, 50, 300, 400)
	if err := mid.Append(extra); err != nil {
		t.Fatal(err)
	}
	if mid.ColumnarStats().Materializations != 0 {
		t.Fatal("append alone must not decode windows")
	}
	if err := mid.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The suffix is a window of its own: all three old ones are unchanged.
	if cs := mid.ColumnarStats(); cs.BlocksScanned != 0 || cs.BytesRead != 0 || cs.LazyWindows != 4 {
		t.Fatalf("stats %+v: unchanged windows must be carried over without a decode, and all four released", cs)
	}
	want := map[int]tuple.Batch{}
	for _, c := range mid.WindowIndexes() {
		want[c] = mid.Window(c)
	}
	if err := mid.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(colCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, wantN := len(r.WindowIndexes()), len(want); got != wantN {
		t.Fatalf("windows after second checkpoint: %d, want %d", got, wantN)
	}
	for c, w := range want {
		if got := r.Window(c); !batchBitEqual(got, w) {
			t.Fatalf("window %d differs after checkpoint-of-lazy-windows", c)
		}
	}
}

// TestColumnarEquivalenceRandomHistories is the property test at the
// store layer: over randomized ingest histories — late arrivals,
// interleaved checkpoints, restarts that leave windows lazy, torn segment
// tails — a reopen of the directory must agree bit-for-bit on every
// observable with a memory store fed the same appends under the same
// retention.
func TestColumnarEquivalenceRandomHistories(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		dir := t.TempDir()
		cfg := colCfg(dir)
		cfg.Retain = 8
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Open(Config{WindowLength: cfg.WindowLength, Retain: cfg.Retain})
		if err != nil {
			t.Fatal(err)
		}
		maxWin := 3
		ops := 30 + rng.Intn(40)
		for i := 0; i < ops; i++ {
			switch rng.Intn(20) {
			case 0, 1:
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				requireSameState(t, fmt.Sprintf("trial %d op %d: checkpointed", trial, i), s, ref)
				continue
			case 3:
				// Checkpoint, append into a window the checkpoint released,
				// checkpoint again (base decoded, suffix merged, the rest
				// carried over), then crash: what is on disk at that
				// instant must reopen to the same state.
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				idxs := s.WindowIndexes()
				if len(idxs) == 0 {
					continue
				}
				c := idxs[rng.Intn(len(idxs))]
				b := randBatch(rng, 1+rng.Intn(25), float64(c*100), float64(c*100+100))
				if err := s.Append(b); err != nil {
					t.Fatal(err)
				}
				if err := ref.Append(b); err != nil {
					t.Fatal(err)
				}
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				requireSameState(t, fmt.Sprintf("trial %d op %d: running", trial, i), s, ref)
				crashCfg := cfg
				crashCfg.Dir = copyDirTo(t, dir)
				crashed, err := Open(crashCfg)
				if err != nil {
					t.Fatalf("trial %d op %d: reopen after the crash: %v", trial, i, err)
				}
				requireSameState(t, fmt.Sprintf("trial %d op %d: crashed", trial, i), crashed, ref)
				crashed.Close()
				continue
			case 2:
				// Restart: checkpointed windows come back lazy, and the
				// next checkpoint assembles them from the previous file.
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if s, err = Open(cfg); err != nil {
					t.Fatalf("trial %d: reopen: %v", trial, err)
				}
				continue
			}
			if rng.Intn(4) == 0 {
				maxWin++
			}
			lo := maxWin - 3 - rng.Intn(2) // late arrivals into older windows
			if lo < 0 {
				lo = 0
			}
			b := randBatch(rng, 1+rng.Intn(25), float64(lo*100), float64(maxWin*100))
			if err := s.Append(b); err != nil {
				t.Fatal(err)
			}
			if err := ref.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Intn(2) == 0 {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// Optionally tear the newest segment's tail, as a crash mid-write
		// would: the torn frame was never acknowledged, so the reference
		// never saw it.
		if rng.Intn(2) == 0 {
			names, err := segmentNames(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(names) > 0 {
				p := filepath.Join(dir, names[len(names)-1])
				f, err := os.OpenFile(p, os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				f.Write([]byte{0x45, 0x4d, 0x54, 0x31, 0x13, 0x37, 0x00})
				f.Close()
			}
		}

		re, err := Open(cfg)
		if err != nil {
			t.Fatalf("trial %d: reopen: %v", trial, err)
		}
		requireSameState(t, fmt.Sprintf("trial %d", trial), re, ref)
		re.Close()
	}
}

// TestColumnarWindowRegion compares the merged two-source region scan
// against filtering the materialized window, on clustered data so the
// zone maps actually prune, with an unmaterialized suffix in play.
func TestColumnarWindowRegion(t *testing.T) {
	dir := t.TempDir()
	cfg := colCfg(dir)
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	// Two spatial clusters far apart inside one window, visited in turn
	// one block's worth of tuples at a time, so blocks — runs of the
	// append order — hold one cluster each and a query over one cluster
	// prunes the other.
	var b tuple.Batch
	for i := 0; i < 5*colblock.BlockTuples; i++ {
		cx, cy := 0.0, 0.0
		if i/colblock.BlockTuples%2 == 1 {
			cx, cy = 50000, 50000
		}
		b = append(b, tuple.Raw{
			T: rng.Float64() * 100,
			X: cx + rng.Float64()*100, Y: cy + rng.Float64()*100,
			S: 400 + rng.NormFloat64(),
		})
	}
	if err := s.Append(b); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	suffix := randBatch(rng, 25, 0, 100)
	if err := s.Append(suffix); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	region := geo.Rect{Min: geo.Point{X: -500, Y: -500}, Max: geo.Point{X: 1500, Y: 1200}}
	got := r.WindowRegion(0, region)
	if r.ColumnarStats().Materializations != 0 {
		t.Fatal("WindowRegion must not decode the whole base")
	}
	if cs := r.ColumnarStats(); cs.BlocksPruned == 0 {
		t.Fatalf("stats %+v: clustered scan pruned nothing", cs)
	}
	var want tuple.Batch
	for _, tp := range r.Window(0) {
		if region.Contains(tp.Pos()) {
			want = append(want, tp)
		}
	}
	sortTuples := func(b tuple.Batch) {
		sort.Slice(b, func(i, j int) bool {
			if b[i].T != b[j].T {
				return b[i].T < b[j].T
			}
			if b[i].X != b[j].X {
				return b[i].X < b[j].X
			}
			if b[i].Y != b[j].Y {
				return b[i].Y < b[j].Y
			}
			return b[i].S < b[j].S
		})
	}
	sortTuples(got)
	sortTuples(want)
	if !batchBitEqual(got, want) {
		t.Fatalf("WindowRegion: %d tuples vs filtered window's %d", len(got), len(want))
	}
}

// TestCheckpointConcurrentManualCalls is the regression test for the
// checkpoint/ticker race: concurrent Checkpoint calls (as the engine's
// periodic ticker and a manual trigger produce) while every-batch
// appends are fsyncing must never turn an acknowledged append into a
// sync error against a closed handle.
func TestCheckpointConcurrentManualCalls(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{WindowLength: 100, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Widen the race window: every fsync dawdles, so an append's
	// out-of-lock sync reliably overlaps the next checkpoint's retire.
	s.syncSeg = func(f *os.File) error {
		for i := 0; i < 200; i++ {
			_ = i
		}
		return f.Sync()
	}
	var wg sync.WaitGroup
	appendErr := make(chan error, 64) // one slot per appender goroutine below
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if err := s.Append(mkBatch(float64(g*1000+i) / 10)); err != nil {
					appendErr <- err
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if err := s.Checkpoint(); err != nil {
					appendErr <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(appendErr)
	for err := range appendErr {
		t.Errorf("concurrent checkpoint/append: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadAppendedKeepsAppendOrder: ReadAppended returns any range of a
// window exactly as appended — not time-sorted — whether the range lies
// in memory, in a lazy base, or across the two, and across checkpoints
// that fold a suffix into a new base. Once a window's base is lost, every
// range of it fails rather than read the suffix at shifted positions.
func TestReadAppendedKeepsAppendOrder(t *testing.T) {
	const window = 100.0
	dir := t.TempDir()
	s, err := Open(Config{WindowLength: window, Dir: dir, Sync: SyncNever()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(5))
	model := make(map[int][]tuple.Raw) // each window in append order
	appendSome := func() {
		b := make(tuple.Batch, 1+rng.Intn(40))
		for i := range b {
			b[i] = tuple.Raw{T: float64(rng.Intn(4))*window + rng.Float64()*window, X: rng.Float64(), S: float64(rng.Intn(1000))}
		}
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
		for _, tp := range b {
			c := tuple.WindowIndex(tp.T, window)
			model[c] = append(model[c], tp)
		}
	}
	check := func(stage string) {
		t.Helper()
		for c, want := range model {
			if got := s.WindowLen(c); got != len(want) {
				t.Fatalf("%s: window %d holds %d tuples, model %d", stage, c, got, len(want))
			}
			for range 20 {
				off := rng.Intn(len(want))
				dst := make([]tuple.Raw, 1+rng.Intn(len(want)-off))
				if err := s.ReadAppended(dst, c, off); err != nil {
					t.Fatalf("%s: window %d [%d, %d): %v", stage, c, off, off+len(dst), err)
				}
				if !slices.Equal(dst, want[off:off+len(dst)]) {
					t.Fatalf("%s: window %d [%d, %d) differs from the append order", stage, c, off, off+len(dst))
				}
			}
			if err := s.ReadAppended(make([]tuple.Raw, 1), c, len(want)); err == nil {
				t.Fatalf("%s: window %d read past its end", stage, c)
			}
		}
	}
	for range 10 {
		appendSome()
	}
	check("in memory")
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check("lazy")
	for range 5 {
		appendSome()
	}
	check("lazy base and suffix")
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	appendSome()
	check("second checkpoint")

	files, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.emc"))
	for _, f := range files {
		if err := os.Truncate(f, 0); err != nil {
			t.Fatal(err)
		}
	}
	for c := range model {
		if err := s.ReadAppended(make([]tuple.Raw, 1), c, 0); err == nil {
			t.Fatalf("window %d read a range of a lost base", c)
		}
		if n := s.WindowLen(c); n > 0 {
			if err := s.ReadAppended(make([]tuple.Raw, n), c, 0); err == nil {
				t.Fatalf("window %d read its suffix at shifted positions", c)
			}
		}
	}
}
