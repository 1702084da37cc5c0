package store

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/colblock"
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
	if !maps.Equal(collectTuples(s2), want) {
		t.Error("the reopened store holds other tuples than it held")
	}
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

// TestCheckpointSealsBesideSnapshots: between a checkpoint's snapshot and
// its encode (the seal fsync, through the syncSeg seam), a writer fills
// the newest window past a chunk, so its log seals a chunk full and keeps
// filling its open one, adds late tuples to the window behind it and moves on
// to a new window and fills its first chunk, which seals the one it
// leaves — while a reader reads
// every window. The file must hold what the snapshot held, the release
// must drop exactly the snapshot's chunks, and every read, then and after
// a restart, must match a memory store fed the same tuples.
func TestCheckpointSealsBesideSnapshots(t *testing.T) {
	cfg := Config{WindowLength: 100, Retain: 3, Dir: t.TempDir(), Sync: SyncNever()}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Open(Config{WindowLength: cfg.WindowLength, Retain: cfg.Retain})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(64))
	var feed sync.RWMutex // orders the reader against the appends
	add := func(n int, tmin, tmax float64) {
		b := randBatch(rng, n, tmin, tmax)
		feed.Lock()
		defer feed.Unlock()
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
		if err := ref.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	win := 1
	var armed bool
	syncSeg := s.syncSeg
	s.syncSeg = func(f *os.File) error {
		if armed { // the checkpoint's first fsync: its snapshot is taken
			armed = false
			for range 5 {
				add(256, float64(win*100), float64(win*100+100))
			}
			add(40, float64(win*100-100), float64(win*100))
			s.mu.RLock()
			lg := s.windows[win]
			full := slices.ContainsFunc(lg.Chunks(nil), colblock.Chunk.Full)
			s.mu.RUnlock()
			win++
			add(colblock.ChunkTuples, float64(win*100), float64(win*100+100))
			s.mu.RLock()
			left := lg.Len() == colblock.ChunksLen(lg.Chunks(nil))
			s.mu.RUnlock()
			if !full || !left {
				t.Errorf("window %d: a full chunk sealed = %v, sealed when left behind = %v", win-1, full, left)
			}
		}
		return syncSeg(f)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var got, want tuple.Batch
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			feed.RLock()
			for _, c := range ref.WindowIndexes() {
				got, want = s.WindowInto(got[:0], c), ref.WindowInto(want[:0], c)
				if !batchBitEqual(got, want) {
					t.Errorf("read %d: window %d holds %d tuples, reference %d, or not the same ones", i, c, len(got), len(want))
				}
			}
			feed.RUnlock()
			runtime.Gosched()
		}
	}()
	for step := 0; step < 6 && !t.Failed(); step++ {
		add(300, float64(win*100), float64(win*100+100))
		armed = true
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		requireSameState(t, fmt.Sprintf("step %d", step), s, ref)
	}
	close(done)
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	requireSameState(t, "restart", re, ref)
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
