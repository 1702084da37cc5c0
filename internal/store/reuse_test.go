package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/colblock"
	"repro/internal/tuple"
)

// sliceModel is what a store with a retention bound is held to: each
// window's tuples in a plain slice, in the order they were appended.
type sliceModel struct {
	mu      sync.Mutex
	h       float64
	retain  int
	windows map[int][]tuple.Raw
	evicted map[int]bool
	// pending counts, by window, the tuples of the batch the store may or
	// may not have appended yet: the last ones of each window's slice.
	pending map[int]int
}

func newSliceModel(h float64, retain int) *sliceModel {
	return &sliceModel{h: h, retain: retain, windows: map[int][]tuple.Raw{}, evicted: map[int]bool{}, pending: map[int]int{}}
}

// append adds b to the model around the store's own append: b's tuples
// and the windows b evicts are in the model before the store's append
// starts, and the tuples count as pending until it returns, so that a
// read sees no tuple the model lacks, asks for none the store may lack,
// and finds the window of a read that failed because it is gone marked.
func (m *sliceModel) append(b tuple.Batch, storeAppend func(tuple.Batch) error) error {
	m.mu.Lock()
	idxs := make(map[int]bool, len(m.windows)+1)
	for c := range m.windows {
		idxs[c] = true
	}
	for _, r := range b {
		idxs[tuple.WindowIndex(r.T, m.h)] = true
	}
	sorted := make([]int, 0, len(idxs))
	for c := range idxs {
		sorted = append(sorted, c)
	}
	slices.Sort(sorted)
	var gone []int
	if m.retain > 0 && len(sorted) > m.retain {
		gone = sorted[:len(sorted)-m.retain]
	}
	for _, c := range gone {
		m.evicted[c] = true
	}
	for _, r := range b {
		c := tuple.WindowIndex(r.T, m.h)
		m.windows[c] = append(m.windows[c], r)
		m.pending[c]++
	}
	m.mu.Unlock()
	err := storeAppend(b)
	m.mu.Lock()
	defer m.mu.Unlock()
	clear(m.pending)
	for _, c := range gone {
		delete(m.windows, c)
	}
	return err
}

// window returns a copy of window c's tuples in append order, how many of
// them the store holds for sure (the rest may be pending), and whether
// the window is (being) evicted.
func (m *sliceModel) window(c int) (tuple.Batch, int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := slices.Clone(m.windows[c])
	return w, len(w) - m.pending[c], m.evicted[c]
}

// live returns the windows the model holds and has not marked evicted.
func (m *sliceModel) live() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	var idxs []int
	for c := range m.windows {
		if !m.evicted[c] {
			idxs = append(idxs, c)
		}
	}
	slices.Sort(idxs)
	return idxs
}

// checkWindowInto reads window c while appends may run and holds the read
// to the model: the window's tuples at one instant — a prefix, in append
// order, of what the model held after the read and no shorter than what
// it held before — sorted by time. A window evicted meanwhile may read
// empty.
func checkWindowInto(t *testing.T, s *Store, m *sliceModel, c int, buf tuple.Batch) tuple.Batch {
	t.Helper()
	_, before, _ := m.window(c)
	buf = s.WindowInto(buf[:0], c)
	after, _, evicted := m.window(c)
	if evicted && len(buf) == 0 {
		return buf
	}
	if len(buf) < before || len(buf) > len(after) && !evicted {
		t.Errorf("window %d: read %d tuples, the model held %d before the read and %d after", c, len(buf), before, len(after))
		return buf
	}
	if len(buf) > len(after) {
		return buf // evicted meanwhile: the model let go of what the read saw
	}
	want := after[:len(buf)]
	want.SortByTime()
	if !batchBitEqual(buf, want) {
		t.Errorf("window %d: the %d tuples read are not the model's", c, len(buf))
	}
	return buf
}

// checkReadAppended reads a range of window c that the model held before
// the read and holds it to the model's tuples there; the read may fail
// only when the window is evicted meanwhile.
func checkReadAppended(t *testing.T, s *Store, m *sliceModel, c int, rng *rand.Rand) {
	t.Helper()
	before, held, _ := m.window(c)
	if held == 0 {
		return
	}
	off := rng.Intn(held)
	dst := make([]tuple.Raw, 1+rng.Intn(held-off))
	err := s.ReadAppended(dst, c, off)
	if _, _, evicted := m.window(c); err != nil && !evicted {
		t.Errorf("window %d: ReadAppended [%d, %d): %v", c, off, off+len(dst), err)
	} else if err == nil && !batchBitEqual(dst, before[off:off+len(dst)]) {
		t.Errorf("window %d: ReadAppended [%d, %d) differs from the model", c, off, off+len(dst))
	}
}

// streamTuples returns n tuples from time t0 on, 0.04 s apart (2 500 to a
// 100-second window), each time unique among the test's tuples: late runs
// take the same grid shifted by 0.02 s and by a fraction of their own.
func streamTuples(rng *rand.Rand, n int, t0 float64) tuple.Batch {
	b := make(tuple.Batch, n)
	for i := range b {
		b[i] = tuple.Raw{T: t0 + 0.04*float64(i), X: rng.Float64()*5000 - 1000, Y: rng.Float64()*4000 - 800, S: rng.NormFloat64() * 40}
	}
	return b
}

// TestReusedChunksStayOwned: a checkpoint's release hands the bytes of the
// chunks it drops back, and the next seals pack into them; every read is
// held bit for bit to a plain-slice model. Appends, late runs and a
// checkpoint loop run beside concurrent WindowInto and ReadAppended
// readers (under -race, a read that unpacked a chunk outside the store
// lock would race the seal that packs into its bytes). Then three
// checkpoints met one at a time: one beside which the test seals a chunk
// and reads every window at each of its fsyncs, between its snapshot and
// its release, so that a seal packs into bytes handed back before the file
// is committed; and two whose release must leave a window as it is — one
// whose base went unreadable, whose log keeps its chunks, and one evicted
// since the snapshot. After each release the test appends more full chunks
// than the release handed back, so that every handed-back byte is packed
// into again. Each subtest starts from pools the collector has emptied.
func TestReusedChunksStayOwned(t *testing.T) {
	t.Run("concurrent", func(t *testing.T) {
		emptyPools()
		cfg := Config{WindowLength: 100, Retain: 6, Dir: t.TempDir(), Sync: SyncNever()}
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := newSliceModel(cfg.WindowLength, cfg.Retain)
		rng := rand.New(rand.NewSource(67))
		var feed sync.Mutex // the writer's state: rng, next, batches
		next, batches := 0.0, 0
		// step appends n tuples to the stream; every fifth 256-tuple step
		// is a late run instead.
		step := func(n int) {
			feed.Lock()
			defer feed.Unlock()
			b := streamTuples(rng, n, next)
			next += float64(n) * 0.04
			if batches++; n == 256 && batches%5 == 0 {
				// A late run into one of the three windows behind the
				// newest.
				c := max(int(next/cfg.WindowLength)-1-rng.Intn(3), 0)
				b = streamTuples(rng, 20+rng.Intn(60), float64(c)*cfg.WindowLength+0.02+0.0001*float64(batches%97))
				next -= float64(n) * 0.04
			}
			if err := m.append(b, s.Append); err != nil {
				t.Error(err)
			}
		}
		var inCheckpoint atomic.Bool
		syncSeg := s.syncSeg
		s.syncSeg = func(f *os.File) error {
			if inCheckpoint.Load() {
				for range 3 {
					step(256)
				}
				feed.Lock()
				checkAll(t, s, m)
				feed.Unlock()
			}
			return syncSeg(f)
		}
		for range 40 {
			step(256)
		}
		done := make(chan struct{})
		var wg sync.WaitGroup
		for r := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(r)))
				var buf tuple.Batch
				for {
					select {
					case <-done:
						return
					default:
					}
					live := m.live()
					if len(live) == 0 {
						continue
					}
					c := live[rng.Intn(len(live))]
					if r%2 == 0 {
						buf = checkWindowInto(t, s, m, c, buf)
					} else {
						checkReadAppended(t, s, m, c, rng)
					}
				}
			}()
		}
		checkpointed := make(chan error, 1) // one result waits for the writer
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				inCheckpoint.Store(true)
				err := s.Checkpoint()
				inCheckpoint.Store(false)
				if err == nil {
					// Two chunks' worth at once: the seals it ends in pack
					// into bytes the release just handed back, while
					// readers that took the window before may still read.
					step(2 * colblock.ChunkTuples)
				}
				select {
				case checkpointed <- err:
				case <-done:
					return
				}
				if err != nil {
					return
				}
			}
		}()
		// Three rounds of 40 appends, each beside a checkpoint: a slow host
		// stretches the rounds instead of running the appends past every
		// checkpoint.
		for range 3 {
			for range 40 {
				step(256)
			}
			if err := <-checkpointed; err != nil {
				t.Error(err)
				break
			}
		}
		close(done)
		wg.Wait()
		checkAll(t, s, m)
		s.Close()
	})

	// The subtests close their stores only when they get to the end: a
	// chunk that decodes to nothing sound panics under the store's read
	// lock, and a deferred Close would wait for that lock for good.
	setup := func(t *testing.T, retain int) (*Store, *sliceModel, *rand.Rand) {
		emptyPools()
		cfg := Config{WindowLength: 100, Retain: retain, Dir: t.TempDir(), Sync: SyncNever()}
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s, newSliceModel(cfg.WindowLength, retain), rand.New(rand.NewSource(int64(retain)))
	}
	add := func(t *testing.T, s *Store, m *sliceModel, b tuple.Batch) {
		t.Helper()
		if err := m.append(b, s.Append); err != nil {
			t.Fatal(err)
		}
	}
	// addWindows appends n windows of 2 500 tuples from window c on: two
	// full chunks and a short one each.
	addWindows := func(t *testing.T, s *Store, m *sliceModel, rng *rand.Rand, c, n int) {
		t.Helper()
		for ; n > 0; c, n = c+1, n-1 {
			add(t, s, m, streamTuples(rng, 2500, float64(c)*100))
		}
	}
	beforeReadBack := func(s *Store, fn func()) {
		open := s.openColumnar
		s.openColumnar = func(path string) (*colblock.Reader, error) {
			if fn != nil {
				fn()
				fn = nil
			}
			return open(path)
		}
	}

	t.Run("seals beside a checkpoint", func(t *testing.T) {
		s, m, rng := setup(t, 0)
		addWindows(t, s, m, rng, 0, 4)
		c := 4
		syncSeg := s.syncSeg
		s.syncSeg = func(f *os.File) error {
			// A new window's first chunk fills and is sealed.
			add(t, s, m, streamTuples(rng, colblock.ChunkTuples+50, float64(c)*100))
			c++
			checkAll(t, s, m)
			return syncSeg(f)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		s.syncSeg = syncSeg
		addWindows(t, s, m, rng, c, 8)
		checkAll(t, s, m)
		s.Close()
	})

	t.Run("unreadable base", func(t *testing.T) {
		s, m, rng := setup(t, 0)
		addWindows(t, s, m, rng, 0, 4)
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		// Window 1's suffix: a full chunk and a short one.
		add(t, s, m, streamTuples(rng, 1100, 100.02))
		var suffix tuple.Batch
		beforeReadBack(s, func() {
			if err := os.Truncate(filepath.Join(s.cfg.Dir, checkpointName(0)), 0); err != nil {
				t.Error(err)
			}
			suffix = s.Window(1)
		})
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if want, _, _ := m.window(1); len(suffix) != 1100 || !batchBitEqual(suffix, want[2500:]) {
			t.Fatalf("window 1 read %d tuples once its base went unreadable, want its 1 100-tuple suffix", len(suffix))
		}
		// Window 1's suffix again in ten new windows: chunks of the size
		// window 1's full one packs to, more than the pool holds.
		for c := 4; c < 14; c++ {
			again := slices.Clone(suffix)
			for i := range again {
				again[i].T += float64(c-1) * 100
			}
			add(t, s, m, again)
		}
		if got := s.Window(1); !batchBitEqual(got, suffix) {
			t.Fatalf("window 1 serves %d tuples that differ from its %d-tuple suffix after seals", len(got), len(suffix))
		}
		for _, c := range s.WindowIndexes() {
			want, _, _ := m.window(c)
			if want.SortByTime(); c != 1 && !batchBitEqual(s.Window(c), want) {
				t.Fatalf("window %d differs from the model", c)
			}
		}
		s.Close()
	})

	t.Run("evicted since the snapshot", func(t *testing.T) {
		s, m, rng := setup(t, 3)
		addWindows(t, s, m, rng, 0, 3)
		// Windows 3 and 4 evict windows 0 and 1, whose chunks the
		// snapshot holds.
		beforeReadBack(s, func() { addWindows(t, s, m, rng, 3, 2) })
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		checkAll(t, s, m)
		addWindows(t, s, m, rng, 5, 8)
		checkAll(t, s, m)
		s.Close()
	})
}

// emptyPools runs the collector twice, which empties every sync.Pool: the
// handed-back chunk bytes a subtest then packs into are its own.
func emptyPools() {
	runtime.GC()
	runtime.GC()
}

// checkAll holds the store to the model while no append runs: the windows
// it retains, its tuple count, and every window read whole both ways.
func checkAll(t *testing.T, s *Store, m *sliceModel) {
	t.Helper()
	live := m.live()
	if got := s.WindowIndexes(); !slices.Equal(got, live) {
		t.Errorf("the store holds windows %v, the model %v", got, live)
		return
	}
	n := 0
	var buf tuple.Batch
	for _, c := range live {
		want, _, _ := m.window(c)
		n += len(want)
		got := make([]tuple.Raw, len(want))
		if err := s.ReadAppended(got, c, 0); err != nil || !batchBitEqual(got, want) {
			t.Errorf("window %d: ReadAppended differs from the model (%v)", c, err)
		}
		buf = s.WindowInto(buf[:0], c)
		want.SortByTime()
		if !batchBitEqual(buf, want) {
			t.Errorf("window %d: WindowInto differs from the model", c)
		}
	}
	if s.Len() != n {
		t.Errorf("the store holds %d tuples, the model %d", s.Len(), n)
	}
}
