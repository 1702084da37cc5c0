package core

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/kmeans"
	"repro/internal/store"
	"repro/internal/tuple"
)

func clusterSeed(seed int64) kmeans.Config { return kmeans.Config{Seed: seed} }

func fillStore(t *testing.T, h float64, windows int, perWindow int) *store.Store {
	t.Helper()
	st := store.MustOpenMemory(h)
	fillWindows(t, st, h, windows, perWindow)
	return st
}

// fillWindows appends perWindow seeded tuples to each of st's first
// windows.
func fillWindows(t testing.TB, st *store.Store, h float64, windows int, perWindow int) {
	t.Helper()
	fillIndexes(t, st, h, windows, perWindow, func(i int) int { return i })
}

// loneWindow is the index of the i-th lone window: the last window of its
// chain's span, after an empty predecessor, so its cover is built cold and
// an invalidation of it moves no other window. Tests of one window's
// cover lifecycle that invalidate several windows use lone windows.
func loneWindow(i int) int { return i*chainSpan + chainSpan - 1 }

// fillLoneStore is fillStore over the first windows lone windows.
func fillLoneStore(t *testing.T, h float64, windows int, perWindow int) *store.Store {
	t.Helper()
	st := store.MustOpenMemory(h)
	fillIndexes(t, st, h, windows, perWindow, loneWindow)
	return st
}

// fillIndexes appends perWindow seeded tuples to windows index(0), …,
// index(windows−1) of st.
func fillIndexes(t testing.TB, st *store.Store, h float64, windows int, perWindow int, index func(int) int) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < windows; i++ {
		c := index(i)
		b := make(tuple.Batch, perWindow)
		start := float64(c) * h
		for i := range b {
			b[i] = tuple.Raw{
				T: start + rng.Float64()*h,
				X: rng.Float64() * 2000,
				Y: rng.Float64() * 2000,
				S: 400 + rng.Float64()*100,
			}
		}
		if err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMaintainerBuildsAndCaches(t *testing.T) {
	st := fillStore(t, 100, 3, 50)
	m := NewMaintainer(st, Config{Cluster: clusterSeed(1)})
	cv1, err := m.CoverFor(1)
	if err != nil {
		t.Fatal(err)
	}
	if cv1.WindowIndex != 1 {
		t.Errorf("WindowIndex = %d, want 1", cv1.WindowIndex)
	}
	cv1b, err := m.CoverFor(1)
	if err != nil {
		t.Fatal(err)
	}
	if cv1 != cv1b {
		t.Error("second CoverFor should return the cached pointer")
	}
	// Window 1's cover starts from window 0's, which the read built too.
	got := m.CachedWindows()
	sort.Ints(got)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("CachedWindows = %v, want [0 1]", got)
	}
}

func TestMaintainerCoverAt(t *testing.T) {
	st := fillStore(t, 100, 3, 50)
	m := NewMaintainer(st, Config{Cluster: clusterSeed(2)})
	cv, err := m.CoverAt(250)
	if err != nil {
		t.Fatal(err)
	}
	if cv.WindowIndex != 2 {
		t.Errorf("WindowIndex = %d, want 2", cv.WindowIndex)
	}
	if !cv.ValidAt(250) {
		t.Error("cover must be valid at its query time")
	}
	if _, err := m.CoverAt(-5); err == nil {
		t.Error("expected error for negative time")
	}
}

func TestMaintainerEmptyWindow(t *testing.T) {
	st := fillStore(t, 100, 2, 10)
	m := NewMaintainer(st, Config{Cluster: clusterSeed(3)})
	if _, err := m.CoverFor(99); err == nil {
		t.Error("expected error for empty window")
	}
	// Errors are not cached: a later fill must succeed.
	b := tuple.Batch{{T: 9950, X: 1, Y: 1, S: 400}}
	if err := st.Append(b); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CoverFor(99); err != nil {
		t.Errorf("cover after late fill: %v", err)
	}
}

func TestMaintainerInvalidate(t *testing.T) {
	st := fillStore(t, 100, 1, 30)
	m := NewMaintainer(st, Config{Cluster: clusterSeed(4)})
	cv1, err := m.CoverFor(0)
	if err != nil {
		t.Fatal(err)
	}
	m.Invalidate(0)
	cv2, err := m.CoverFor(0)
	if err != nil {
		t.Fatal(err)
	}
	if cv1 == cv2 {
		t.Error("Invalidate should force a rebuild")
	}
}

func TestMaintainerConcurrentSingleBuild(t *testing.T) {
	st := fillStore(t, 100, 1, 2000)
	m := NewMaintainer(st, Config{Cluster: clusterSeed(5)})
	const goroutines = 16
	covers := make([]*Cover, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cv, err := m.CoverFor(0)
			if err != nil {
				t.Error(err)
				return
			}
			covers[g] = cv
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if covers[g] != covers[0] {
			t.Fatal("concurrent CoverFor returned different covers; build must be deduplicated")
		}
	}
}

// TestMaintainerInvalidateDuringBuild is the stale-cover race regression
// test: an Invalidate (late data) that lands while a build is in flight
// must not be clobbered when the build completes. The build hook pauses
// the first build after it has read the window, an ingest-plus-invalidate
// happens in that gap, and the post-invalidation cover must be rebuilt
// from the window including the late data.
func TestMaintainerInvalidateDuringBuild(t *testing.T) {
	st := fillStore(t, 100, 1, 30)
	m := NewMaintainer(st, Config{Cluster: clusterSeed(6)})
	entered := make(chan struct{})
	release := make(chan struct{})
	var first atomic.Bool
	m.testBuildHook = func(c int) {
		if first.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
	}

	type result struct {
		cv  *Cover
		err error
	}
	done := make(chan result)
	go func() {
		cv, err := m.CoverFor(0)
		done <- result{cv, err}
	}()
	<-entered

	// Late data arrives for window 0 while its build holds the old
	// snapshot; the engine would Append then Invalidate.
	late := tuple.Batch{{T: 50, X: 1, Y: 1, S: 999}}
	if err := st.Append(late); err != nil {
		t.Fatal(err)
	}
	m.Invalidate(0)
	close(release)
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}

	// The stale build must not have been re-cached.
	if got := m.CachedWindows(); len(got) != 0 {
		t.Fatalf("stale build was cached: CachedWindows = %v", got)
	}
	cv2, err := m.CoverFor(0)
	if err != nil {
		t.Fatal(err)
	}
	if cv2 == r.cv {
		t.Fatal("post-invalidation CoverFor returned the stale cover")
	}
	// The rebuilt cover must reflect the late tuple: it was built from 31
	// tuples, the stale one from 30.
	if cv3, err := m.CoverFor(0); err != nil || cv3 != cv2 {
		t.Fatalf("rebuilt cover not cached: %v %v", cv3, err)
	}
}

// TestMaintainerEvictionBound drives rolling ingest through a
// retention-bounded store and checks the cover cache never outgrows the
// retention horizon — the Figure 1 server under sustained ingest.
func TestMaintainerEvictionBound(t *testing.T) {
	const retain = 3
	st, err := store.Open(store.Config{WindowLength: 100, Retain: retain})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMaintainer(st, Config{Cluster: clusterSeed(7)})
	rng := rand.New(rand.NewSource(7))
	for c := 0; c < 20; c++ {
		b := make(tuple.Batch, 30)
		for i := range b {
			b[i] = tuple.Raw{
				T: float64(c)*100 + rng.Float64()*100,
				X: rng.Float64() * 2000,
				Y: rng.Float64() * 2000,
				S: 400 + rng.Float64()*100,
			}
		}
		if err := st.Append(b); err != nil {
			t.Fatal(err)
		}
		if _, err := m.CoverFor(c); err != nil {
			t.Fatalf("window %d: %v", c, err)
		}
		if got := len(m.CachedWindows()); got > retain {
			t.Fatalf("after window %d: %d cached covers, want <= %d", c, got, retain)
		}
	}
	// Only retained windows may remain cached.
	retained := map[int]bool{}
	for _, c := range st.WindowIndexes() {
		retained[c] = true
	}
	for _, c := range m.CachedWindows() {
		if !retained[c] {
			t.Errorf("cover cached for evicted window %d", c)
		}
	}
}

// warmRestartedMaintainer reopens a checkpointed store — every window
// lazy in the checkpoint file — and builds each window's cover once, the
// way warm-prime does after a restart: the state in which a query should
// be answered from the cover without touching the store again. The build
// decodes each window exactly once and installs nothing: "cover cached,
// window still lazy" is the steady state of every checkpointed window.
func warmRestartedMaintainer(tb testing.TB, windows int) (*store.Store, *Maintainer) {
	tb.Helper()
	cfg := store.Config{
		WindowLength: 100,
		Dir:          tb.TempDir(),
		Sync:         store.SyncNever(),
	}
	st, err := store.Open(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	fillWindows(tb, st, cfg.WindowLength, windows, 50)
	if err := st.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	if err := st.Close(); err != nil {
		tb.Fatal(err)
	}
	st, err = store.Open(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	if got := st.ColumnarStats().LazyWindows; got != int64(windows) {
		tb.Fatalf("LazyWindows after reopen = %d, want %d", got, windows)
	}
	m := NewMaintainer(st, Config{Cluster: clusterSeed(1)})
	for c := 0; c < windows; c++ {
		if _, err := m.CoverFor(c); err != nil {
			tb.Fatal(err)
		}
	}
	// fillWindows puts 50 tuples in a window: one block each.
	if cs := st.ColumnarStats(); cs.BlocksScanned != int64(windows) || cs.Materializations != int64(windows) || cs.LazyWindows != int64(windows) {
		tb.Fatalf("stats %+v after one build per window: want %d blocks and bases decoded, every window still lazy", cs, windows)
	}
	return st, m
}

// TestCoverAtHitDoesNotReadStore: a cover hit is index arithmetic plus a
// map lookup — it reads nothing from the store (every checkpoint-reader
// counter stays where the builds left it) and allocates nothing.
func TestCoverAtHitDoesNotReadStore(t *testing.T) {
	st, m := warmRestartedMaintainer(t, 4)
	built := st.ColumnarStats()
	for i := 0; i < 1000; i++ {
		cv, err := m.CoverAt(float64(i%400) + 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if want := (i % 400) / 100; cv.WindowIndex != want {
			t.Fatalf("CoverAt(%v) served window %d, want %d", float64(i%400)+0.5, cv.WindowIndex, want)
		}
	}
	if cs := st.ColumnarStats(); cs != built {
		t.Errorf("1000 cover hits moved the store's read counters:\n after  %+v\n before %+v", cs, built)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := m.CoverAt(250); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("CoverAt hit = %v allocs, want 0", allocs)
	}
}
