package store

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/colblock"
	"repro/internal/tuple"
)

// tiedBatch returns n tuples of window c (length 100) whose timestamps
// come from a handful of values, so most of them tie; X numbers them in
// arrival order from *seq on.
func tiedBatch(rng *rand.Rand, c, n int, seq *int) tuple.Batch {
	b := make(tuple.Batch, n)
	for i := range b {
		*seq++
		b[i] = tuple.Raw{T: float64(c*100 + 10*rng.Intn(8)), X: float64(*seq), Y: rng.Float64(), S: rng.NormFloat64()}
	}
	return b
}

// stableByTime is the order Window promises — by time, ties in arrival
// order — over a copy of what arrived.
func stableByTime(arrived tuple.Batch) tuple.Batch {
	out := slices.Clone(arrived)
	out.SortByTime()
	return out
}

// TestWindowIntoMatchesWindow: WindowInto into any caller buffer — none,
// one full of another window's tuples, one with a prefix to keep — yields
// Window's tuples bit for bit, in the stable time order, sharing nothing
// with the store; for windows in memory, lazy in a checkpoint, and lazy
// with an in-memory suffix.
func TestWindowIntoMatchesWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	dir := t.TempDir()
	s, err := Open(colCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	arrived := map[int]tuple.Batch{}
	seq := 0
	add := func(st *Store, c, n int) {
		t.Helper()
		b := tiedBatch(rng, c, n, &seq)
		arrived[c] = append(arrived[c], b...)
		if err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	// Interleaved arrival: every window is appended to several times, in a
	// random order, with batches that tie with each other.
	for round := 0; round < 6; round++ {
		for _, c := range rng.Perm(5) {
			add(s, c, 1+rng.Intn(60))
		}
	}
	check := func(st *Store, label string) {
		t.Helper()
		stale := make(tuple.Batch, 4096)
		for i := range stale {
			stale[i] = tuple.Raw{T: -1, X: -1, Y: -1, S: -1}
		}
		for c, in := range arrived {
			want := stableByTime(in)
			if got := st.Window(c); !batchBitEqual(got, want) {
				t.Fatalf("%s: Window(%d) is not the stable time order of what arrived", label, c)
			}
			if got := st.WindowInto(nil, c); !batchBitEqual(got, want) {
				t.Fatalf("%s: WindowInto(nil, %d) differs from Window", label, c)
			}
			got := st.WindowInto(stale[:0], c)
			if !batchBitEqual(got, want) {
				t.Fatalf("%s: WindowInto(stale[:0], %d) differs from Window", label, c)
			}
			if &got[0] != &stale[0] {
				t.Errorf("%s: WindowInto left a buffer with room for window %d unused", label, c)
			}
			prefix := tuple.Batch{{T: 9e9, X: 1}, {T: -5, X: 2}}
			got = st.WindowInto(slices.Clone(prefix), c)
			if !batchBitEqual(got[:2], prefix) || !batchBitEqual(got[2:], want) {
				t.Fatalf("%s: WindowInto(prefix, %d) must keep the prefix and sort only what it appends", label, c)
			}
			// What comes back is the caller's: scribbling on it leaves the
			// store's window as it was.
			for i := range got {
				got[i] = tuple.Raw{}
			}
			if !batchBitEqual(st.Window(c), want) {
				t.Fatalf("%s: a WindowInto result aliases the store's window %d", label, c)
			}
		}
		if got := st.WindowInto(stale[:3], 999); len(got) != 3 {
			t.Errorf("%s: WindowInto of an absent window returned %d tuples, want dst as it came", label, len(got))
		}
	}
	check(s, "in memory")

	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	add(s, 4, 25) // a suffix behind the checkpoint: window 4 restarts lazy + in memory
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(colCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if lazy := r.ColumnarStats().LazyWindows; lazy != 5 {
		t.Fatalf("%d lazy windows after the restart, want 5", lazy)
	}
	// A lazy window's base comes back in the file's block order, not in
	// arrival order, so after a restart ties are ordered by the file — what
	// Window returned before the restart is no longer the reference; the
	// reference is Window itself, and the tuple multiset.
	for c, in := range arrived {
		w := r.Window(c)
		if !w.SortedByTime() || len(w) != len(in) {
			t.Fatalf("restarted Window(%d): %d tuples sorted=%v, want %d sorted", c, len(w), w.SortedByTime(), len(in))
		}
		arrived[c] = w
	}
	check(r, "materialized after restart")
}

// TestWindowIntoWhileWindowsAreEvicted: a reader racing the retention
// bound gets a window whole or not at all, lazy windows included (run
// under -race).
func TestWindowIntoWhileWindowsAreEvicted(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	dir := t.TempDir()
	cfg := colCfg(dir)
	cfg.Retain = 6
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 6; c++ {
		if err := s.Append(randBatch(rng, 200, float64(c*100), float64(c*100+100))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
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

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the fleet moves on: every new window evicts the oldest
		defer wg.Done()
		for c := 6; c < 30; c++ {
			if err := r.Append(randBatch(rng, 200, float64(c*100), float64(c*100+100))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for reader := 0; reader < 2; reader++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf tuple.Batch
			for pass := 0; pass < 40; pass++ {
				for c := 0; c < 30; c++ {
					buf = r.WindowInto(buf[:0], c)
					if len(buf) != 0 && len(buf) != 200 {
						t.Errorf("window %d read with %d of its 200 tuples", c, len(buf))
						return
					}
					if !buf.SortedByTime() {
						t.Errorf("window %d read unsorted", c)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// warmDurable returns a durable store of four windows, the third filled by
// 64 batches of 256 tuples — so its log sealed chunks and the packing
// scratch is warm — and a batch for the fourth, the live one.
func warmDurable(tb testing.TB, sync SyncPolicy) (*Store, tuple.Batch) {
	tb.Helper()
	s, err := Open(Config{WindowLength: 3600, Retain: 4, Dir: tb.TempDir(), Sync: sync})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	b := make(tuple.Batch, 256)
	for c := 0; c < 4; c++ { // as many windows as the store retains
		for i := range b {
			b[i] = tuple.Raw{T: float64(c*3600 + i), X: float64(i * 7 % 2000), Y: float64(i * 13 % 2000), S: 430}
		}
		n := 1
		if c == 2 {
			n = 64
		}
		for ; n > 0; n-- {
			if err := s.Append(b); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return s, b // b now lies in window 3, the live one
}

// TestWarmDurableAppendAllocatesNothing: a durable append into a window
// builds its segment frame in the store's buffer, extends the window's
// open chunk in place and, with nothing to evict, builds no index union.
func TestWarmDurableAppendAllocatesNothing(t *testing.T) {
	s, b := warmDurable(t, SyncEveryBatch())
	before := s.DurabilityStats()
	allocs := testing.AllocsPerRun(30, func() {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	})
	// One append in four fills and seals a chunk of the window's log,
	// whose packed run is its one allocation; under the race detector the
	// pooled scratch it packs with is now and then made afresh.
	ceiling := racePackAllocs * float64(len(b)) / colblock.ChunkTuples
	if allocs > ceiling {
		t.Errorf("warm durable 256-tuple append = %v allocs, want ≤ %v", allocs, ceiling)
	}
	if after := s.DurabilityStats(); after.Syncs-before.Syncs != after.Appends-before.Appends || after.Appends == before.Appends {
		t.Errorf("appends %d → %d, fsyncs %d → %d: every append must still be fsynced",
			before.Appends, after.Appends, before.Syncs, after.Syncs)
	}
}

// BenchmarkAppendDurable256 is the write path below the pipeline: one
// 256-tuple batch into a durable store — frame, write, window append —
// without the fsync, which would be all of ns/op. Stream time moves on so
// that every 64th append opens a window and evicts one: B/op is the new
// window's array spread over the appends that fill it, and nothing else.
func BenchmarkAppendDurable256(b *testing.B) {
	s, batch := warmDurable(b, SyncNever())
	b.ReportAllocs()
	b.SetBytes(256 * 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := 3 + i/64
		for j := range batch {
			batch[j].T = float64(c*3600 + j)
		}
		if err := s.Append(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// releasedStore returns a durable store holding windows × perWindow tuples
// of a bus-like stream — full-mantissa positions and readings, which is
// what makes a block cost what the benchmark's blocks cost — all of them
// checkpointed and released, and fill, which makes b a batch for window c.
func releasedStore(tb testing.TB, windows, perWindow int) (s *Store, fill func(b tuple.Batch, c int) tuple.Batch) {
	tb.Helper()
	s, err := Open(Config{WindowLength: 3600, Dir: tb.TempDir(), Sync: SyncNever()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	rng := rand.New(rand.NewSource(22))
	fill = func(b tuple.Batch, c int) tuple.Batch {
		for i := range b {
			b[i] = tuple.Raw{
				T: float64(c*3600) + 3600*float64(i)/float64(len(b)),
				X: rng.Float64()*6000 - 2000, Y: rng.Float64()*5000 - 1500, S: 400 + rng.NormFloat64()*30,
			}
		}
		return b
	}
	b := make(tuple.Batch, perWindow)
	for c := 0; c < windows; c++ {
		if err := s.Append(fill(b, c)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	if cs := s.ColumnarStats(); cs.LazyWindows != int64(windows) {
		tb.Fatalf("stats %+v: want all %d windows released", cs, windows)
	}
	return s, fill
}

// TestCheckpointSteadyStateAllocs: a checkpoint's cost follows what
// changed since the last one, not what is retained. Ten days of hourly
// windows released, 200 tuples appended to one of them: the next checkpoint
// carries 239 windows over block for block and decodes, merges and encodes
// one, with bookkeeping that stays flat — one slice of window headers, one
// directory, one reader — where a version that decoded every lazy window,
// or kept a map entry and a block list per window, took 600 allocations
// and 300–400 KiB (and the checkpoint of resident windows before it 86 and
// 78 KiB).
func TestCheckpointSteadyStateAllocs(t *testing.T) {
	s, fill := releasedStore(t, 240, 1900)
	batch := make(tuple.Batch, 200)
	var mallocs, bytes []uint64
	const rounds = 5
	for i := 0; i <= rounds; i++ {
		// A different window each round, so the dirty window, and with it
		// the scratch it is merged in, is the same size every time.
		if err := s.Append(fill(batch, 239-i)); err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		if i > 0 { // the first round sizes the pooled scratch for a window that gained tuples
			mallocs = append(mallocs, m1.Mallocs-m0.Mallocs)
			bytes = append(bytes, m1.TotalAlloc-m0.TotalAlloc)
		}
	}
	// The median: a round the collector emptied the scratch pools before
	// pays for new scratch, which says nothing about the bookkeeping.
	slices.Sort(mallocs)
	slices.Sort(bytes)
	if m, b := mallocs[rounds/2], bytes[rounds/2]; (m > 150 || b > 160<<10) && !raceEnabled {
		t.Errorf("steady-state checkpoint of 240 windows, one dirty = %d mallocs, %d KiB; want ≤ 150 and ≤ 160 KiB", m, b>>10)
	}
	if cs := s.ColumnarStats(); cs.LazyWindows != 240 || cs.BlocksScanned != rounds+1 {
		t.Errorf("stats %+v: want every window lazy again and one block decoded per checkpoint, the dirty window's", cs)
	}
	if st := s.CheckpointStats(); st.LastTuples != int64(s.Len()) || st.LastWindows != 240 {
		t.Errorf("checkpoint stats %+v: want all %d tuples in the last file", st, s.Len())
	}
	if got, want := s.Len(), 240*1900+(rounds+1)*200; got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}
}

// TestLazyWindowIntoAllocs: a read of a released window reads its base's
// blocks into pooled memory, decodes them straight into the caller's
// buffer, and allocates nothing once the buffer is large enough.
func TestLazyWindowIntoAllocs(t *testing.T) {
	s, fill := releasedStore(t, 4, 1900)
	if err := s.Append(fill(make(tuple.Batch, 200), 3)); err != nil { // window 3: lazy base + in-memory suffix
		t.Fatal(err)
	}
	for _, c := range []int{1, 3} {
		buf := s.WindowInto(nil, c)
		if want := 1900 + 200*(c/3); len(buf) != want || !buf.SortedByTime() {
			t.Fatalf("window %d read %d tuples, want %d sorted by time", c, len(buf), want)
		}
		allocs := testing.AllocsPerRun(50, func() { buf = s.WindowInto(buf[:0], c) })
		if allocs != 0 && !raceEnabled {
			t.Errorf("lazy WindowInto of window %d = %v allocs, want 0", c, allocs)
		}
	}
	if cs := s.ColumnarStats(); cs.LazyWindows != 4 || cs.Materializations == 0 {
		t.Errorf("stats %+v: want the reads served from the file, the windows still lazy", cs)
	}
}

// BenchmarkCheckpointSteadyState is the checkpoint a long-running node
// takes: ten days of hourly windows already in the checkpoint file, 200
// tuples appended to one of them since.
func BenchmarkCheckpointSteadyState(b *testing.B) {
	s, fill := releasedStore(b, 240, 1900)
	batch := make(tuple.Batch, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := s.Append(fill(batch, 239-i%240)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := s.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLazyWindowInto reads one released window into a warm buffer:
// what a cover build pays for its tuples once they live in the checkpoint
// file (resident: a copy of the same window out of memory).
func BenchmarkLazyWindowInto(b *testing.B) {
	b.Run("file", func(b *testing.B) {
		s, _ := releasedStore(b, 4, 1900)
		buf := s.WindowInto(nil, 2)
		b.ReportAllocs()
		b.SetBytes(int64(len(buf)) * 32)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = s.WindowInto(buf[:0], 2)
		}
	})
	b.Run("resident", func(b *testing.B) {
		s := MustOpenMemory(3600)
		src, _ := releasedStore(b, 4, 1900)
		if err := s.Append(src.Window(2)); err != nil {
			b.Fatal(err)
		}
		buf := s.WindowInto(nil, 2)
		b.ReportAllocs()
		b.SetBytes(int64(len(buf)) * 32)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = s.WindowInto(buf[:0], 2)
		}
	})
}
