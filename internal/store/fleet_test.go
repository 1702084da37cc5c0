package store

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/colblock"
	"repro/internal/geo"
	"repro/internal/sim"
	"repro/internal/tuple"
)

// fleetDay is the first day of the end-to-end benchmark's fleet in time
// order: sim.DefaultLausanne(1), lines 0 and 2 served by 16 buses sampling
// every 30 s — ≈ 1 890 tuples in each of 24 one-hour windows.
var fleetDay = sync.OnceValue(func() tuple.Batch {
	const vehicles = 16
	cfg := sim.DefaultLausanne(1)
	lines := []*geo.Polyline{cfg.Vehicles[0].Route, cfg.Vehicles[2].Route}
	rng := rand.New(rand.NewSource(1))
	vs := make([]sim.Vehicle, vehicles)
	for i := range vs {
		line := lines[i%len(lines)]
		vs[i] = sim.Vehicle{Route: line, SpeedMPS: 6 + 2*rng.Float64(), StartOffset: line.Length() * rng.Float64()}
	}
	cfg.Vehicles = vs
	cfg.SamplingInterval = 30
	cfg.Duration = 24 * 3600
	data, err := sim.Generate(cfg)
	if err != nil {
		panic(err)
	}
	data.SortByTime()
	return data
})

// appendDay appends a day of tuples to s in 256-tuple batches, as the
// ingest pipeline's coalesced uploads reach it.
func appendDay(tb testing.TB, s *Store, day tuple.Batch) {
	for lo := 0; lo < len(day); lo += 256 {
		if err := s.Append(day[lo:min(lo+256, len(day))]); err != nil {
			tb.Fatal(err)
		}
	}
}

// nextDay moves day's tuples on by one day.
func nextDay(day tuple.Batch) {
	for i := range day {
		day[i].T += 24 * 3600
	}
}

// TestAppendAllocatesPackedBytes: a store keeps each window's tuples in a
// packed log and seals it when the stream moves past it, so appending the
// fleet's day allocates what the packed chunks hold and little else — a
// raw tuple alone is 32 B. The chunks pack to ≈ 21.9 B a tuple; a full
// chunk is fitted to its size class, so the memory they take rounds that
// up only to ≈ 22.3 (23.4 before fitting, at the parent commit a0ee19b,
// which allocated 24.05 B a tuple here), and the rest — the first day's
// last chunk, sealed once the second day's first window fills a chunk, and
// the windows' bookkeeping — adds ≈ 0.7. The raw chunk the newest window fills comes back from the pool.
// The day measured is the store's second: the first warms the pools, as a
// running server's are, and on one P each pooled buffer given back is the
// next one taken.
func TestAppendAllocatesPackedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := MustOpenMemory(3600)
	appendDay(t, s, fleetDay())
	day := slices.Clone(fleetDay())
	nextDay(day)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	appendDay(t, s, day)
	runtime.ReadMemStats(&m1)
	n := float64(len(day))
	perTuple := float64(m1.TotalAlloc-m0.TotalAlloc) / n
	packed, held := 0, 0
	s.mu.RLock()
	for _, c := range s.WindowIndexes()[24:] {
		for _, ch := range s.windows[c].Chunks(nil) {
			packed, held = packed+len(ch.Packed()), held+cap(ch.Packed())
		}
	}
	s.mu.RUnlock()
	t.Logf("%.0f tuples: %.2f B and %.4f allocations a tuple; its chunks hold %.2f B of runs a tuple in %.2f B of memory",
		n, perTuple, float64(m1.Mallocs-m0.Mallocs)/n, float64(packed)/n, float64(held)/n)
	if perTuple > 23.5 {
		t.Errorf("appending the fleet's day allocates %.2f B a tuple, want ≤ 23.5", perTuple)
	}
	var got tuple.Batch
	for _, c := range s.WindowIndexes()[:24] {
		got = s.WindowInto(got, c)
	}
	if day := fleetDay(); !batchBitEqual(got, day) {
		t.Errorf("the store's first day holds %d tuples that differ from the %d appended", len(got), len(day))
	}
}

// TestCheckpointedDayAllocatesLittle: a checkpoint's release hands the
// bytes of the chunks it drops back, and the next seals pack into them. A
// durable store that took the fleet's day and checkpointed it takes the
// next day into the chunk memory the first one released, and allocates
// next to nothing: 23.5 B a tuple at the parent commit 1dc7f89, where
// every seal packed into new memory. On one P each spare handed back is
// there for the next seal, and the second day triggers no collection to
// empty the pool.
func TestCheckpointedDayAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s, err := Open(Config{WindowLength: 3600, Retain: 48, Dir: t.TempDir(), Sync: SyncNever()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	day := slices.Clone(fleetDay())
	appendDay(t, s, day)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	nextDay(day)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	appendDay(t, s, day)
	runtime.ReadMemStats(&m1)
	n := float64(len(day))
	perTuple := float64(m1.TotalAlloc-m0.TotalAlloc) / n
	t.Logf("%.0f tuples after a checkpoint: %.2f B and %.4f allocations a tuple", n, perTuple, float64(m1.Mallocs-m0.Mallocs)/n)
	if perTuple > 2 {
		t.Errorf("the day after a checkpoint allocates %.2f B a tuple, want ≤ 2", perTuple)
	}
}

// lateDay is day in 256-tuple batches delivered as a fleet with flaky
// uplinks does: one batch in ten reaches the store 41 batches (≈ 5.5
// windows) late, half of those whole and half one tuple at a time. It
// returns the appends in delivery order and how many tuples came late.
func lateDay(day tuple.Batch) (appends []tuple.Batch, late int) {
	var batches []tuple.Batch
	for lo := 0; lo < len(day); lo += 256 {
		batches = append(batches, day[lo:min(lo+256, len(day))])
	}
	var held []int // batches held back, in the order they are due
	deliver := func(j int) {
		if j%20 == 3 {
			for k := range batches[j] {
				appends = append(appends, batches[j][k:k+1])
			}
		} else {
			appends = append(appends, batches[j])
		}
	}
	for i, b := range batches {
		if i%20 == 3 || i%20 == 13 {
			held = append(held, i)
			late += len(b)
			continue
		}
		appends = append(appends, b)
		for len(held) > 0 && held[0]+41 <= i {
			deliver(held[0])
			held = held[1:]
		}
	}
	for _, j := range held {
		deliver(j)
	}
	return appends, late
}

// straddleDay is day in 256-tuple uploads as four gateways send them side
// by side: at an hour's end, the upload after the one that straddles it
// reaches the store first, so the straddling upload's head comes late into
// the window the stream has just left. It returns the appends in delivery
// order and how many tuples came late.
func straddleDay(day tuple.Batch) (appends []tuple.Batch, late int) {
	var batches []tuple.Batch
	for lo := 0; lo < len(day); lo += 256 {
		batches = append(batches, day[lo:min(lo+256, len(day))])
	}
	window := func(r tuple.Raw) int { return tuple.WindowIndex(r.T, 3600) }
	for i := 0; i < len(batches); i++ {
		b := batches[i]
		if i+1 == len(batches) || window(b[0]) == window(b[len(b)-1]) {
			appends = append(appends, b)
			continue
		}
		appends = append(appends, batches[i+1], b)
		for _, r := range b {
			if window(r) < window(b[len(b)-1]) {
				late++
			}
		}
		i++
	}
	return appends, late
}

// reopens counts the windows b reaches whose logs' last chunk was sealed
// early (not Full): an append unpacks that chunk again and packs it anew.
// It looks at the chunks through scratch, so that it allocates nothing.
func reopens(s *Store, b tuple.Batch, scratch *[]colblock.Chunk) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for i, r := range b {
		c := tuple.WindowIndex(r.T, s.cfg.WindowLength)
		if i > 0 && c == tuple.WindowIndex(b[i-1].T, s.cfg.WindowLength) {
			continue
		}
		lg := s.windows[c]
		if lg == nil {
			continue
		}
		chunks := lg.Chunks((*scratch)[:0])
		if len(chunks) > 0 && lg.Len() == colblock.ChunksLen(chunks) && !chunks[len(chunks)-1].Full() {
			n++
		}
		*scratch = chunks
	}
	return n
}

// TestLateAppendsStayPacked: tuples that reach a window behind the newest
// — whole late batches, single tuples, and the head of an upload that
// straddles an hour's end and arrives after the next one — are packed into
// the window's chunks as if they had come in order: a late window keeps
// its open chunk until the stream moves on, the window the stream left
// keeps it until the next one fills its first chunk, and the next append
// after a seal unpacks the window's last chunk, sealed early, and fills it
// up. So every chunk but a window's last was sealed full, the sealed
// chunks pack to what an in-order day does, no more than the newest window
// and maxOpenLate late ones hold raw tuples, and each window reads back
// (ReadAppended) its
// tuples in delivery order. Uploads that straddle an hour's end reopen no
// window. A late tuple costs less to append than at the parent commit
// 02949e9, where the held-back day below allocated 70.4 B a tuple, 308 B
// a late tuple over the in-order cost, to hold every tuple raw.
func TestLateAppendsStayPacked(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, in := range []struct {
		name    string
		deliver func(tuple.Batch) ([]tuple.Batch, int)
		reopens bool // whether windows may be reopened
	}{
		{"held-back", lateDay, true},
		{"straddling", straddleDay, false},
	} {
		t.Run(in.name, func(t *testing.T) {
			s := MustOpenMemory(3600)
			day := slices.Clone(fleetDay())
			var m0, m1, m2 runtime.MemStats
			appendDay(t, s, day)
			nextDay(day)
			runtime.ReadMemStats(&m0)
			appendDay(t, s, day)
			runtime.ReadMemStats(&m1)
			nextDay(day)
			appends, late := in.deliver(day)
			reopened, scratch := 0, make([]colblock.Chunk, 0, 8)
			for _, b := range appends {
				reopened += reopens(s, b, &scratch)
				if err := s.Append(b); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&m2)
			n := float64(len(day))
			inOrder := float64(m1.TotalAlloc-m0.TotalAlloc) / n
			withLate := float64(m2.TotalAlloc-m1.TotalAlloc) / n
			perLate := (withLate - inOrder) * n / float64(late)
			t.Logf("%d of %.0f tuples late (%d appends, %d reopening a window): %.2f B a tuple appended in order, %.2f with the late ones, %.0f B a late tuple over the in-order cost",
				late, n, len(appends), reopened, inOrder, withLate, perLate)
			if perLate > 250 {
				t.Errorf("a late tuple allocates %.0f B over an in-order one, want ≤ 250", perLate)
			}
			if !in.reopens && reopened > 0 {
				t.Errorf("%d appends reopened a window sealed short, want 0", reopened)
			}

			want := map[int]tuple.Batch{}
			for _, b := range appends {
				for _, r := range b {
					c := tuple.WindowIndex(r.T, 3600)
					want[c] = append(want[c], r)
				}
			}
			packed, sealed, chunks, open := 0, 0, 0, 0
			s.mu.RLock()
			for c := range want {
				refs := s.windows[c].Chunks(nil)
				for i, ch := range refs {
					if i < len(refs)-1 && !ch.Full() {
						t.Errorf("window %d: chunk %d of %d (%d tuples) was sealed early; only the last may be", c, i, len(refs), ch.Len())
					}
					packed += len(ch.Packed())
				}
				chunks += len(refs)
				sealed += colblock.ChunksLen(refs)
				if s.windows[c].Len() > colblock.ChunksLen(refs) {
					open++
				}
			}
			s.mu.RUnlock()
			t.Logf("%d windows: %d chunks of %d tuples, %.2f packed B a tuple; %d windows with raw tuples", len(want), chunks, sealed, float64(packed)/float64(sealed), open)
			if perTuple := float64(packed) / float64(sealed); perTuple > 23 {
				t.Errorf("a day with late tuples packs to %.2f B a tuple, want ≤ 23", perTuple)
			}
			if open > 1+maxOpenLate {
				t.Errorf("%d windows hold raw tuples, want ≤ %d", open, 1+maxOpenLate)
			}
			for c, w := range want {
				got := make(tuple.Batch, len(w))
				if err := s.ReadAppended(got, c, 0); err != nil || s.WindowLen(c) != len(w) || !batchBitEqual(got, w) {
					t.Errorf("window %d holds %d tuples that differ from the %d delivered (%v)", c, s.WindowLen(c), len(w), err)
				}
			}
		})
	}
}

// rawWindows returns the windows whose logs hold tuples outside sealed
// chunks.
func rawWindows(s *Store) []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var raw []int
	for c, lg := range s.windows {
		if lg.Len() > colblock.ChunksLen(lg.Chunks(nil)) {
			raw = append(raw, c)
		}
	}
	slices.Sort(raw)
	return raw
}

// TestLateWindowsKeepFewOpenChunks: late tuples into more windows than
// maxOpenLate leave only the last maxOpenLate reached, beside the newest,
// with an open chunk; the stream moving on seals them all but the window
// it left, which it seals once the new window fills its first chunk, and a
// checkpoint's snapshot seals them all.
func TestLateWindowsKeepFewOpenChunks(t *testing.T) {
	s, err := Open(Config{WindowLength: 10, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addN := func(c, n int) {
		t.Helper()
		b := make(tuple.Batch, n)
		for i := range b {
			b[i] = tuple.Raw{T: float64(10*c + 1), X: float64(i), Y: 2, S: 3}
		}
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	add := func(c int) { t.Helper(); addN(c, 1) }
	add(20)
	for c := range 8 {
		add(c)
		add(c)
	}
	want := []int{8 - maxOpenLate, 20}
	for c := 8 - maxOpenLate + 1; c < 8; c++ {
		want = slices.Insert(want, len(want)-1, c)
	}
	if got := rawWindows(s); !slices.Equal(got, want) {
		t.Fatalf("after late tuples into windows 0–7 behind 20, windows %v hold raw tuples, want %v", got, want)
	}
	add(21)
	if got := rawWindows(s); !slices.Equal(got, []int{20, 21}) {
		t.Fatalf("after the stream moved to window 21, windows %v hold raw tuples, want [20 21]", got)
	}
	addN(21, colblock.ChunkTuples)
	if got := rawWindows(s); !slices.Equal(got, []int{21}) {
		t.Fatalf("after window 21 filled its first chunk, windows %v hold raw tuples, want [21]", got)
	}
	add(3)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	add(5)
	if got := rawWindows(s); !slices.Equal(got, []int{5}) {
		t.Fatalf("after a checkpoint and a late tuple into window 5, windows %v hold raw tuples, want [5]", got)
	}
	for c := range 8 {
		want := 2
		if c == 3 || c == 5 {
			want = 3
		}
		if got := s.WindowLen(c); got != want {
			t.Errorf("window %d holds %d tuples, want %d", c, got, want)
		}
	}
}

// BenchmarkStoreAppendFleet appends the fleet's day to a memory-only
// store in 256-tuple batches, one day after another, and reports what that
// allocates a tuple.
func BenchmarkStoreAppendFleet(b *testing.B) {
	day := slices.Clone(fleetDay())
	s := MustOpenMemory(3600)
	b.ReportAllocs()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range b.N {
		appendDay(b, s, day)
		nextDay(day)
	}
	runtime.ReadMemStats(&m1)
	tuples := float64(b.N * len(day))
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/tuples, "B/tuple")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/tuples, "allocs/tuple")
}

// BenchmarkWindowIntoFleet reads each of the fleet day's 24 windows once,
// as a day of cover builds does: what a build pays for its window read
// (internal/core's BenchmarkBuildDay is the build it is set against).
func BenchmarkWindowIntoFleet(b *testing.B) {
	s := MustOpenMemory(3600)
	appendDay(b, s, fleetDay())
	idxs := s.WindowIndexes()
	var buf tuple.Batch
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, c := range idxs {
			buf = s.WindowInto(buf[:0], c)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/day")
}
