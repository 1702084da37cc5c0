package server

// The ingest acceptance test, run under `go test -race`: after an
// ingest burst through the asynchronous pipeline, (1) the covers readers
// hold are rebuilt by the background scheduler — a later query finds
// them current, with no synchronous Ad-KMN on the query path — while a
// burst into windows nobody has read builds nothing until a query asks,
// and (2) the pipeline's coalescing is the one thing between uploads and
// fsyncs: every store append is fsynced once, and there is one append per
// upload that did not ride along in another's (DurabilityStats against
// PipelineStats).

import (
	"context"
	"errors"
	"maps"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/kmeans"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/tuple"
)

// TestIngestBurstPrebuildsCoversAndCoalescesSyncs is the acceptance test.
// Windows 0..3 are read before their burst, windows 4..7 are not.
func TestIngestBurstPrebuildsCoversAndCoalescesSyncs(t *testing.T) {
	const (
		windowLen = 100.0
		windows   = 4 // per burst
		uploaders = 8
		uploads   = 4 // per uploader and burst
	)
	st, err := store.Open(store.Config{
		WindowLength: windowLen,
		Dir:          t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	e, err := NewMultiEngineOpts(map[tuple.Pollutant]*store.Store{tuple.CO2: st},
		core.Config{Cluster: kmeans.Config{Seed: 11}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	mnt := defaultMaintainer(t, e)
	read := func(c int) {
		t.Helper()
		tm := (float64(c) + 0.5) * windowLen
		if _, err := e.Query(ctx, query.Request{T: tm, X: 500, Y: 500, Pollutant: tuple.CO2}); err != nil {
			t.Fatalf("query window %d: %v", c, err)
		}
	}
	// burst runs concurrent small uploads across windows first..first+3.
	burst := func(first int) {
		var wg sync.WaitGroup
		for u := 0; u < uploaders; u++ {
			u := u
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < uploads; i++ {
					c := first + (u*uploads+i)%windows
					b := seedBatch(tuple.CO2, c, windowLen, 25, int64(1000+first*1000+u*100+i))
					if err := e.Ingest(ctx, tuple.CO2, b); err != nil {
						t.Errorf("ingest: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}

	// Readers hold windows 0..3 before their burst.
	for c := 0; c < windows; c++ {
		if err := e.Ingest(ctx, tuple.CO2, seedBatch(tuple.CO2, c, windowLen, 25, int64(c))); err != nil {
			t.Fatal(err)
		}
		read(c)
	}
	burst(0)

	// Quiesce the background scheduler, then verify every held window's
	// cover is cached and current — rebuilt off the query path.
	e.Scheduler().Wait()
	cached := mnt.CachedWindows()
	sort.Ints(cached)
	if len(cached) != windows {
		t.Fatalf("CachedWindows = %v, want all %d held windows rebuilt", cached, windows)
	}
	ss := e.SchedulerStats()
	if ss.Built == 0 {
		t.Fatalf("SchedulerStats = %+v, want background builds", ss)
	}

	// The query must be answered from the rebuilt cover: the exact
	// cached pointer, not a fresh synchronous build.
	before := make(map[int]*core.Cover, 2*windows)
	for _, c := range cached {
		if g, sg := mnt.Generation(c), mnt.ServedGeneration(c); sg != g {
			t.Fatalf("window %d: quiesced cover at generation %d, window at %d", c, sg, g)
		}
		if before[c], err = mnt.CoverFor(c); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < windows; c++ {
		read(c)
		cv, err := mnt.CoverFor(c)
		if err != nil {
			t.Fatal(err)
		}
		if cv != before[c] {
			t.Fatalf("window %d: query built a new cover instead of using the scheduler's", c)
		}
	}

	// A burst into windows 4..7, which nobody has read, builds nothing.
	burst(windows)
	e.Scheduler().Wait()
	if got := e.SchedulerStats(); got.Scheduled != ss.Scheduled || got.Built != ss.Built {
		t.Fatalf("SchedulerStats %+v → %+v: a burst into unread windows queued builds", ss, got)
	}
	if got := mnt.CachedWindows(); len(got) != windows {
		t.Fatalf("CachedWindows = %v after a burst into unread windows, want only the %d held ones", got, windows)
	}
	// The first query of each builds it, once: in window order each
	// window's predecessor is already cached, so the query builds that
	// window alone, and it is current and stays cached.
	for c := windows; c < 2*windows; c++ {
		read(c)
		if got := mnt.CachedWindows(); len(got) != c+1 {
			t.Fatalf("CachedWindows = %v after the first query of window %d, want windows 0..%d", got, c, c)
		}
		if g, sg := mnt.Generation(c), mnt.ServedGeneration(c); sg != g {
			t.Fatalf("window %d: first read built at generation %d, window at %d", c, sg, g)
		}
		if before[c], err = mnt.CoverFor(c); err != nil {
			t.Fatal(err)
		}
	}
	e.Scheduler().Wait()
	for c := windows; c < 2*windows; c++ {
		read(c)
		if cv, err := mnt.CoverFor(c); err != nil || cv != before[c] {
			t.Fatalf("window %d: read %p (err %v) after its first query, want the cover that query built %p", c, cv, err, before[c])
		}
	}
	if got := e.SchedulerStats(); got.Built != ss.Built {
		t.Fatalf("SchedulerStats %+v → %+v: the first queries' builds ran in the background", ss, got)
	}

	// Durability: every store append was fsynced before its uploads were
	// acknowledged, and coalescing alone decides how many appends — and
	// so fsyncs — the burst cost (how many is timing; TestPipelineCoalesces
	// in internal/ingest pins it deterministically).
	ds, ps := st.DurabilityStats(), e.PipelineStats()
	if ps.Submitted != windows+2*uploaders*uploads {
		t.Fatalf("PipelineStats = %+v, want %d submissions", ps, windows+2*uploaders*uploads)
	}
	if ds.Syncs != ds.Appends {
		t.Fatalf("%d fsyncs for %d appends, want one per append", ds.Syncs, ds.Appends)
	}
	if ds.Appends != ps.Submitted-ps.Coalesced {
		t.Fatalf("%d store appends, want submitted %d − coalesced %d", ds.Appends, ps.Submitted, ps.Coalesced)
	}
}

// TestIngestSkipsOutOfRetentionInvalidation is the satellite fix: a
// batch whose tuples land behind the retention horizon (evicted by its
// own append) must not queue dead cover builds.
func TestIngestSkipsOutOfRetentionInvalidation(t *testing.T) {
	const windowLen = 100.0
	st, err := store.Open(store.Config{WindowLength: windowLen, Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewMultiEngineOpts(map[tuple.Pollutant]*store.Store{tuple.CO2: st},
		core.Config{Cluster: kmeans.Config{Seed: 12}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()

	// Fill recent windows 10 and 11 (the retained pair).
	for _, c := range []int{10, 11} {
		if err := e.Ingest(ctx, tuple.CO2, seedBatch(tuple.CO2, c, windowLen, 30, int64(c))); err != nil {
			t.Fatal(err)
		}
	}
	e.Scheduler().Wait()
	base := e.SchedulerStats()

	// A straggler upload for long-dead window 1: the append evicts it
	// immediately (retention keeps the newest 2 of {1, 10, 11}), so no
	// invalidation — and no build — may be scheduled for it.
	if err := e.Ingest(ctx, tuple.CO2, seedBatch(tuple.CO2, 1, windowLen, 10, 99)); err != nil {
		t.Fatal(err)
	}
	e.Scheduler().Wait()
	got := e.SchedulerStats()
	if got.Scheduled != base.Scheduled {
		t.Fatalf("dead window queued a build: scheduled %d -> %d", base.Scheduled, got.Scheduled)
	}
	cached := defaultMaintainer(t, e).CachedWindows()
	sort.Ints(cached)
	for _, c := range cached {
		if c == 1 {
			t.Fatalf("dead window 1 has a cover (cached %v)", cached)
		}
	}
}

// TestEngineIngestAfterClose checks the write path fails cleanly once
// the engine is closed, while reads keep working.
func TestEngineIngestAfterClose(t *testing.T) {
	st := store.MustOpenMemory(100)
	e, err := NewMultiEngineOpts(map[tuple.Pollutant]*store.Store{tuple.CO2: st},
		core.Config{Cluster: kmeans.Config{Seed: 13}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := e.Ingest(ctx, tuple.CO2, seedBatch(tuple.CO2, 0, 100, 30, 1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal("second Close errored:", err)
	}
	if err := e.Ingest(ctx, tuple.CO2, seedBatch(tuple.CO2, 1, 100, 5, 2)); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Ingest after Close = %v, want ErrEngineClosed", err)
	}
	if err := e.TryIngest(ctx, tuple.CO2, seedBatch(tuple.CO2, 1, 100, 5, 2)); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("TryIngest after Close = %v, want ErrEngineClosed", err)
	}
	// Reads still answer from built state.
	if _, err := e.Query(ctx, query.Request{T: 50, X: 500, Y: 500, Pollutant: tuple.CO2}); err != nil {
		t.Fatalf("query after Close: %v", err)
	}
}

// TestIngestInvalidatesEachTouchedWindowOnce: the sink finds the touched
// windows by walking runs of equal window index; an upload that steps
// back in time (not what a bus sends, but legal) still invalidates every
// window it landed in exactly once. The sink's own invalidations are
// counted, not the windows' generations: an invalidation also advances
// the later windows chained to the one written, as many as have covers
// the background builders happened to cache.
func TestIngestInvalidatesEachTouchedWindowOnce(t *testing.T) {
	st := store.MustOpenMemory(100)
	e, err := NewMultiEngineOpts(map[tuple.Pollutant]*store.Store{tuple.CO2: st},
		core.Config{Cluster: kmeans.Config{Seed: 16}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var mu sync.Mutex
	invalidated := map[int]uint64{}
	e.invalidateTestHook = func(p tuple.Pollutant, c int) {
		mu.Lock()
		invalidated[c]++
		mu.Unlock()
	}
	at := func(ts ...float64) tuple.Batch {
		b := make(tuple.Batch, len(ts))
		for i, tm := range ts {
			b[i] = tuple.Raw{T: tm, X: float64(10 * i), Y: float64(7 * i), S: 400}
		}
		return b
	}
	for _, tc := range []struct {
		name  string
		batch tuple.Batch
		want  map[int]uint64 // invalidations per window so far
	}{
		{"time-ordered", at(10, 20, 110, 120, 130, 210), map[int]uint64{0: 1, 1: 1, 2: 1}},
		{"stepping back", at(220, 30, 230, 40, 140, 50, 240, 330), map[int]uint64{0: 2, 1: 2, 2: 2, 3: 1}},
	} {
		if err := e.Ingest(context.Background(), tuple.CO2, tc.batch); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		if !maps.Equal(invalidated, tc.want) {
			t.Errorf("%s: invalidations per window %v, want %v", tc.name, invalidated, tc.want)
		}
		mu.Unlock()
	}
}

// TestEngineCloseLeavesNoStaleCover: Close stops the builders, so a cover
// still waiting for its rebuild must not outlive it — a read after Close
// answers from the windows' final contents, not from whatever cover was
// cached when the scheduler went away.
func TestEngineCloseLeavesNoStaleCover(t *testing.T) {
	const windows = 4
	cfg := core.Config{Cluster: kmeans.Config{Seed: 15}}
	st := store.MustOpenMemory(100)
	e, err := NewMultiEngineOpts(map[tuple.Pollutant]*store.Store{tuple.CO2: st}, cfg,
		Options{Scheduler: core.SchedulerConfig{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var first tuple.Batch
	for c := 0; c < windows; c++ {
		first = append(first, seedBatch(tuple.CO2, c, 100, 400, int64(c))...)
	}
	if err := e.Ingest(ctx, tuple.CO2, first); err != nil {
		t.Fatal(err)
	}
	e.Scheduler().Wait() // every window has a current cover
	// One upload dirties all four windows at once: the single builder can
	// be on one of them, the other rebuilds are still queued when Close
	// discards them.
	var late tuple.Batch
	for c := 0; c < windows; c++ {
		late = append(late, seedBatch(tuple.CO2, c, 100, 400, int64(10+c))...)
	}
	if err := e.Ingest(ctx, tuple.CO2, late); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < windows; c++ {
		got, err := e.CoverAt(ctx, tuple.CO2, float64(c)*100+50)
		if err != nil {
			t.Fatal(err)
		}
		shardCfg := cfg
		shardCfg.Pollutant = tuple.CO2
		want, err := core.BuildCover(st.Window(c), c, 100, shardCfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("window %d after Close is served from a stale cover (%d regions, from scratch %d)",
				c, got.Size(), want.Size())
		}
	}
}

// TestEngineIngestValidatesBeforeQueueing checks a garbage upload is
// rejected at submit — it must not poison a coalesced append.
func TestEngineIngestValidatesBeforeQueueing(t *testing.T) {
	st := store.MustOpenMemory(100)
	e, err := NewMultiEngineOpts(map[tuple.Pollutant]*store.Store{tuple.CO2: st},
		core.Config{Cluster: kmeans.Config{Seed: 14}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	bad := tuple.Batch{{T: -5, X: 0, Y: 0, S: 400}}
	if err := e.Ingest(context.Background(), tuple.CO2, bad); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if ps := e.PipelineStats(); ps.Submitted != 0 {
		t.Fatalf("invalid batch was queued: %+v", ps)
	}
}
