package server

// Tests for the engine-level checkpoint plumbing: the manual trigger,
// the periodic trigger, aggregated stats, restart recovery, and the
// /v1/stats checkpoint section.

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/colblock"
	"repro/internal/core"
	"repro/internal/kmeans"
	"repro/internal/store"
	"repro/internal/tuple"
)

func durableStores(t *testing.T, root string) map[tuple.Pollutant]*store.Store {
	t.Helper()
	out := make(map[tuple.Pollutant]*store.Store)
	for _, pol := range []tuple.Pollutant{tuple.CO2, tuple.PM} {
		st, err := store.Open(store.Config{
			WindowLength: 600,
			Dir:          filepath.Join(root, pol.String()),
		})
		if err != nil {
			t.Fatal(err)
		}
		out[pol] = st
	}
	return out
}

func ingestBoth(t *testing.T, e *Engine) {
	t.Helper()
	ctx := context.Background()
	var b tuple.Batch
	for i := 0; i < 120; i++ {
		b = append(b, tuple.Raw{T: float64(i * 10), X: float64(i % 40), Y: float64(i % 30), S: 420})
	}
	for _, pol := range []tuple.Pollutant{tuple.CO2, tuple.PM} {
		if err := e.Ingest(ctx, pol, b); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEngineCheckpointRestartAndStats(t *testing.T) {
	root := t.TempDir()
	stores := durableStores(t, root)
	e, err := NewMultiEngineOpts(stores, core.Config{Cluster: kmeans.Config{Seed: 9}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ingestBoth(t, e)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cs := e.CheckpointStats()
	if cs.Checkpoints != 2 || cs.Failures != 0 {
		t.Fatalf("CheckpointStats = %+v, want 2 checkpoints across shards", cs)
	}
	if cs.LastTuples != 240 {
		t.Errorf("LastTuples = %d, want 240 summed", cs.LastTuples)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for _, st := range stores {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Restart: both shards must recover from their checkpoints, replay
	// nothing, and warm-prime their covers in the background.
	stores2 := durableStores(t, root)
	e2, err := NewMultiEngineOpts(stores2, core.Config{Cluster: kmeans.Config{Seed: 9}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		e2.Close()
		for _, st := range stores2 {
			st.Close()
		}
	}()
	cs = e2.CheckpointStats()
	if cs.RecoveredShards != 2 {
		t.Fatalf("RecoveredShards = %d, want 2", cs.RecoveredShards)
	}
	// Each shard's suffix is just the empty segment the checkpoint
	// rotated in: no tuples re-read.
	if cs.SegmentsReplayed > 2 || cs.TuplesReplayed != 0 {
		t.Errorf("restart replayed %d segments / %d tuples, want ≤2 empty suffixes / 0", cs.SegmentsReplayed, cs.TuplesReplayed)
	}
	if cs.TuplesFromCheckpoint != 240 {
		t.Errorf("TuplesFromCheckpoint = %d, want 240", cs.TuplesFromCheckpoint)
	}
	e2.WarmPrime()
	e2.Scheduler().Wait()
	for _, pol := range []tuple.Pollutant{tuple.CO2, tuple.PM} {
		mnt, err := e2.MaintainerFor(pol)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(mnt.CachedWindows()); got == 0 {
			t.Errorf("%v: no covers prebuilt after WarmPrime", pol)
		}
	}

	// The stats endpoint must expose the checkpoint section.
	srv := httptest.NewServer(NewAPI(e2))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Checkpoint struct {
			Checkpoints          int64 `json:"checkpoints"`
			RecoveredShards      int   `json:"recoveredShards"`
			TuplesFromCheckpoint int   `json:"tuplesFromCheckpoint"`
		} `json:"checkpoint"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Checkpoint.RecoveredShards != 2 || body.Checkpoint.TuplesFromCheckpoint != 240 {
		t.Errorf("/v1/stats checkpoint section = %+v", body.Checkpoint)
	}
}

func TestEnginePeriodicCheckpoint(t *testing.T) {
	root := t.TempDir()
	stores := durableStores(t, root)
	e, err := NewMultiEngineOpts(stores, core.Config{Cluster: kmeans.Config{Seed: 9}}, Options{
		Checkpoint: CheckpointConfig{Interval: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	ingestBoth(t, e)
	deadline := time.Now().Add(10 * time.Second)
	for e.CheckpointStats().Checkpoints < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("periodic checkpoint never fired: %+v", e.CheckpointStats())
		}
		time.Sleep(time.Millisecond)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	after := e.CheckpointStats().Checkpoints
	// The ticker must stop with the engine.
	time.Sleep(20 * time.Millisecond)
	if got := e.CheckpointStats().Checkpoints; got != after {
		t.Errorf("checkpoints kept running after Close: %d -> %d", after, got)
	}
	for _, st := range stores {
		st.Close()
	}
}

// TestLateCheckpointSavesItsWrites holds a periodic pass after it took
// its snapshot (a store checkpoint hook blocks it), acknowledges a write,
// and makes two manual Checkpoint calls. Neither may return while the
// held pass runs — it cannot hold the write — and both return after the
// one pass that follows it, whose file holds the write.
func TestLateCheckpointSavesItsWrites(t *testing.T) {
	st, err := store.Open(store.Config{WindowLength: 600, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	e, err := NewMultiEngineOpts(map[tuple.Pollutant]*store.Store{tuple.CO2: st}, core.Config{}, Options{
		Scheduler:  core.SchedulerConfig{Workers: -1},
		Checkpoint: CheckpointConfig{Interval: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	early := tuple.Batch{{T: 10, X: 1, Y: 2, S: 400}, {T: 20, X: 3, Y: 4, S: 410}}
	if err := e.Ingest(ctx, tuple.CO2, early); err != nil {
		t.Fatal(err)
	}
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	st.OnCheckpoint(func(c, n int, sealed bool) (colblock.Seed, bool) {
		once.Do(func() {
			close(held)
			<-release
		})
		return colblock.Seed{}, false
	})
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("no periodic checkpoint started")
	}
	late := tuple.Batch{{T: 30, X: 5, Y: 6, S: 420}}
	if err := e.Ingest(ctx, tuple.CO2, late); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	for range 2 {
		go func() { errs <- e.Checkpoint() }()
	}
	select {
	case err := <-errs:
		t.Fatalf("a Checkpoint called after the running pass's snapshot returned (%v) while that pass was held", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		if got := st.CheckpointStats().LastTuples; got != int64(len(early)+len(late)) {
			t.Fatalf("a Checkpoint returned with the last file holding %d tuples, want %d: the acknowledged write is not in it",
				got, len(early)+len(late))
		}
	}
}
