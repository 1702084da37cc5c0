package server

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/kmeans"
	"repro/internal/tuple"
)

// TestMirrorEngineIsLazy: a mirror engine has no background builders —
// applying a replica frame builds nothing, the first read of a window
// builds its cover, and the next frame drops it again so the read after
// it sees the frame (read-your-writes).
func TestMirrorEngineIsLazy(t *testing.T) {
	e, err := NewMirrorEngine([]tuple.Pollutant{tuple.CO2, tuple.PM}, 100, 4,
		core.Config{Cluster: kmeans.Config{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Scheduler() != nil {
		t.Fatal("mirror engine runs background builders")
	}
	for _, pol := range []tuple.Pollutant{tuple.CO2, tuple.PM} {
		st, err := e.StoreFor(pol)
		if err != nil {
			t.Fatal(err)
		}
		if st.WindowLength() != 100 || st.Retain() != 4 {
			t.Fatalf("%v store: window %v retain %d, want 100 and 4", pol, st.WindowLength(), st.Retain())
		}
	}
	ctx := context.Background()
	if err := e.Ingest(ctx, tuple.CO2, seedBatch(tuple.CO2, 0, 100, 200, 1)); err != nil {
		t.Fatal(err)
	}
	mnt := defaultMaintainer(t, e)
	if got := mnt.CachedWindows(); len(got) != 0 {
		t.Fatalf("applying a frame built covers %v", got)
	}
	first, err := e.CoverAt(ctx, tuple.CO2, 50)
	if err != nil {
		t.Fatal(err)
	}
	if got := mnt.CachedWindows(); len(got) != 1 {
		t.Fatalf("cached after the first read = %v, want window 0", got)
	}
	if err := e.Ingest(ctx, tuple.CO2, seedBatch(tuple.CO2, 0, 100, 200, 2)); err != nil {
		t.Fatal(err)
	}
	if got := mnt.CachedWindows(); len(got) != 0 {
		t.Fatalf("a frame left covers %v cached on a mirror", got)
	}
	second, err := e.CoverAt(ctx, tuple.CO2, 50)
	if err != nil {
		t.Fatal(err)
	}
	if n := modeledTuples(second); second == first || n != 400 {
		t.Fatalf("read after the second frame models %d tuples (same cover: %v), want 400", n, second == first)
	}
}
