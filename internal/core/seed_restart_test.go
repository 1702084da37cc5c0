package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/colblock"
	"repro/internal/store"
	"repro/internal/tuple"
)

// seedWindows are the windows the seeded-restart tests checkpoint: the
// first six hours of the benchmark fleet's day.
func seedWindows() []tuple.Batch { return lausanneWindows()[:6] }

func durableConfig(dir string) store.Config {
	return store.Config{WindowLength: 3600, Dir: dir, Sync: store.SyncNever()}
}

// checkpointedDir writes seedWindows into a durable store under a
// maintainer with cfg and checkpoints it. With modeled set every window's
// cover is built before the checkpoint, which then takes every seed from
// the cache; otherwise the checkpoint builds (and installs) the covers of
// the windows behind the newest one itself, and the newest has no seed.
func checkpointedDir(t *testing.T, cfg Config, modeled bool) string {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	m := NewMaintainer(st, cfg)
	for _, w := range seedWindows() {
		if err := st.Append(w); err != nil {
			t.Fatal(err)
		}
	}
	if modeled {
		for c := range seedWindows() {
			if _, err := m.CoverFor(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if want := map[bool]int{true: len(seedWindows()), false: len(seedWindows()) - 1}[modeled]; len(m.CachedWindows()) != want {
		t.Fatalf("modeled %v: %v cached after the checkpoint, want %d covers", modeled, m.CachedWindows(), want)
	}
	m.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// restarted is a store reopened on a checkpointed directory, with a
// maintainer under a one-worker scheduler.
type restarted struct {
	st    *store.Store
	m     *Maintainer
	sched *Scheduler
}

func restart(t *testing.T, dir string, cfg Config) *restarted {
	t.Helper()
	st, err := store.Open(durableConfig(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	r := &restarted{st: st, m: NewMaintainer(st, cfg), sched: NewScheduler(SchedulerConfig{Workers: 1})}
	r.sched.Watch(r.m)
	t.Cleanup(func() {
		r.sched.Close()
		r.m.Close()
		r.st.Close()
	})
	return r
}

// prime warm-primes every window and waits for the builds.
func (r *restarted) prime() SchedulerStats {
	r.sched.WarmPrime(r.m)
	r.sched.Wait()
	return r.sched.Stats()
}

// requireBuiltCovers fails unless every window's cached cover is its
// chain cover over the windows as the store now holds them, built from
// scratch (referenceChain).
func (r *restarted) requireBuiltCovers(t *testing.T, label string, cfg Config) {
	t.Helper()
	idxs := r.st.WindowIndexes()
	ref := referenceChain(t, r.st.Window, idxs, 3600, cfg)
	for _, c := range idxs {
		got, err := r.m.CoverFor(c)
		if err != nil {
			t.Fatal(err)
		}
		if want := ref[c].cv; coverDigest(got) != coverDigest(want) {
			t.Errorf("%s: window %d cover %s, a build gives %s", label, c, coverDigest(got), coverDigest(want))
		}
	}
}

// TestSeededRestartRunsNoAdKMN: every window of a checkpoint taken with
// every cover built restarts into a refit — no Ad-KMN build at all — and
// each refitted cover is the cover a build gives. Without covers at the
// checkpoint, the checkpoint builds the covers behind the newest window
// itself, and a restart runs Ad-KMN for the newest window alone.
func TestSeededRestartRunsNoAdKMN(t *testing.T) {
	n := int64(len(seedWindows()))
	for _, tc := range []struct {
		modeled  bool
		refitted int64
	}{{true, n}, {false, n - 1}} {
		r := restart(t, checkpointedDir(t, lausanneConfig, tc.modeled), lausanneConfig)
		st := r.prime()
		if st.Built != n || st.Refitted != tc.refitted || st.Failed != 0 {
			t.Errorf("modeled %v: %+v; want %d built, %d of them refitted", tc.modeled, st, n, tc.refitted)
		}
		r.requireBuiltCovers(t, fmt.Sprintf("modeled %v", tc.modeled), lausanneConfig)
		if cs := r.st.ColumnarStats(); cs.SeedFailures != 0 {
			t.Errorf("modeled %v: %d seed failures", tc.modeled, cs.SeedFailures)
		}
	}
}

// TestLateWriteBuildsInFull: a window written after the restart's
// checkpoint is its base plus a suffix; its seed is of the base alone, so
// it is built by Ad-KMN. The windows before it are still refitted, and so
// is exactly each later one whose chain input — the start its build
// prunes from its predecessor's cover — the write left as it was.
func TestLateWriteBuildsInFull(t *testing.T) {
	r := restart(t, checkpointedDir(t, lausanneConfig, true), lausanneConfig)
	late := seedWindows()[3][7]
	late.S += 3
	if err := r.st.Append(tuple.Batch{late}); err != nil {
		t.Fatal(err)
	}
	n := int64(len(seedWindows()))
	before := referenceChain(t, checkpointedWindow, indexes(len(seedWindows())), 3600, lausanneConfig)
	after := referenceChain(t, r.st.Window, r.st.WindowIndexes(), 3600, lausanneConfig)
	var unchanged []int
	for c := range seedWindows() {
		if before[c].word == after[c].word && before[c].cv.tuples() == after[c].cv.tuples() {
			unchanged = append(unchanged, c)
		}
	}
	if len(unchanged) < 3 || unchanged[2] != 2 || slices.Contains(unchanged, 3) {
		t.Fatalf("windows %v keep their chain inputs: want 0, 1 and 2 and never the written window 3", unchanged)
	}
	if st := r.prime(); st.Built != n || st.Refitted != int64(len(unchanged)) {
		t.Errorf("%+v: want %d built, refitted exactly windows %v", st, n, unchanged)
	}
	r.requireBuiltCovers(t, "late write", lausanneConfig)
}

// checkpointedWindow returns window c of seedWindows as a store returns
// it: sorted by time.
func checkpointedWindow(c int) tuple.Batch {
	if c < 0 || c >= len(seedWindows()) {
		return nil
	}
	w := seedWindows()[c].Clone()
	w.SortByTime()
	return w
}

// indexes returns 0, 1, …, n−1.
func indexes(n int) []int {
	idxs := make([]int, n)
	for i := range idxs {
		idxs[i] = i
	}
	return idxs
}

// TestChangedConfigBuildsInFull: seeds written under one ErrThreshold are
// not refitted under another: every window is built by Ad-KMN. The next
// checkpoint carries every window over, but with the new covers' seeds
// in place of the old ones, so the restart after it refits every window.
func TestChangedConfigBuildsInFull(t *testing.T) {
	changed := lausanneConfig
	changed.ErrThreshold = 0.03
	dir := checkpointedDir(t, lausanneConfig, true)
	r := restart(t, dir, changed)
	n := int64(len(seedWindows()))
	if st := r.prime(); st.Built != n || st.Refitted != 0 {
		t.Errorf("%+v: want every window built, none refitted", st)
	}
	r.requireBuiltCovers(t, "changed ErrThreshold", changed)
	if err := r.st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r.sched.Close()
	r.m.Close()
	if err := r.st.Close(); err != nil {
		t.Fatal(err)
	}
	r = restart(t, dir, changed)
	if st := r.prime(); st.Built != n || st.Refitted != n {
		t.Errorf("after a checkpoint under the new config: %+v; want every window refitted", st)
	}
	r.requireBuiltCovers(t, "checkpointed under the changed ErrThreshold", changed)
}

// TestBadSeedBuildsInFull: a seed record that fails its checksum costs its
// window the refit — the window is built by Ad-KMN and the failure counted
// — and nothing else: the store opens from the checkpoint and the other
// windows are refitted. A checkpoint taken with no maintainer has no seeds:
// every window is built, and nothing is counted.
func TestBadSeedBuildsInFull(t *testing.T) {
	dir := checkpointedDir(t, lausanneConfig, true)
	cv := referenceChain(t, checkpointedWindow, indexes(3), 3600, lausanneConfig)[2].cv
	var pattern [16]byte
	binary.LittleEndian.PutUint64(pattern[0:], math.Float64bits(cv.Centroids[0].X))
	binary.LittleEndian.PutUint64(pattern[8:], math.Float64bits(cv.Centroids[0].Y))
	name := filepath.Join(dir, "checkpoint-000000.emc")
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, pattern[:])
	if at < 0 || bytes.Count(data, pattern[:]) != 1 {
		t.Fatalf("window 2's first centroid is at %d in the checkpoint, not once", at)
	}
	data[at+3] ^= 0x20
	if err := os.WriteFile(name, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r := restart(t, dir, lausanneConfig)
	if rs := r.st.RecoveryStats(); !rs.FromCheckpoint || rs.CorruptCheckpoints != 0 {
		t.Fatalf("recovery %+v: a bad seed must not cost the checkpoint", rs)
	}
	n := int64(len(seedWindows()))
	if st := r.prime(); st.Built != n || st.Refitted != n-1 {
		t.Errorf("%+v: want %d built, all but window 2 refitted", st, n)
	}
	if cs := r.st.ColumnarStats(); cs.SeedFailures != 1 {
		t.Errorf("%d seed failures, want 1", cs.SeedFailures)
	}
	r.requireBuiltCovers(t, "bad seed", lausanneConfig)

	// No seeder at the checkpoint: no seed records at all.
	bare := t.TempDir()
	st, err := store.Open(durableConfig(bare))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range seedWindows() {
		if err := st.Append(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	r = restart(t, bare, lausanneConfig)
	if st := r.prime(); st.Built != n || st.Refitted != 0 {
		t.Errorf("no seeds: %+v; want every window built, none refitted", st)
	}
	if cs := r.st.ColumnarStats(); cs.SeedFailures != 0 {
		t.Errorf("no seeds: %d seed failures, want 0", cs.SeedFailures)
	}
	r.requireBuiltCovers(t, "no seeds", lausanneConfig)
}

// TestAppendRacingRefit: appends land in windows 2–5 while a restart
// primes every window. A refit only ever sees a window that is exactly its
// checkpointed base — the tuples the seed was built over — never base +
// suffix; windows 0 and 1, never written, are always refitted; and once
// everything settles every cover is the one a build gives. Run it under
// -race.
func TestAppendRacingRefit(t *testing.T) {
	dir := checkpointedDir(t, lausanneConfig, true)
	bases := seedWindows()
	r := restart(t, dir, lausanneConfig)
	var refits, bad atomic.Int64
	r.m.testRefitHook = func(c int, w tuple.Batch, sd colblock.Seed) {
		refits.Add(1)
		base := checkpointedWindow(c)
		if len(w) != sd.Count || len(w) != len(base) || !batchesBitEqual(w, base) {
			bad.Add(1)
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			c := 2 + i%(len(bases)-2)
			tp := bases[c][(i*37)%len(bases[c])]
			tp.S += float64(i)
			if err := r.st.Append(tuple.Batch{tp}); err != nil {
				t.Error(err)
				return
			}
			r.m.Invalidate(c)
		}
	}()
	r.sched.WarmPrime(r.m)
	wg.Wait()
	r.sched.Wait()
	if bad.Load() != 0 || refits.Load() < 2 {
		t.Errorf("%d of %d refits were of a window that is not its checkpointed base; want none of at least 2", bad.Load(), refits.Load())
	}
	r.requireBuiltCovers(t, "after the race", lausanneConfig)
}

func batchesBitEqual(a, b tuple.Batch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		p, q := a[i], b[i]
		if math.Float64bits(p.T) != math.Float64bits(q.T) || math.Float64bits(p.X) != math.Float64bits(q.X) ||
			math.Float64bits(p.Y) != math.Float64bits(q.Y) || math.Float64bits(p.S) != math.Float64bits(q.S) {
			return false
		}
	}
	return true
}
