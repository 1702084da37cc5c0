package core

import (
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/store"
)

// TestWarmMaintainerBuildAllocatesTheCoverAndItsBookkeeping: a rebuild
// reads the window into the pooled Builder's buffer, so beyond the
// cover's own four objects it allocates only the build's registration —
// no copy of the window, whatever its size.
func TestWarmMaintainerBuildAllocatesTheCoverAndItsBookkeeping(t *testing.T) {
	// A collection would empty the Builder pool mid-measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	st := fillStore(t, 3600, 1, 1500)
	m := NewMaintainer(st, Config{Cluster: clusterSeed(1)})
	defer m.Close()
	rebuild := func() {
		m.Invalidate(0)
		if _, err := m.CoverFor(0); err != nil {
			t.Fatal(err)
		}
	}
	// The cover's 4 and the buildState, which embeds its completion
	// signal; a clone of the window would be a sixth and 48 KB. The best of several rebuilds is
	// the warm one: under the race detector the pool drops a Builder now
	// and then on purpose.
	best := testing.AllocsPerRun(1, rebuild)
	for i := 0; i < 7; i++ {
		best = min(best, testing.AllocsPerRun(1, rebuild))
	}
	if best > 5 {
		t.Errorf("warm rebuild of a 1 500-tuple window = %.0f allocs, want ≤ 5", best)
	}
}

// TestScheduledRebuildAllocatesTheCoverAndItsBookkeeping: a rebuild the
// scheduler queues and runs allocates what a reader's does — the cover's
// four objects and the buildState — and nothing for the queue itself: no
// key boxed on the way in or out, no completion channel (those were three
// more).
func TestScheduledRebuildAllocatesTheCoverAndItsBookkeeping(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	st := fillStore(t, 3600, 1, 1500)
	m := NewMaintainer(st, Config{Cluster: clusterSeed(1)})
	defer m.Close()
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Close()
	defer s.Watch(m)()
	if _, err := m.CoverFor(0); err != nil { // a reader holds the window
		t.Fatal(err)
	}
	rebuild := func() {
		m.Invalidate(0)
		s.Wait()
	}
	best := testing.AllocsPerRun(1, rebuild)
	for i := 0; i < 7; i++ {
		best = min(best, testing.AllocsPerRun(1, rebuild))
	}
	if best > 5 {
		t.Errorf("scheduled warm rebuild of a 1 500-tuple window = %.0f allocs, want ≤ 5", best)
	}
	if got := s.Stats().Built; got < 8 {
		t.Fatalf("the scheduler built %d covers, want one per rebuild", got)
	}
}

// TestBuildsWhileAppendsAndEvictions: covers are built out of borrowed
// window buffers while the fleet appends to the live window and the
// retention bound evicts old ones (run under -race); once the writer
// stops, every retained window's cover is the one a from-scratch build
// over a private copy of the window gives.
func TestBuildsWhileAppendsAndEvictions(t *testing.T) {
	st, err := store.Open(store.Config{WindowLength: 100, Retain: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMaintainer(st, Config{Cluster: clusterSeed(3)})
	defer m.Close()
	const windows = 10
	var live atomic.Int64
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		rng := rand.New(rand.NewSource(4))
		for c := 0; c < windows; c++ {
			live.Store(int64(c))
			for batch := 0; batch < 6; batch++ {
				appendLate(t, m, c, 80, rng)
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !done.Load(); i++ {
				c := int(live.Load()) - (g+i)%3 // the live window and the two behind it
				cv, err := m.CoverFor(c)
				if err != nil {
					continue // not written yet, or evicted under us
				}
				if cv.WindowIndex != c || cv.Size() == 0 {
					t.Errorf("CoverFor(%d) returned a cover of window %d with %d regions", c, cv.WindowIndex, cv.Size())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, c := range st.WindowIndexes() {
		m.Invalidate(c)
		cv, err := m.CoverFor(c)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := coverDigest(cv), scratchDigest(t, m, c); got != want {
			t.Errorf("window %d: cover built through the borrowed buffer has digest %s, from scratch %s", c, got, want)
		}
	}
}
