package core

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/store"
	"repro/internal/tuple"
)

// readAll reads each window's cover, so a reader holds it.
func readAll(t *testing.T, m *Maintainer, cs ...int) map[int]*Cover {
	t.Helper()
	out := make(map[int]*Cover, len(cs))
	for _, c := range cs {
		cv, err := m.CoverFor(c)
		if err != nil {
			t.Fatal(err)
		}
		out[c] = cv
	}
	return out
}

// TestSchedulerBuildsInvalidatedWindows checks the basic loop: a write
// into a window a reader holds queues a background build, and the rebuilt
// cover lands in the cache without any query. The windows are lone, so
// each write moves one window.
func TestSchedulerBuildsInvalidatedWindows(t *testing.T) {
	st := fillLoneStore(t, 100, 3, 50)
	m := NewMaintainer(st, Config{Cluster: clusterSeed(1)})
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Close()
	defer s.Watch(m)()
	ws := []int{loneWindow(0), loneWindow(1), loneWindow(2)}
	old := readAll(t, m, ws...)

	rng := rand.New(rand.NewSource(1))
	for _, c := range ws {
		appendLate(t, m, c, 5, rng)
	}
	s.Wait()
	got := m.CachedWindows()
	sort.Ints(got)
	if len(got) != 3 {
		t.Fatalf("CachedWindows = %v, want windows %v rebuilt", got, ws)
	}
	stats := s.Stats()
	if stats.Built != 3 || stats.Scheduled != 3 {
		t.Fatalf("Stats = %+v, want 3 scheduled and built", stats)
	}
	for _, c := range ws {
		m.mu.Lock()
		e := m.covers[c]
		m.mu.Unlock()
		if e.cv == old[c] || e.gen != m.Generation(c) {
			t.Fatalf("window %d: cached cover %p at generation %d, want a rebuild at %d", c, e.cv, e.gen, m.Generation(c))
		}
		if got, want := coverDigest(e.cv), scratchDigest(t, m, c); got != want {
			t.Fatalf("window %d rebuilt as %s, from scratch %s", c, got, want)
		}
	}
}

// TestSchedulerPrefersRecentWindows gates the maintainer's build path
// and checks queued windows are built newest-first. The windows are lone:
// a chained window would build its predecessors first.
func TestSchedulerPrefersRecentWindows(t *testing.T) {
	st := fillLoneStore(t, 100, 5, 40)
	m := NewMaintainer(st, Config{Cluster: clusterSeed(2)})
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Close()
	defer s.Watch(m)()
	readAll(t, m, loneWindow(0), loneWindow(1), loneWindow(2), loneWindow(3), loneWindow(4))

	gate := gateBuilds(t, m)
	m.Invalidate(loneWindow(0)) // worker picks this up and blocks in the build
	order := []int{gate.next()}
	// Now queue the rest while the worker is busy; priority decides.
	// Admission is synchronous: the queue is full once the calls return.
	for _, i := range []int{1, 3, 2, 4} {
		m.Invalidate(loneWindow(i))
	}
	if got := s.Stats().QueueLen; got != 4 {
		t.Fatalf("QueueLen = %d, want 4", got)
	}
	for range 4 {
		gate.release <- struct{}{}
		order = append(order, gate.next())
	}
	gate.release <- struct{}{}
	s.Wait()

	var want []int
	for _, i := range []int{0, 4, 3, 2, 1} {
		want = append(want, loneWindow(i))
	}
	if len(order) != len(want) {
		t.Fatalf("build order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("build order = %v, want %v (newest first)", order, want)
		}
	}
}

// TestSchedulerDedupsPendingWindows re-invalidates a queued window and
// checks it is admitted once. The windows are lone, so invalidating the
// first does not queue the second.
func TestSchedulerDedupsPendingWindows(t *testing.T) {
	st := fillLoneStore(t, 100, 2, 40)
	m := NewMaintainer(st, Config{Cluster: clusterSeed(3)})
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Close()
	defer s.Watch(m)()
	readAll(t, m, loneWindow(0), loneWindow(1))

	gate := gateBuilds(t, m)
	m.Invalidate(loneWindow(0))
	gate.next() // worker busy on the first window
	for i := 0; i < 5; i++ {
		m.Invalidate(loneWindow(1))
	}
	// Admission is synchronous: the window is queued once the calls return.
	if got := s.Stats().QueueLen; got != 1 {
		t.Fatalf("QueueLen = %d, want the second window queued once", got)
	}
	if got := s.Stats().Scheduled; got != 2 {
		t.Fatalf("Scheduled = %d, want 2 (duplicates absorbed)", got)
	}
	gate.open()
	s.Wait()
}

// TestSchedulerSkipsEvictedWindows checks a build whose window vanished
// (retention) is skipped, not failed.
func TestSchedulerSkipsEvictedWindows(t *testing.T) {
	st := fillStore(t, 100, 3, 40)
	m := NewMaintainer(st, Config{Cluster: clusterSeed(4)})
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Close()

	// Window 9 holds no data: scheduling it directly models the race
	// where eviction lands between Invalidate and the worker.
	s.Schedule(m, 9)
	s.Wait()
	stats := s.Stats()
	if stats.Skipped != 1 || stats.Failed != 0 || stats.Built != 0 {
		t.Fatalf("Stats = %+v, want exactly one skip", stats)
	}
}

// TestSchedulerOverflowDropsOldest fills a lowered build queue and checks a newer
// window displaces the oldest pending build, while an older one is
// refused. The windows are lone: a chained window would build its
// predecessors, dropped or not.
func TestSchedulerOverflowDropsOldest(t *testing.T) {
	st := fillLoneStore(t, 100, 8, 30)
	m := NewMaintainer(st, Config{Cluster: clusterSeed(5)})
	s := NewScheduler(SchedulerConfig{Workers: 1})
	s.maxQueue = 2
	defer s.Close()

	gate := gateBuilds(t, m)
	s.Schedule(m, loneWindow(5)) // occupies the worker
	gate.next()
	s.Schedule(m, loneWindow(2))
	s.Schedule(m, loneWindow(3)) // queue now [2 3], full
	s.Schedule(m, loneWindow(1)) // older than everything pending: refused
	s.Schedule(m, loneWindow(4)) // newer: displaces 2
	st5 := s.Stats()
	if st5.Dropped != 2 {
		t.Fatalf("Dropped = %d, want 2 (one refusal + one displacement)", st5.Dropped)
	}
	if st5.QueueLen != 2 {
		t.Fatalf("QueueLen = %d, want 2", st5.QueueLen)
	}
	gate.open()
	s.Wait()
	got := m.CachedWindows()
	sort.Ints(got)
	for _, c := range got {
		if c == loneWindow(1) || c == loneWindow(2) {
			t.Fatalf("dropped window %d was built anyway (cached %v)", c, got)
		}
	}
}

// TestSchedulerNilIsInert checks the disabled configuration: a nil
// scheduler absorbs every call.
func TestSchedulerNilIsInert(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: -1})
	if s != nil {
		t.Fatal("Workers < 0 should disable the scheduler")
	}
	st := store.MustOpenMemory(100)
	m := NewMaintainer(st, Config{Cluster: clusterSeed(6)})
	unwatch := s.Watch(m)
	s.Schedule(m, 1)
	s.Wait()
	if got := s.Stats(); got != (SchedulerStats{}) {
		t.Fatalf("nil scheduler stats = %+v", got)
	}
	unwatch()
	s.Close()
	if err := st.Append(tuple.Batch{{T: 10, X: 1, Y: 1, S: 400}}); err != nil {
		t.Fatal(err)
	}
	m.Invalidate(0) // hook fan-out with a nil scheduler must not panic
}

// TestSchedulerStaleRebuildConverges interleaves an invalidation into a
// background build: the overtaken result is installed only until its
// follow-up lands, and the scheduler converges to a cover of the latest
// data.
func TestSchedulerStaleRebuildConverges(t *testing.T) {
	st := fillStore(t, 100, 1, 40)
	m := NewMaintainer(st, Config{Cluster: clusterSeed(7)})
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Close()
	defer s.Watch(m)()
	readAll(t, m, 0)

	gate := gateBuilds(t, m)
	m.Invalidate(0)
	gate.next() // background build of window 0 in flight
	// New data lands mid-build: the engine would append + invalidate.
	if err := st.Append(tuple.Batch{{T: 50, X: 1, Y: 1, S: 999}}); err != nil {
		t.Fatal(err)
	}
	m.Invalidate(0) // overtakes the in-flight build
	gate.open()     // finish the overtaken build, and let its follow-up run ungated
	s.Wait()

	// The converged cover must exist and include the late tuple's window
	// data (41 tuples built, not 40): after Wait the cached cover is the
	// follow-up's, and CoverFor returns it without rebuilding.
	cv, err := m.CoverFor(0)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, rn := range cv.N {
		n += int(rn)
	}
	if n != 41 {
		t.Fatalf("converged cover built from %d tuples, want 41 (follow-up lost?)", n)
	}
}
