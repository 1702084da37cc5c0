package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/tuple"
)

// scratchDigest is the oracle of the lifecycle tests: the digest of
// window c's chain cover built from scratch over the windows' current
// contents, by fresh Builders from c's anchor up (cold after an empty
// window).
func scratchDigest(t testing.TB, m *Maintainer, c int) string {
	t.Helper()
	var prev *Cover
	for i := c - chainOffset(c); i <= c; i++ {
		w := m.st.Window(i)
		if len(w) == 0 && i < c {
			prev = nil
			continue
		}
		cv, err := new(Builder).BuildFrom(w, i, m.st.WindowLength(), m.cfg, prev)
		if err != nil {
			t.Fatalf("from-scratch cover of window %d: %v", i, err)
		}
		prev = cv
	}
	return coverDigest(prev)
}

// appendLate adds n tuples with an off-field value to window c and
// invalidates it, the way the engine's ingest sink does.
func appendLate(t testing.TB, m *Maintainer, c, n int, rng *rand.Rand) {
	t.Helper()
	h := m.st.WindowLength()
	b := make(tuple.Batch, n)
	for i := range b {
		b[i] = tuple.Raw{
			T: (float64(c) + rng.Float64()) * h,
			X: rng.Float64() * 2000, Y: rng.Float64() * 2000,
			S: 900 + rng.Float64()*200,
		}
	}
	if err := m.st.Append(b); err != nil {
		t.Fatal(err)
	}
	m.Invalidate(c)
}

// gateDeadline bounds every wait on the build gate: a test waiting on a
// build that never runs fails within it instead of hanging, and a build
// nobody releases goes on after it.
const gateDeadline = 10 * time.Second

// buildGate blocks builds in the maintainer's test hook until released,
// reporting each build that reaches it.
type buildGate struct {
	t       testing.TB
	entered chan int
	release chan struct{}
	opened  chan struct{}
}

func gateBuilds(t testing.TB, m *Maintainer) *buildGate {
	g := &buildGate{
		t:       t,
		entered: make(chan int, 64),
		release: make(chan struct{}, 64),
		opened:  make(chan struct{}),
	}
	m.testBuildHook = func(c int) {
		deadline := time.NewTimer(gateDeadline)
		defer deadline.Stop()
		g.entered <- c
		select {
		case <-g.release:
		case <-g.opened:
		case <-deadline.C:
		}
	}
	return g
}

// next returns the window of the next build to reach the gate, failing
// the test if none does within gateDeadline.
func (g *buildGate) next() int {
	g.t.Helper()
	return receive(g.t, g.entered, "a build to reach the gate")
}

// open lets every build still held at the gate, and every later one,
// through.
func (g *buildGate) open() { close(g.opened) }

// settled returns a channel that receives once per build request a
// worker of s has finished with — built, coalesced or skipped — after
// the worker stopped counting it in flight. Call it before the requests
// are queued.
func settled(s *Scheduler) <-chan struct{} {
	ch := make(chan struct{}, 64)
	s.testSettled = func() { ch <- struct{}{} }
	return ch
}

// receive waits for one signal on ch, failing the test after gateDeadline.
func receive[T any](t testing.TB, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(gateDeadline):
		t.Fatalf("timed out waiting for %s", what)
		var zero T
		return zero
	}
}

// unheldQueued reports a window of m with a build queued on s that no
// reader holds — no cover cached, no build in flight whose result will
// be kept — unless excused says a direct request (WarmPrime's path) may
// have queued it.
func unheldQueued(m *Maintainer, s *Scheduler, excused func(c int) bool) (int, bool) {
	var unheld []int
	m.mu.Lock()
	s.mu.Lock()
	for _, k := range s.queue {
		if k.m == m && !m.heldLocked(k.c) {
			unheld = append(unheld, k.c)
		}
	}
	s.mu.Unlock()
	m.mu.Unlock()
	for _, c := range unheld {
		if !excused(c) {
			return c, true
		}
	}
	return 0, false
}

// changeLog records the windows OnChange fired for.
type changeLog struct {
	mu sync.Mutex
	cs []int
}

func (l *changeLog) hook(c int) {
	l.mu.Lock()
	l.cs = append(l.cs, c)
	l.mu.Unlock()
}

func (l *changeLog) count(c int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, x := range l.cs {
		if x == c {
			n++
		}
	}
	return n
}

// TestStaleWhileRevalidate walks one window through dirty → revalidating
// → current under a watching scheduler: between the invalidation and the
// install the previous cover is what readers get, the served generation
// and the change hooks do not move, and the cached cover is not current
// (its generation trails the window's); the install switches all of them
// at once.
func TestStaleWhileRevalidate(t *testing.T) {
	st := fillStore(t, 100, 1, 60)
	m := NewMaintainer(st, Config{Cluster: clusterSeed(11)})
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Close()
	defer s.Watch(m)()
	var changes changeLog
	defer m.OnChange(changes.hook)()

	before, err := m.CoverFor(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := changes.count(0); got != 1 {
		t.Fatalf("cold build fired %d change hooks, want 1", got)
	}
	if g, sg := m.Generation(0), m.ServedGeneration(0); g != 0 || sg != 0 {
		t.Fatalf("generation %d served %d after the cold build, want both 0", g, sg)
	}

	gate := gateBuilds(t, m)
	appendLate(t, m, 0, 20, rand.New(rand.NewSource(1)))
	gate.next() // the rebuild is running, not installed

	if cv, err := m.CoverFor(0); err != nil || cv != before {
		t.Fatalf("read while revalidating = %p (err %v), want the previous cover %p", cv, err, before)
	}
	if g, sg := m.Generation(0), m.ServedGeneration(0); g != 1 || sg != 0 {
		t.Fatalf("generation %d served %d while revalidating, want 1 and 0", g, sg)
	}
	if got := changes.count(0); got != 1 {
		t.Fatalf("dirtying the window fired a change hook (%d total)", got)
	}
	if cached := m.CachedWindows(); len(cached) != 1 || cached[0] != 0 {
		t.Fatalf("CachedWindows while revalidating = %v, want the stale cover kept", cached)
	}

	gate.release <- struct{}{}
	s.Wait()
	after, err := m.CoverFor(0)
	if err != nil || after == before {
		t.Fatalf("read after install = %p (err %v), want a rebuilt cover", after, err)
	}
	if got, want := coverDigest(after), scratchDigest(t, m, 0); got != want {
		t.Fatalf("quiesced cover digest %s, from scratch %s", got, want)
	}
	if g, sg := m.Generation(0), m.ServedGeneration(0); g != 1 || sg != 1 {
		t.Fatalf("generation %d served %d after install, want both 1", g, sg)
	}
	if got := changes.count(0); got != 2 {
		t.Fatalf("install fired %d change hooks in total, want 2", got)
	}
}

// TestOvertakenBuildInstalledWithOneFollowUp: three writes land while a
// background build runs. The build is installed anyway (readers move on
// from the cover they had), exactly one follow-up build brings the window
// to the present, and nothing is built twice at once.
func TestOvertakenBuildInstalledWithOneFollowUp(t *testing.T) {
	st := fillStore(t, 100, 1, 60)
	m := NewMaintainer(st, Config{Cluster: clusterSeed(12)})
	s := NewScheduler(SchedulerConfig{Workers: 2})
	defer s.Close()
	defer s.Watch(m)()
	first, err := m.CoverFor(0)
	if err != nil {
		t.Fatal(err)
	}

	gate := gateBuilds(t, m)
	done := settled(s)
	rng := rand.New(rand.NewSource(2))
	appendLate(t, m, 0, 10, rng)
	gate.next()
	for i := 0; i < 3; i++ {
		appendLate(t, m, 0, 10, rng) // absorbed: the idle worker does not park or build
	}
	// Every request admitted beside the running build is one the second
	// worker takes and absorbs.
	for i := int64(1); i < s.Stats().Scheduled; i++ {
		receive(t, done, "the second worker to absorb a request")
	}
	if st := s.Stats(); st.QueueLen != 0 || st.Inflight != 1 {
		t.Fatalf("Stats = %+v, want the requests absorbed beside the one running build", st)
	}
	gate.release <- struct{}{}

	gate.next() // the one follow-up
	mid, err := m.CoverFor(0)
	if err != nil || mid == first {
		t.Fatalf("overtaken build was not installed: read %p (err %v), previous %p", mid, err, first)
	}
	if sg := m.ServedGeneration(0); sg != 1 {
		t.Fatalf("served generation after the overtaken install = %d, want 1", sg)
	}
	gate.release <- struct{}{}
	s.Wait()

	if st := s.Stats(); st.Built != 2 {
		t.Fatalf("Stats = %+v, want 2 builds for 4 writes", st)
	}
	last, err := m.CoverFor(0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := coverDigest(last), scratchDigest(t, m, 0); got != want {
		t.Fatalf("converged cover digest %s, from scratch %s", got, want)
	}
	if g, sg := m.Generation(0), m.ServedGeneration(0); g != 4 || sg != 4 {
		t.Fatalf("generation %d served %d after quiescing, want 4 and 4", g, sg)
	}
}

// TestRefusedRebuildHardDrops: a stale cover is kept only while its
// rebuild is pending. Queue overflow, displacement, Close and an
// invalidation after Close each hard-drop the cover they leave without a
// rebuild, and the next read builds from the window's present contents.
// The windows are lone (loneWindow(i) is window i below), so each
// invalidation dirties one cover.
func TestRefusedRebuildHardDrops(t *testing.T) {
	st := fillLoneStore(t, 100, 6, 40)
	m := NewMaintainer(st, Config{Cluster: clusterSeed(13)})
	s := NewScheduler(SchedulerConfig{Workers: 1})
	s.maxQueue = 1
	defer s.Watch(m)()
	old := make(map[int]*Cover)
	for i := 0; i < 6; i++ {
		cv, err := m.CoverFor(loneWindow(i))
		if err != nil {
			t.Fatal(err)
		}
		old[i] = cv
	}
	cached := func() map[int]bool {
		out := make(map[int]bool)
		for _, c := range m.CachedWindows() {
			out[(c-loneWindow(0))/chainSpan] = true
		}
		return out
	}

	gate := gateBuilds(t, m)
	rng := rand.New(rand.NewSource(3))
	appendLate(t, m, loneWindow(5), 5, rng) // occupies the worker
	gate.next()

	appendLate(t, m, loneWindow(2), 5, rng) // queued: stale cover kept
	if cv, _ := m.CoverFor(loneWindow(2)); cv != old[2] {
		t.Fatal("window 2 (rebuild queued) is not served from its previous cover")
	}
	appendLate(t, m, loneWindow(1), 5, rng) // queue full, older than what is pending: refused
	if cached()[1] {
		t.Fatal("window 1's rebuild was refused but its stale cover is still cached")
	}
	appendLate(t, m, loneWindow(3), 5, rng) // newer: displaces window 2's rebuild
	if got := cached(); got[2] || !got[3] {
		t.Fatalf("after displacement cached = %v, want window 2 dropped and 3 kept", got)
	}
	if cv, _ := m.CoverFor(loneWindow(3)); cv != old[3] {
		t.Fatal("window 3 (rebuild queued) is not served from its previous cover")
	}

	dropped := make(chan struct{}, 1)
	defer m.OnChange(func(c int) {
		if c == loneWindow(3) {
			select {
			case dropped <- struct{}{}:
			default:
			}
		}
	})()
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	receive(t, dropped, "Close to discard the queue")
	if cached()[3] {
		t.Fatal("Close discarded window 3's rebuild but its stale cover is still cached")
	}
	gate.release <- struct{}{}
	<-closed
	m.testBuildHook = nil

	appendLate(t, m, loneWindow(4), 5, rng) // the closed scheduler refuses everything
	if cached()[4] {
		t.Fatal("invalidation after Close left a stale cover cached")
	}
	for i := 0; i < 6; i++ {
		c := loneWindow(i)
		cv, err := m.CoverFor(c)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := coverDigest(cv), scratchDigest(t, m, c); got != want {
			t.Fatalf("window %d after Close: digest %s, from scratch %s", c, got, want)
		}
	}
}

// TestUnwatchHardDropsStaleCovers: detaching the scheduler leaves nobody
// to revalidate, so the stale covers go and later invalidations
// hard-drop. The windows are lone (w(i) below), so each invalidation
// dirties one cover.
func TestUnwatchHardDropsStaleCovers(t *testing.T) {
	st := fillLoneStore(t, 100, 3, 40)
	w := loneWindow
	m := NewMaintainer(st, Config{Cluster: clusterSeed(14)})
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Close()
	unwatch := s.Watch(m)
	for i := 0; i < 3; i++ {
		if _, err := m.CoverFor(w(i)); err != nil {
			t.Fatal(err)
		}
	}
	var changes changeLog
	defer m.OnChange(changes.hook)()

	gate := gateBuilds(t, m)
	rng := rand.New(rand.NewSource(4))
	appendLate(t, m, w(2), 5, rng)
	gate.next()
	appendLate(t, m, w(0), 5, rng) // queued behind the gated build
	unwatch()
	if got := m.CachedWindows(); len(got) != 1 || got[0] != w(1) {
		t.Fatalf("cached after unwatch = %v, want only the current window %d", got, w(1))
	}
	if changes.count(w(0)) != 1 || changes.count(w(2)) != 1 {
		t.Fatalf("unwatch change hooks = %v, want one each for windows %d and %d", changes.cs, w(0), w(2))
	}
	if st := s.Stats(); st.QueueLen != 0 {
		t.Fatalf("unwatch left %d builds queued", st.QueueLen)
	}
	gate.release <- struct{}{}
	s.Wait()
	m.testBuildHook = nil
	// The build that was running was overtaken by nothing, but it belongs
	// to a maintainer nobody watches now: whatever it did, no stale cover
	// may be cached, and an invalidation is a hard drop again.
	appendLate(t, m, w(1), 5, rng)
	for _, c := range m.CachedWindows() {
		if m.Generation(c) != m.ServedGeneration(c) {
			t.Fatalf("window %d is cached stale after unwatch", c)
		}
		if c == w(1) {
			t.Fatal("invalidation after unwatch kept the cover")
		}
	}
}

// TestInvalidateAllocatesNothing locks the per-batch cost of the
// invalidation path on a watched maintainer with both consumers attached
// (the scheduler and a change hook): no id slice, no sort, no hook copy —
// for a held window whose rebuild is queued, for a window nobody holds
// (the hooks run, nothing is queued), and without a scheduler. The
// windows are lone, so each invalidation moves one window.
func TestInvalidateAllocatesNothing(t *testing.T) {
	st := fillLoneStore(t, 100, 3, 40)
	held, queued, unheld := loneWindow(0), loneWindow(1), loneWindow(2)
	m := NewMaintainer(st, Config{Cluster: clusterSeed(16)})
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Close()
	defer s.Watch(m)()
	defer m.OnChange(func(int) {})()
	for _, c := range []int{held, queued} {
		if _, err := m.CoverFor(c); err != nil {
			t.Fatal(err)
		}
	}

	// Park the only worker so nothing else allocates meanwhile, and queue
	// the second held window once: further invalidations are absorbed by
	// the queue.
	gate := gateBuilds(t, m)
	m.Invalidate(held)
	gate.next()
	m.Invalidate(queued)
	scheduled := s.Stats().Scheduled
	for _, tc := range []struct {
		name string
		c    int
	}{
		{"a held window already queued", queued},
		{"a window nobody holds", unheld},
	} {
		if allocs := testing.AllocsPerRun(200, func() { m.Invalidate(tc.c) }); allocs != 0 {
			t.Errorf("Invalidate of %s = %v allocs, want 0", tc.name, allocs)
		}
	}
	if got := s.Stats().Scheduled; got != scheduled {
		t.Errorf("Scheduled went %d → %d: invalidating a window nobody holds queued a build", scheduled, got)
	}
	gate.open()
	s.Wait()

	// Without a scheduler the hard drop and the hook fan-out are free too.
	m2 := NewMaintainer(st, Config{Cluster: clusterSeed(16)})
	defer m2.OnChange(func(int) {})()
	m2.Invalidate(queued)
	if allocs := testing.AllocsPerRun(200, func() { m2.Invalidate(queued) }); allocs != 0 {
		t.Errorf("Invalidate without a scheduler = %v allocs, want 0", allocs)
	}
}

// TestUnheldWriteQueuesNothing: a write into a window nobody has read
// queues no build and runs the change hooks once, so a subscription over
// it re-evaluates; the window's first reader then builds it on the read
// path, and gets bit for bit the cover Builder.BuildFrom gives over the
// window from its predecessor's cover.
func TestUnheldWriteQueuesNothing(t *testing.T) {
	st := fillStore(t, 100, 2, 60)
	m := NewMaintainer(st, Config{Cluster: clusterSeed(17)})
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Close()
	defer s.Watch(m)()
	prev, err := m.CoverFor(0) // window 0 is held, window 1 is not
	if err != nil {
		t.Fatal(err)
	}
	var changes changeLog
	defer m.OnChange(changes.hook)()

	appendLate(t, m, 1, 20, rand.New(rand.NewSource(5)))
	if st := s.Stats(); st.Scheduled != 0 || st.QueueLen != 0 {
		t.Fatalf("Stats = %+v after a write into a window nobody holds, want nothing queued", st)
	}
	if got := changes.count(1); got != 1 {
		t.Fatalf("the write fired %d change hooks for window 1, want 1", got)
	}
	if got := changes.count(0); got != 0 {
		t.Fatalf("the write fired %d change hooks for window 0, which it did not touch", got)
	}

	got, err := m.CoverFor(1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := new(Builder).BuildFrom(st.Window(1), 1, st.WindowLength(), m.cfg, prev)
	if err != nil {
		t.Fatal(err)
	}
	if coverDigest(got) != coverDigest(want) {
		t.Fatalf("first read of window 1 = %s, BuildFrom from window 0's cover = %s", coverDigest(got), coverDigest(want))
	}
	if g, sg := m.Generation(1), m.ServedGeneration(1); g != 1 || sg != 1 {
		t.Fatalf("window 1 generation %d served %d after its first read, want both 1", g, sg)
	}
	s.Wait()
	if st := s.Stats(); st.Scheduled != 0 || st.Built != 0 {
		t.Fatalf("Stats = %+v, want the read path to have built window 1 and the scheduler nothing", st)
	}
}

// TestCoverLifecycleProperty drives seeded random interleavings of
// append+invalidate (into held windows and into windows nobody holds),
// reads, direct rebuild requests, eviction (rolling
// retention), queue overflow (a stalled builder against a small
// build queue) and Close against a real store, with two background workers
// and two concurrent readers, and checks the lifecycle invariants stated
// in Maintainer's doc comment. A failure names its seed.
func TestCoverLifecycleProperty(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { lifecycleRun(t, seed) })
	}
}

// lifecycleRig is one seeded run of the lifecycle property test: a
// retention-bounded store, its maintainer under a two-worker scheduler
// with a small queue, and the counters the invariants are checked on.
type lifecycleRig struct {
	t    *testing.T
	seed int64
	st   *store.Store
	m    *Maintainer
	s    *Scheduler

	// The build hook counts builds of non-empty windows, catches two
	// builds of one window overlapping, and parks builders while the
	// driver holds stall to overflow the queue.
	hookMu     sync.Mutex
	inBuild    map[int]int
	overlapped atomic.Bool
	builds     atomic.Int64
	stall      sync.RWMutex

	// Readers run beside the driver except while it holds pause. seenGen
	// is the newest generation a completed read was handed, per window.
	pause     sync.RWMutex
	hi        atomic.Int64 // newest window written
	coldReads atomic.Int64
	seenMu    sync.Mutex
	seenGen   map[int]uint64
	readErr   atomic.Value

	// Driver-only. requested holds the windows a direct request may still
	// have queued.
	invalidations, requests int64
	requested               map[int]bool
	closed                  bool
}

const (
	lifecycleWindowLen = 100.0
	lifecycleRetain    = 6
)

func (r *lifecycleRig) fail(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("seed %d: %s", r.seed, fmt.Sprintf(format, args...))
}

func (r *lifecycleRig) buildHook(c int) {
	if r.st.WindowLen(c) > 0 {
		r.builds.Add(1)
	}
	r.hookMu.Lock()
	r.inBuild[c]++
	if r.inBuild[c] > 1 {
		r.overlapped.Store(true)
	}
	r.hookMu.Unlock()
	r.stall.RLock() // parks here while the driver stalls the builders
	r.stall.RUnlock()
	r.hookMu.Lock()
	r.inBuild[c]--
	r.hookMu.Unlock()
}

// read is one reader operation: the generation it is handed must be no
// older than any a read completed before it began was handed.
func (r *lifecycleRig) read(c int) {
	r.seenMu.Lock()
	floor := r.seenGen[c]
	r.seenMu.Unlock()
	r.m.mu.Lock()
	_, warm := r.m.covers[c]
	r.m.mu.Unlock()
	if !warm {
		r.coldReads.Add(1)
	}
	cv, gen, err := r.m.coverFor(c)
	switch {
	case err != nil:
		if r.st.WindowLen(c) != 0 {
			r.readErr.Store(fmt.Sprintf("read of non-empty window %d: %v", c, err))
		}
		return
	case cv == nil || cv.WindowIndex != c:
		r.readErr.Store(fmt.Sprintf("read of window %d returned cover %+v", c, cv))
		return
	case gen < floor:
		r.readErr.Store(fmt.Sprintf("window %d: read observed generation %d after %d", c, gen, floor))
		return
	}
	r.seenMu.Lock()
	if gen > r.seenGen[c] {
		r.seenGen[c] = gen
	}
	r.seenMu.Unlock()
}

// write appends a batch to window c and invalidates it the way the
// engine's ingest sink does.
func (r *lifecycleRig) write(rng *rand.Rand, c int) {
	b := make(tuple.Batch, 5+rng.Intn(30))
	for i := range b {
		b[i] = tuple.Raw{
			T: (float64(c) + rng.Float64()) * lifecycleWindowLen,
			X: rng.Float64() * 2000, Y: rng.Float64() * 2000,
			S: 400 + rng.Float64()*300,
		}
	}
	if err := r.st.Append(b); err != nil {
		r.fail("append: %v", err)
	}
	if r.st.WindowLen(c) == 0 {
		return // behind the retention horizon: the sink does not invalidate
	}
	r.invalidations++
	r.m.Invalidate(c)
}

// check pauses the readers and verifies the invariants (see checkPaused).
func (r *lifecycleRig) check(quiesce bool) {
	r.t.Helper()
	r.pause.Lock()
	defer r.pause.Unlock()
	r.checkPaused(quiesce)
}

// checkPaused verifies, with the readers paused, that every stale cached
// cover has a rebuild pending, that no window nobody holds has a build
// queued unless a direct request queued it, that no window was built
// twice at once,
// that no read went back in time, that builds stay within what
// invalidations, direct requests and cold reads can account for, and —
// once the scheduler is quiescent — that every cached cover is current
// and bit-identical to a from-scratch build.
func (r *lifecycleRig) checkPaused(quiesce bool) {
	r.t.Helper()
	m, s := r.m, r.s
	if quiesce && !r.closed {
		s.Wait()
	}
	if msg := r.readErr.Load(); msg != nil {
		r.fail("%s", msg)
	}
	if r.overlapped.Load() {
		r.fail("two builds of one window ran at once")
	}
	s.mu.Lock()
	busy := s.inflight > 0
	queued := make(map[int]bool, len(s.queue))
	for _, k := range s.queue {
		queued[k.c] = true
	}
	s.mu.Unlock()
	for c := range r.requested {
		if !queued[c] {
			delete(r.requested, c)
		}
	}
	if c, ok := unheldQueued(m, s, func(c int) bool { return r.requested[c] }); ok {
		r.fail("window %d has a build queued but nobody holds it, and no direct request queued it", c)
	}
	type entry struct {
		c   int
		cv  *Cover
		gen uint64
	}
	var current []entry
	violation := ""
	m.mu.Lock()
	for c, e := range m.covers {
		_, building := m.building[c]
		switch {
		case e.gen == m.gens[c]:
			current = append(current, entry{c, e.cv, e.gen})
		case !building && !queued[c] && !busy:
			violation = fmt.Sprintf("window %d is served stale (generation %d of %d) with no rebuild pending", c, e.gen, m.gens[c])
		case quiesce:
			violation = fmt.Sprintf("window %d is still stale (generation %d of %d) after quiescing", c, e.gen, m.gens[c])
		}
	}
	m.mu.Unlock()
	if violation != "" {
		r.fail("%s", violation)
	}
	if quiesce {
		for _, e := range current {
			if r.st.WindowLen(e.c) == 0 {
				r.fail("a cover is cached for window %d, which holds no data", e.c)
			}
			if got, want := coverDigest(e.cv), scratchDigest(r.t, m, e.c); got != want {
				r.fail("window %d quiesced at generation %d: digest %s, from scratch %s", e.c, e.gen, got, want)
			}
		}
	}
	if b, budget := r.builds.Load(), r.invalidations+r.requests+r.coldReads.Load(); b > budget {
		r.fail("%d builds for %d invalidations + %d direct requests + %d cold reads",
			b, r.invalidations, r.requests, r.coldReads.Load())
	}
}

// unheld picks a retained window nobody holds — no cover cached, no build
// in flight — or, when every retained window is held, the next one.
func (r *lifecycleRig) unheld(rng *rand.Rand, newest int) int {
	var cs []int
	r.m.mu.Lock()
	for c := max(newest-lifecycleRetain+1, 0); c <= newest; c++ {
		if !r.m.heldLocked(c) {
			cs = append(cs, c)
		}
	}
	r.m.mu.Unlock()
	if len(cs) == 0 {
		return newest + 1
	}
	return cs[rng.Intn(len(cs))]
}

// overflow stalls the builders and dirties every retained window, more
// than the queue holds. The readers are paused first: one parked inside
// a build would never let go of pause.
func (r *lifecycleRig) overflow(rng *rand.Rand, newest int) {
	r.pause.Lock()
	defer r.pause.Unlock()
	r.stall.Lock()
	defer r.stall.Unlock()
	for c := newest; c > newest-lifecycleRetain && c >= 0; c-- {
		r.write(rng, c)
	}
	r.checkPaused(false)
}

func lifecycleRun(t *testing.T, seed int64) {
	const steps = 400
	rng := rand.New(rand.NewSource(seed))
	st, err := store.Open(store.Config{WindowLength: lifecycleWindowLen, Retain: lifecycleRetain})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	r := &lifecycleRig{
		t: t, seed: seed, st: st,
		m:         NewMaintainer(st, Config{Cluster: clusterSeed(seed)}),
		s:         NewScheduler(SchedulerConfig{Workers: 2}),
		inBuild:   map[int]int{},
		seenGen:   map[int]uint64{},
		requested: map[int]bool{},
	}
	r.s.maxQueue = 3
	defer r.s.Close()
	defer r.s.Watch(r.m)()
	r.m.testBuildHook = r.buildHook

	closeAt := -1
	if seed%2 == 0 {
		closeAt = steps/2 + rng.Intn(steps/2)
	}
	// Window 0 is written before the readers start: they aim at windows
	// that were written, and a reader that got in first would be told
	// "window 0 is empty" about a window that is not by the time it looks.
	r.write(rng, 0)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func(i int) {
			defer readers.Done()
			rrng := rand.New(rand.NewSource(seed*100 + int64(i)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.pause.RLock()
				r.read(int(r.hi.Load()) - rrng.Intn(lifecycleRetain+1))
				r.pause.RUnlock()
			}
		}(i)
	}
	defer func() { close(stop); readers.Wait() }()

	for step := 0; step < steps; step++ {
		newest := int(r.hi.Load())
		switch op := rng.Intn(100); {
		case step == closeAt:
			r.s.Close()
			r.closed = true
			r.check(true) // Close leaves nothing stale behind
		case op < 45: // a write to a recent window, sometimes opening the next (eviction)
			c := newest - rng.Intn(3)
			if rng.Intn(8) == 0 {
				c = newest + 1
			}
			if c >= 0 {
				r.write(rng, c)
				r.hi.Store(int64(max(c, newest))) // readers only aim at windows that were written
			}
		case op < 52: // a write into a window nobody holds: it queues nothing
			c := r.unheld(rng, newest)
			r.write(rng, c)
			r.hi.Store(int64(max(c, newest)))
			r.check(false)
		case op < 72: // a read from the driver itself
			r.read(newest - rng.Intn(lifecycleRetain+1))
		case op < 79: // a direct rebuild request (WarmPrime's path)
			c := newest - rng.Intn(lifecycleRetain)
			r.requests++
			r.requested[c] = true
			r.s.Schedule(r.m, c)
		case op < 85:
			r.overflow(rng, newest)
		case op < 93:
			r.check(false)
		default:
			r.check(true)
		}
	}
	r.check(true)
	if r.closed {
		return
	}
	// The run must have exercised what it claims to.
	stats := r.s.Stats()
	if stats.Built == 0 || stats.Coalesced == 0 || stats.Dropped == 0 {
		r.fail("scheduler stats %+v: the run never rebuilt, coalesced or overflowed", stats)
	}
	if retained := st.WindowIndexes(); len(retained) > lifecycleRetain {
		r.fail("store retains %d windows, bound %d", len(retained), lifecycleRetain)
	}
}
