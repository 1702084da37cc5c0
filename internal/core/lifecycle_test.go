package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

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

// buildGate blocks builds in the maintainer's test hook until released,
// reporting each build that reaches it.
type buildGate struct {
	entered chan int
	release chan struct{}
}

func gateBuilds(m *Maintainer) *buildGate {
	g := &buildGate{entered: make(chan int, 64), release: make(chan struct{}, 64)}
	m.testBuildHook = func(c int) {
		g.entered <- c
		<-g.release
	}
	return g
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

	gate := gateBuilds(m)
	appendLate(t, m, 0, 20, rand.New(rand.NewSource(1)))
	<-gate.entered // the rebuild is running, not installed

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

	gate := gateBuilds(m)
	rng := rand.New(rand.NewSource(2))
	appendLate(t, m, 0, 10, rng)
	<-gate.entered
	for i := 0; i < 3; i++ {
		appendLate(t, m, 0, 10, rng) // absorbed: the idle worker does not park or build
	}
	waitFor(t, "second worker to absorb the requests", func() bool {
		st := s.Stats()
		return st.QueueLen == 0 && st.Inflight == 1
	})
	gate.release <- struct{}{}

	<-gate.entered // the one follow-up
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
	for i := 0; i < 5; i++ {
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

	gate := gateBuilds(m)
	rng := rand.New(rand.NewSource(3))
	appendLate(t, m, loneWindow(5), 5, rng) // occupies the worker
	<-gate.entered

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

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	waitFor(t, "Close to discard the queue", func() bool { return !cached()[3] })
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

	gate := gateBuilds(m)
	rng := rand.New(rand.NewSource(4))
	appendLate(t, m, w(2), 5, rng)
	<-gate.entered
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
// (the scheduler and a change hook): no id slice, no sort, no hook copy.
func TestInvalidateAllocatesNothing(t *testing.T) {
	st := fillStore(t, 100, 2, 40)
	m := NewMaintainer(st, Config{Cluster: clusterSeed(16)})
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Close()
	defer s.Watch(m)()
	defer m.OnChange(func(int) {})()

	// Park the only worker so nothing else allocates meanwhile, and queue
	// window 1 once: further invalidations are absorbed by the queue.
	gate := gateBuilds(m)
	m.Invalidate(0)
	<-gate.entered
	m.Invalidate(1)
	if allocs := testing.AllocsPerRun(200, func() { m.Invalidate(1) }); allocs != 0 {
		t.Errorf("Invalidate = %v allocs, want 0", allocs)
	}
	gate.release <- struct{}{}
	gate.release <- struct{}{}
	s.Wait()

	// Without a scheduler the hard drop and the hook fan-out are free too.
	m2 := NewMaintainer(st, Config{Cluster: clusterSeed(16)})
	defer m2.OnChange(func(int) {})()
	m2.Invalidate(1)
	if allocs := testing.AllocsPerRun(200, func() { m2.Invalidate(1) }); allocs != 0 {
		t.Errorf("Invalidate without a scheduler = %v allocs, want 0", allocs)
	}
}

// TestCoverLifecycleProperty drives seeded random interleavings of
// append+invalidate, reads, direct rebuild requests, eviction (rolling
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

	// Driver-only.
	invalidations, requests int64
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
// cover has a rebuild pending, that no window was built twice at once,
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
		m:       NewMaintainer(st, Config{Cluster: clusterSeed(seed)}),
		s:       NewScheduler(SchedulerConfig{Workers: 2}),
		inBuild: map[int]int{},
		seenGen: map[int]uint64{},
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
		case op < 70: // a read from the driver itself
			r.read(newest - rng.Intn(lifecycleRetain+1))
		case op < 78: // a direct rebuild request (WarmPrime's path)
			r.requests++
			r.s.Schedule(r.m, newest-rng.Intn(lifecycleRetain))
		case op < 84:
			r.overflow(rng, newest)
		case op < 92:
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
