package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/colblock"
	"repro/internal/store"
	"repro/internal/tuple"
)

// Maintainer keeps model covers for the windows of a store, building each
// window's cover on first use and serving cached covers afterwards. It is
// the component at the center of Figure 1: raw tuples flow into the
// database, and the adaptive modeling layer maintains the `model_cover`
// abstraction the query processor reads.
//
// Maintainer is safe for concurrent use.
//
// # Cover lifecycle
//
// Every window carries a generation that Invalidate (new tuples) and
// store eviction advance, and every cached cover remembers the generation
// it was built at. A cover is *current* when the two agree and *stale*
// (dirty) when the window has moved on. What happens to a cover when its
// window is invalidated depends on who is there to rebuild it:
//
//   - Under a watching Scheduler a held window's cover goes dirty →
//     revalidating → current: Invalidate queues a background rebuild and
//     readers keep getting the cached cover, one or more generations
//     behind, until the rebuild installs its successor
//     (stale-while-revalidate). A window is held once a reader has asked
//     for it: it has a cached cover, or a build in flight whose result
//     will be kept. A window nobody holds is not modeled on a write: its
//     first reader builds it (and a second joins that build).
//   - Without one (Maintenance.Workers < 0, or after unwatch / Close)
//     Invalidate hard-drops the cover and the next reader rebuilds it
//     synchronously — read-your-writes.
//
// # Cover chains
//
// A window's cover is built from its predecessor's (Builder.BuildFrom):
// window c starts from the centroids of window c−1's current cover, unless
// c anchors its chain (c mod chainSpan = 0) or window c−1 holds no tuples,
// and then it is built cold. A cover is thus a pure function of the
// store's windows from its anchor up to it — the chain cover — and the
// maintainer keeps it one through every way those windows change:
//
//   - A late write: Invalidate(c) also advances the generation of every
//     held later window of c's span, up to the first window that holds
//     no tuples; each goes stale-while-revalidate or is hard-dropped like
//     c itself.
//   - Eviction: when the store evicts window e, window e+1 (unless it is
//     an anchor or empty) is invalidated like a late write into it, since
//     its cover is now the cold one — the one a replica mirror, whose log
//     no longer holds e, builds too — and the covers chained after it are
//     dropped like evicted ones, to be rebuilt by their next read.
//   - Restarts: a checkpoint seed is refitted only when it was built over
//     exactly the window's tuples from exactly the predecessor cover
//     current(c−1) gives (see seed).
//
// The invariants, checked by the seeded lifecycle and chain property
// tests:
//
//   - Served stale ⇒ rebuild pending. A stale cover stays cached only
//     while its rebuild is queued, running, or owed by a worker resting
//     before it (below). Every way a rebuild can be refused — queue
//     overflow or displacement, Scheduler.Close, unwatch, a failed build
//     — hard-drops the stale cover, so the next reader builds from the
//     window's current contents. Conversely a write queues no rebuild
//     for a window nobody holds: only WarmPrime (or a direct Schedule)
//     queues those.
//   - Quiesced ⇒ bit-identical. Once the scheduler is idle
//     (Scheduler.Wait) every cached cover is current, i.e. equal to the
//     chain cover over the windows' present tuples.
//   - The generation a reader observes for a window (ServedGeneration,
//     and the covers CoverFor returns) never decreases, and a cover
//     obtained after reading ServedGeneration was built at that
//     generation or later — so an entity tag hashed from it before
//     evaluating (the continuous-query ETag) never yields a wrong 304.
//   - At most one build of a window is in flight. A reader that needs a
//     cover while one is being built waits for it instead of starting a
//     second. A build of window c first takes current(c−1), so it may
//     wait on a lower window of its own span, never on a higher one, and
//     a scheduler worker waits on nothing else — whoever runs a build
//     that a write overtook requests the rebuild again when it finishes.
//   - A finished build is never thrown away because a write overtook it:
//     it is installed (never over a newer cover) and owes exactly one
//     follow-up rebuild. Builds are discarded only when the window was
//     evicted meanwhile or nobody is there to run the follow-up. A
//     worker whose build was overtaken rests for as long as that build
//     took before requesting the follow-up, so a window written faster
//     than it can be modeled is rebuilt at most every other build time.
//   - A cover refitted from its checkpoint's seed is the cover a build
//     would give: the seed is used only for a window that is exactly the
//     tuples it was built over, with the configuration and from the
//     predecessor that built it.
//   - Change hooks (OnChange) run after every install of a rebuilt
//     cover, after every hard drop and after a write into an unheld
//     window — the moments the answer a reader gets changes — not when a
//     held window is merely dirtied, so a subscription push follows
//     every installed refresh of a window it overlaps and carries the
//     refreshed values.
//
// The maintainer registers itself with the store's eviction hook, so its
// cover cache is bounded by the store's retention horizon: when the store
// evicts windows, their covers (and any in-flight builds) are discarded
// too, keeping the cached-cover count ≤ the store's Retain bound under
// rolling ingest. It is also the store's checkpoint seeder (seed): a
// checkpoint keeps, beside each window, the centroids of its cover
// (building the cover of a sealed window that has none), and a build of a
// window that is still exactly what the checkpoint holds — the warm-prime
// after a restart — refits the cover from them.
type Maintainer struct {
	st  *store.Store
	cfg Config
	fp  uint64 // cfg.fingerprint(): what a cold seed must have been built with

	unhook, unseed func() // detach the store eviction and checkpoint hooks

	mu       sync.Mutex
	covers   map[int]cached
	building map[int]*buildState

	// gens counts, per window, how many times the window has been
	// invalidated or evicted. It only ever grows — at 8 bytes per window
	// ever touched that is negligible next to the window data itself — so
	// a (window, generation) pair identifies one state of the window for
	// the whole process lifetime.
	gens map[int]uint64

	// sched is the scheduler watching this maintainer (nil when none):
	// the one that runs the rebuilds stale covers wait for.
	sched *Scheduler

	// hooks run after the cover a reader of a window gets has changed —
	// a rebuilt cover was installed, or the cover was hard-dropped —
	// outside the maintainer lock, in registration order. The slice is
	// copy-on-write: registration replaces it, so firing needs no copy.
	// Eviction does NOT fire these: an evicted window is behind the
	// retention horizon and nobody can read it any more.
	hooks      []changeHook
	nextHookID int

	// testBuildHook, when set (by tests in this package), runs after the
	// window's tuples are read but before the built cover is installed —
	// the interleaving point of the overtaken-build race.
	testBuildHook func(c int)
	// testRefitHook, when set (by tests in this package), runs before a
	// build refits window c's tuples w from the checkpoint's seed sd.
	testRefitHook func(c int, w tuple.Batch, sd colblock.Seed)
}

// cached is one cached cover, the window generation it was built at, and
// the Config word of its seed (chainWord).
type cached struct {
	cv   *Cover
	gen  uint64
	word uint64
}

type changeHook struct {
	id int
	fn func(c int)
}

// fire runs a snapshot of the change hooks for window c; the caller has
// released the maintainer lock.
func fire(hooks []changeHook, c int) {
	for _, h := range hooks {
		h.fn(c)
	}
}

// buildState tracks the one in-flight build of a window. gen is the
// window's generation when the build started — before it read the
// window, so the cover holds at least every tuple of that generation.
// evicted is guarded by the maintainer's mutex; cover, word, refit, took
// and err are written once before done is released. Waiters call
// done.Wait(); the completion signal lives in the state, so registering a
// build allocates nothing beside it.
type buildState struct {
	done    sync.WaitGroup
	gen     uint64
	evicted bool
	cover   *Cover
	word    uint64        // the seed word of cover (see cached)
	refit   bool          // the cover was refitted from the checkpoint's seed
	took    time.Duration // the window's own build, its predecessors' not counted
	err     error
}

// NewMaintainer returns a maintainer over st with the given Ad-KMN
// configuration, subscribed to st's window eviction so its cover cache
// never outgrows the store's retention horizon.
func NewMaintainer(st *store.Store, cfg Config) *Maintainer {
	m := &Maintainer{
		st:       st,
		cfg:      cfg,
		fp:       cfg.fingerprint(),
		covers:   make(map[int]cached),
		building: make(map[int]*buildState),
		gens:     make(map[int]uint64),
	}
	m.unhook = st.OnEvict(m.dropWindows)
	m.unseed = st.OnCheckpoint(m.seed)
	return m
}

// Close detaches the maintainer from its store's eviction and checkpoint
// hooks, so a discarded maintainer over a long-lived store is not kept
// alive (and invoked) by the store forever. The maintainer stays usable
// afterwards, but its cache is no longer trimmed by store eviction, and
// the store's checkpoints write no seeds for it.
func (m *Maintainer) Close() {
	m.unhook()
	m.unseed()
}

// CoverFor returns the model cover for window c, building it on first
// use. Under a watching scheduler the cover may be stale — built before
// the window's latest tuples — but only while its rebuild is pending.
func (m *Maintainer) CoverFor(c int) (*Cover, error) {
	cv, _, err := m.coverFor(c)
	return cv, err
}

// coverFor is CoverFor that also reports the generation the returned
// cover was built at. It waits only for the in-flight build of the same
// cover, which always releases done, and for its own build's predecessors.
func (m *Maintainer) coverFor(c int) (*Cover, uint64, error) {
	for {
		m.mu.Lock()
		if e, ok := m.covers[c]; ok {
			m.mu.Unlock()
			return e.cv, e.gen, nil
		}
		bs, ok := m.building[c]
		if !ok {
			bs = m.startBuildLocked(c)
			m.mu.Unlock()
			if m.build(c, bs, nil) {
				m.revalidate(c)
			}
			return bs.cover, bs.gen, bs.err
		}
		// One build at a time: wait for the running one. Its result
		// answers this call if it started at the window's present
		// generation; a build the window has already moved past only
		// decides what the next turn of the loop finds cached.
		joined := bs.gen == m.gens[c] && !bs.evicted
		m.mu.Unlock()
		bs.done.Wait()
		if joined {
			return bs.cover, bs.gen, bs.err
		}
	}
}

// buildTally counts, for the scheduler's counters, what one background
// refresh did: its own build and those of the lower windows of its span
// it brought up to date first; skipped counts a window that holds no data
// (evicted), coalesced one with nothing to do (current, or a build is
// running).
type buildTally struct {
	built, refitted, failed int64
	skipped, coalesced      int64
}

// count records the settled build bs; a nil tally (a build on the query
// path) counts nothing.
func (t *buildTally) count(bs *buildState) {
	switch {
	case t == nil:
	case bs.err != nil:
		t.failed++
	case bs.refit:
		t.built++
		t.refitted++
	default:
		t.built++
	}
}

// refresh is the scheduler worker's entry: bring window c's cover up to
// the window's current generation, counting into t. It waits on no build
// of c — a running build that a write overtook is followed up by whoever
// runs it — and only on the lower windows of c's span its build starts
// from; it does nothing when the cover is already current.
// A positive rest means the worker's own build was overtaken: the window
// is being written faster than it can be modeled, and the follow-up the
// worker owes (revalidate, once it has rested that long) is paced so
// that rebuilding one hot window never takes more than half of a core
// from the write path.
func (m *Maintainer) refresh(c int, t *buildTally) (rest time.Duration) {
	// An empty window means it was evicted (or never held data) after
	// scheduling: building would just manufacture an error.
	if m.st.WindowLen(c) == 0 {
		t.skipped++
		return 0
	}
	m.mu.Lock()
	e, ok := m.covers[c]
	_, running := m.building[c]
	if ok && e.gen == m.gens[c] || running {
		m.mu.Unlock()
		t.coalesced++
		return 0
	}
	bs := m.startBuildLocked(c)
	m.mu.Unlock()
	if m.build(c, bs, t) {
		rest = bs.took
	}
	return rest
}

// startBuildLocked registers the in-flight build of window c. Caller
// holds m.mu and has checked that none is registered.
func (m *Maintainer) startBuildLocked(c int) *buildState {
	bs := &buildState{gen: m.gens[c]}
	bs.done.Add(1)
	m.building[c] = bs
	return bs
}

// build runs the registered build bs of window c, counting it (and the
// builds of the predecessors it brings up to date) into t, and settles
// it: the cover is installed unless the window was evicted meanwhile, a
// newer cover is already cached, or a write overtook the build with no
// scheduler to run the follow-up (the hard-drop mode, where the next
// reader rebuilds). An overtaken build under a scheduler owes one
// follow-up rebuild: build reports it, and its caller requests the
// rebuild (revalidate) — a refusal hard-drops the cover just installed.
func (m *Maintainer) build(c int, bs *buildState, t *buildTally) (owed bool) {
	// The chain's cover of window c−1 first: a change to it after this
	// point advances c's generation too, so the build is overtaken.
	var prev *Cover
	if chainOffset(c) != 0 && m.st.WindowLen(c-1) > 0 {
		prev = m.current(c-1, t).cv
	}
	start := time.Now()
	// The window is read into the borrowed Builder's buffer, not cloned:
	// the cover copies out what it keeps, so the tuples are moved once.
	// The seed comes with the tuples, from the same critical section: a
	// window that gained a tuple since its checkpoint has none.
	b := builders.Get().(*Builder)
	var sd colblock.Seed
	var seeded bool
	b.win, sd, seeded = m.st.WindowSeedInto(b.win[:0], c)
	if m.testBuildHook != nil {
		m.testBuildHook(c)
	}
	h := m.st.WindowLength()
	bs.word = chainWord(m.fp, c, prev)
	if seeded && sd.Config == bs.word && sd.Count == len(b.win) {
		if m.testRefitHook != nil {
			m.testRefitHook(c, b.win, sd)
		}
		// A seed Refit refuses does not fit its window: build instead.
		bs.cover, bs.err = b.Refit(b.win, c, h, m.cfg, sd.Centroids, sd.Rounds)
		bs.refit = bs.err == nil
	}
	switch {
	case len(b.win) == 0:
		bs.err = fmt.Errorf("core: window %d is empty", c)
	case !bs.refit:
		bs.cover, bs.err = b.BuildFrom(b.win, c, h, m.cfg, prev)
	}
	builders.Put(b)
	bs.took = time.Since(start)
	t.count(bs)

	m.mu.Lock()
	delete(m.building, c)
	overtaken := bs.gen != m.gens[c]
	changed := false
	switch {
	case bs.evicted:
	case bs.err != nil:
		// The rebuild a stale cover was waiting for has failed.
		changed = m.dropStaleLocked(c)
	case overtaken && m.sched == nil:
	default:
		if e, ok := m.covers[c]; !ok || e.gen < bs.gen {
			m.covers[c] = cached{cv: bs.cover, gen: bs.gen, word: bs.word}
			changed = true
		}
	}
	owed = overtaken && !bs.evicted && m.sched != nil
	hooks := m.hooks
	m.mu.Unlock()
	if changed {
		fire(hooks, c)
	}
	bs.done.Done()
	return owed
}

// seed is the store's checkpoint hook (store.SeedFunc): the centroids of
// window c's current cover when that cover was built over exactly the n
// tuples the checkpoint holds (a window only grows by append, so they are
// its first n), with its word. A sealed window's cover is brought up to
// date first (current), so a window written since its last build still
// gets a seed; a live window's cached cover that is not current gets none
// — after a cascade it can count the right tuples and still be stale.
//
// A build refits a seed only when the window holds exactly Count tuples
// and the word is what current(c−1) gives (chainWord): the fingerprint XOR
// a hash of that cover's centroids, or the fingerprint alone when c
// anchors its chain or c−1 holds no tuples. A late write, a bad seed or an
// eviction below c thus costs exactly the windows whose chain inputs — the
// window's tuples, its predecessor's centroids — changed.
func (m *Maintainer) seed(c, n int, sealed bool) (colblock.Seed, bool) {
	var e cached
	if sealed {
		e = m.current(c, nil)
	} else {
		m.mu.Lock()
		if x := m.covers[c]; x.gen == m.gens[c] {
			e = x
		}
		m.mu.Unlock()
	}
	if e.cv == nil || e.cv.tuples() != n {
		return colblock.Seed{}, false
	}
	return e.cv.seed(n, e.word), true
}

// current returns window c's cover at the window's present generation,
// with its generation and word: the cached one when it is current, else
// the running build's once that ends, else one built here (counted into
// t) and installed like any other — the rebuild a scheduler has queued
// for the window then finds nothing to do. Its cover is nil when the
// build fails.
func (m *Maintainer) current(c int, t *buildTally) cached {
	for {
		m.mu.Lock()
		if e, ok := m.covers[c]; ok && e.gen == m.gens[c] {
			m.mu.Unlock()
			return e
		}
		if bs, ok := m.building[c]; ok {
			m.mu.Unlock()
			bs.done.Wait()
			continue
		}
		bs := m.startBuildLocked(c)
		m.mu.Unlock()
		if m.build(c, bs, t) {
			m.revalidate(c)
		}
		return cached{cv: bs.cover, gen: bs.gen, word: bs.word}
	}
}

// CoverAt returns the cover for the window containing stream time t. The
// window index is arithmetic, so a cached cover is served without reading
// the store: a hit costs one map lookup, and a primed cover over a window
// still lazy in the checkpoint file leaves that window lazy.
func (m *Maintainer) CoverAt(t float64) (*Cover, error) {
	if t < 0 {
		return nil, fmt.Errorf("core: negative query time %v", t)
	}
	return m.CoverFor(tuple.WindowIndex(t, m.st.WindowLength()))
}

// Invalidate records that window c changed (e.g. late tuples arrived for
// a window that was already modeled) by advancing its generation, and
// that of every held later window whose chain cover starts from c's:
// those of c's span up to the first window that holds no tuples. A window
// is held when it has a cached cover or a build in flight whose result
// will be kept — a reader has asked for it. Under a watching scheduler
// each held window's cover stays served while the rebuild this call
// queues is pending; if the scheduler refuses a rebuild it hard-drops
// that cover. An unheld c queues nothing: its first reader builds it, and
// the change hooks run here so subscriptions over it re-evaluate. Without
// a scheduler the covers are hard-dropped here, builds in flight are not
// cached when they complete, and the change hooks run — later CoverFor
// calls rebuild from the post-invalidation windows. Invalidate allocates
// nothing once the window is known.
func (m *Maintainer) Invalidate(c int) {
	end := c + 1
	for spanEnd := c - chainOffset(c) + chainSpan; end < spanEnd && m.st.WindowLen(end) > 0; {
		end++
	}
	// A window created in the gap meanwhile is invalidated by its own write.
	var refused [chainSpan]buildKey
	var dropped [chainSpan]int
	nr, nd := 0, 0
	m.mu.Lock()
	for w := c; w < end; w++ {
		held := m.heldLocked(w)
		if !held && w != c {
			continue
		}
		m.gens[w]++
		if held && m.sched != nil {
			if key, ok := m.sched.admit(buildKey{m: m, c: w}); ok {
				refused[nr] = key
				nr++
			}
		} else {
			delete(m.covers, w)
			dropped[nd] = w
			nd++
		}
	}
	hooks := m.hooks
	m.mu.Unlock()
	for _, key := range refused[:nr] {
		key.m.dropStale(key.c)
	}
	for _, w := range dropped[:nd] {
		fire(hooks, w)
	}
}

// heldLocked reports whether a reader holds window c: it has a cached
// cover, or a build in flight whose result will be kept. Caller holds
// m.mu.
func (m *Maintainer) heldLocked(c int) bool {
	_, ok := m.covers[c]
	bs, running := m.building[c]
	return ok || running && !bs.evicted
}

// revalidate requests the follow-up rebuild an overtaken build of window
// c owes from the watching scheduler, unless nobody holds the window any
// more (an eviction dropped it meanwhile) or nobody watches. Holding m.mu
// while admitting keeps the scheduler's queue to held windows: an
// eviction forgets the builds of the windows it drops under the same
// lock.
func (m *Maintainer) revalidate(c int) {
	m.mu.Lock()
	var refused buildKey
	ok := false
	if m.sched != nil && m.heldLocked(c) {
		refused, ok = m.sched.admit(buildKey{m: m, c: c})
	}
	m.mu.Unlock()
	if ok {
		refused.m.dropStale(refused.c)
	}
}

// OnChange registers fn to run, outside the maintainer lock, whenever the
// cover a reader of window c gets has changed: after a rebuilt cover is
// installed and after a hard drop (an Invalidate without a scheduler, a
// refused or failed rebuild, unwatch). It does not run when a window is
// merely dirtied — the stale cover is still what readers get — so a
// subscriber that re-evaluates on it always sees the new answer. The
// returned function unregisters the hook.
func (m *Maintainer) OnChange(fn func(c int)) (unregister func()) {
	m.mu.Lock()
	id := m.nextHookID
	m.nextHookID++
	m.hooks = append(m.hooks[:len(m.hooks):len(m.hooks)], changeHook{id: id, fn: fn})
	m.mu.Unlock()
	return func() {
		m.mu.Lock()
		kept := make([]changeHook, 0, len(m.hooks))
		for _, h := range m.hooks {
			if h.id != id {
				kept = append(kept, h)
			}
		}
		m.hooks = kept
		m.mu.Unlock()
	}
}

// setScheduler attaches (or, with nil, detaches) the scheduler that runs
// this maintainer's rebuilds. Detaching hard-drops every stale cover:
// nobody is left to revalidate them.
func (m *Maintainer) setScheduler(s *Scheduler) {
	m.mu.Lock()
	m.sched = s
	var dropped []int
	if s == nil {
		for c := range m.covers {
			if m.dropStaleLocked(c) {
				dropped = append(dropped, c)
			}
		}
	}
	hooks := m.hooks
	m.mu.Unlock()
	for _, c := range dropped {
		fire(hooks, c)
	}
}

// dropStale hard-drops window c's cover if it is stale — the scheduler
// calls it for every rebuild it refuses or discards — and runs the change
// hooks either way: a refused rebuild of a window with no cover yet is
// still a change the subscribers were waiting to hear about.
func (m *Maintainer) dropStale(c int) {
	m.mu.Lock()
	m.dropStaleLocked(c)
	hooks := m.hooks
	m.mu.Unlock()
	fire(hooks, c)
}

// dropStaleLocked removes window c's cover if it is stale, reporting
// whether it did. Caller holds m.mu.
func (m *Maintainer) dropStaleLocked(c int) bool {
	e, ok := m.covers[c]
	if !ok || e.gen == m.gens[c] {
		return false
	}
	delete(m.covers, c)
	return true
}

// dropWindows is the store eviction hook. Every cover at or below the
// newest evicted index is dropped, not just the exact evicted set: the
// store only reports windows it actually held, but the cache may hold
// primed covers for windows the store never saw, and those are equally
// behind the retention horizon once newer windows are evicted. A build in
// flight for such a window stays registered (one build at a time) but its
// result is discarded.
//
// The window after the horizon has lost its predecessor, so its chain
// cover is now the cold one: unless it anchors its chain or holds no
// tuples, it is invalidated like a late write into it. The covers chained
// after it are dropped the way evicted ones are, and the change hooks run
// for them: revalidating them would rebuild up to 22 covers an eviction
// under rolling ingest, and a reader of one rebuilds what it needs.
func (m *Maintainer) dropWindows(evicted []int) {
	horizon := evicted[len(evicted)-1] // ascending order
	next := horizon + 1
	chained := chainOffset(next) != 0 && m.st.WindowLen(next) > 0
	end := next + 1 // the chained windows after next are (next, end)
	for spanEnd := next - chainOffset(next) + chainSpan; chained && end < spanEnd && m.st.WindowLen(end) > 0; {
		end++
	}
	var dropped [chainSpan]int
	n := 0
	m.mu.Lock()
	for c := range m.covers {
		if c <= horizon || next < c && c < end {
			m.gens[c]++
			delete(m.covers, c)
			if c > next {
				dropped[n] = c
				n++
			}
		}
	}
	for c, bs := range m.building {
		if (c <= horizon || next < c && c < end) && !bs.evicted {
			m.gens[c]++
			bs.evicted = true
		}
	}
	// Nobody holds the dropped windows now: their queued rebuilds go too.
	m.sched.forget(m, math.MinInt, horizon+1)
	m.sched.forget(m, next+1, end)
	hooks := m.hooks
	m.mu.Unlock()
	for _, c := range dropped[:n] {
		fire(hooks, c)
	}
	if chained {
		m.Invalidate(next)
	}
}

// Generation returns how many times window c has been invalidated or
// evicted. Windows never touched report 0.
func (m *Maintainer) Generation(c int) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gens[c]
}

// ServedGeneration returns the generation of the cover a reader of
// window c gets: the cached cover's, else the running build's, else the
// window's own (the next reader builds at it or later). It never
// decreases, and a cover obtained after the call was built at this
// generation or a later one — so a tag derived from it before evaluating
// can only cause an extra refresh, never vouch for an older answer. The
// HTTP layer hashes it into the ETag of continuous-query responses.
func (m *Maintainer) ServedGeneration(c int) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.covers[c]; ok {
		return e.gen
	}
	if bs, ok := m.building[c]; ok && !bs.evicted {
		return bs.gen
	}
	return m.gens[c]
}

// MissingCovers returns the indexes of retained store windows that have
// neither a cached cover nor a build in flight, in ascending order —
// the windows a restarted server would pay an on-demand Ad-KMN build
// for on first query. The scheduler's WarmPrime feeds on it.
func (m *Maintainer) MissingCovers() []int {
	idxs := m.st.WindowIndexes() // ascending
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int, 0, len(idxs))
	for _, c := range idxs {
		if _, ok := m.covers[c]; ok {
			continue
		}
		if _, ok := m.building[c]; ok {
			continue
		}
		out = append(out, c)
	}
	return out
}

// CachedWindows returns the indexes of windows with cached covers,
// current or stale.
func (m *Maintainer) CachedWindows() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int, 0, len(m.covers))
	for c := range m.covers {
		out = append(out, c)
	}
	return out
}
