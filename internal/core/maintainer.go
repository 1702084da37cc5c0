package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/store"
	"repro/internal/tuple"
)

// Maintainer keeps model covers for the windows of a store, building each
// window's cover at most once and serving cached covers afterwards. It is
// the component at the center of Figure 1: raw tuples flow into the
// database, and the adaptive modeling layer maintains the `model_cover`
// abstraction the query processor reads.
//
// Maintainer is safe for concurrent use; concurrent requests for the same
// window build the cover once.
//
// # Cover lifecycle
//
// Each cached cover carries a per-window generation. Invalidate (late
// tuples) and store eviction (retention) advance the window's generation,
// which both drops the cached cover and marks any in-flight build for
// that window stale: when the stale build completes, its result is
// returned to the callers that were already waiting on it (their request
// predates the new data) but is NOT re-cached, so the next CoverFor sees
// the post-invalidation window. This closes the race where a build that
// started before an Invalidate would clobber the invalidation on
// completion.
//
// The maintainer registers itself with the store's eviction hook, so its
// cover cache is bounded by the store's retention horizon: when the store
// evicts windows, their covers (and any in-flight builds) are discarded
// too, keeping the cached-cover count ≤ the store's Retain bound under
// rolling ingest.
type Maintainer struct {
	st  *store.Store
	cfg Config

	unhook func() // detaches the store eviction hook

	mu       sync.Mutex
	covers   map[int]*Cover
	building map[int]*buildState

	// gens counts, per window, how many times the window's cover has
	// been dropped (invalidation or eviction). It only ever grows — at
	// 8 bytes per window ever touched that is negligible next to the
	// window data itself — so a (window, generation) pair identifies one
	// cover lifetime for the whole process lifetime. The HTTP layer
	// hashes generations into the ETag of continuous-query responses.
	gens map[int]uint64

	// invalHooks run after Invalidate drops a window, outside the
	// maintainer lock, in registration order. The scheduler subscribes
	// here to queue background rebuilds. Eviction does NOT fire these:
	// an evicted window is behind the retention horizon and rebuilding
	// it would be dead work.
	invalHooks map[int]func(c int)
	nextHookID int

	// testBuildHook, when set (by tests in this package), runs after the
	// window's tuples are read but before the built cover is installed —
	// the interleaving point of the stale-cover race.
	testBuildHook func(c int)
}

// buildState tracks one in-flight cover build. stale is guarded by the
// maintainer's mutex; cover and err are written once before done closes.
type buildState struct {
	done  chan struct{}
	stale bool
	cover *Cover
	err   error
}

// NewMaintainer returns a maintainer over st with the given Ad-KMN
// configuration, subscribed to st's window eviction so its cover cache
// never outgrows the store's retention horizon.
func NewMaintainer(st *store.Store, cfg Config) *Maintainer {
	m := &Maintainer{
		st:       st,
		cfg:      cfg,
		covers:   make(map[int]*Cover),
		building: make(map[int]*buildState),
		gens:     make(map[int]uint64),
	}
	m.unhook = st.OnEvict(m.dropWindows)
	return m
}

// Close detaches the maintainer from its store's eviction hook, so a
// discarded maintainer over a long-lived store is not kept alive (and
// invoked) by the store forever. The maintainer stays usable afterwards,
// but its cache is no longer trimmed by store eviction.
func (m *Maintainer) Close() { m.unhook() }

// CoverFor returns the model cover for window c, building it on first use.
//
//ctxcheck:allow the only wait is for a concurrent build of the same cover, which always closes done
func (m *Maintainer) CoverFor(c int) (*Cover, error) {
	m.mu.Lock()
	if cv, ok := m.covers[c]; ok {
		m.mu.Unlock()
		return cv, nil
	}
	if bs, ok := m.building[c]; ok {
		m.mu.Unlock()
		<-bs.done
		return bs.cover, bs.err
	}
	bs := &buildState{done: make(chan struct{})} //bounded: signal-only; the builder closes it, nothing sends
	m.building[c] = bs
	m.mu.Unlock()

	w := m.st.Window(c)
	if m.testBuildHook != nil {
		m.testBuildHook(c)
	}
	var cv *Cover
	var err error
	if len(w) == 0 {
		err = fmt.Errorf("core: window %d is empty", c)
	} else {
		cv, err = BuildCover(w, c, m.st.WindowLength(), m.cfg)
	}
	bs.cover, bs.err = cv, err

	m.mu.Lock()
	if err == nil && !bs.stale {
		m.covers[c] = cv
	}
	if m.building[c] == bs {
		delete(m.building, c)
	}
	m.mu.Unlock()
	close(bs.done)
	return cv, err
}

// CoverAt returns the cover for the window containing stream time t. The
// window index is arithmetic, so a cached cover is served without reading
// the store: a hit costs one map lookup, and a primed cover over a window
// still lazy in the columnar sidecar leaves that window lazy.
func (m *Maintainer) CoverAt(t float64) (*Cover, error) {
	if t < 0 {
		return nil, fmt.Errorf("core: negative query time %v", t)
	}
	return m.CoverFor(tuple.WindowIndex(t, m.st.WindowLength()))
}

// Invalidate drops the cached cover for window c (e.g. after late tuples
// arrive for a window that was already modeled). An in-flight build for c
// is marked stale: its result still answers the callers already waiting
// on it, but it is not cached, so later CoverFor calls rebuild from the
// post-invalidation window. Invalidation hooks registered with
// OnInvalidate run afterwards, outside the maintainer lock.
func (m *Maintainer) Invalidate(c int) {
	m.mu.Lock()
	m.dropLocked(c)
	var hooks []func(c int)
	if len(m.invalHooks) > 0 {
		ids := make([]int, 0, len(m.invalHooks))
		for id := range m.invalHooks {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		hooks = make([]func(c int), len(ids))
		for i, id := range ids {
			hooks[i] = m.invalHooks[id]
		}
	}
	m.mu.Unlock()
	for _, fn := range hooks {
		fn(c)
	}
}

// OnInvalidate registers fn to run after every Invalidate(c), outside
// the maintainer lock. It fires for first-touch windows too (the engine
// invalidates every window an ingest batch lands in), so a subscriber
// sees every window whose cover is missing or outdated — the feed the
// background build scheduler drains. The returned function unregisters
// the hook.
func (m *Maintainer) OnInvalidate(fn func(c int)) (unregister func()) {
	m.mu.Lock()
	if m.invalHooks == nil {
		m.invalHooks = make(map[int]func(c int))
	}
	id := m.nextHookID
	m.nextHookID++
	m.invalHooks[id] = fn
	m.mu.Unlock()
	return func() {
		m.mu.Lock()
		delete(m.invalHooks, id)
		m.mu.Unlock()
	}
}

// dropWindows is the store eviction hook. Every cover at or below the
// newest evicted index is dropped, not just the exact evicted set: the
// store only reports windows it actually held, but the cache may hold
// primed covers for windows the store never saw, and those are equally
// behind the retention horizon once newer windows are evicted.
func (m *Maintainer) dropWindows(evicted []int) {
	horizon := evicted[len(evicted)-1] // ascending order
	m.mu.Lock()
	for c := range m.covers {
		if c <= horizon {
			m.dropLocked(c)
		}
	}
	for c, bs := range m.building {
		if c <= horizon {
			m.gens[c]++
			bs.stale = true
			delete(m.building, c)
		}
	}
	m.mu.Unlock()
}

// dropLocked removes window c's cover and stales its in-flight build.
// Caller holds m.mu. Removing the build from the map (rather than only
// flagging it) lets a CoverFor that arrives after the invalidation start
// a fresh build immediately instead of joining the stale one.
func (m *Maintainer) dropLocked(c int) {
	m.gens[c]++
	delete(m.covers, c)
	if bs, ok := m.building[c]; ok {
		bs.stale = true
		delete(m.building, c)
	}
}

// Generation returns how many times window c's cover has been dropped.
// A changed generation means any previously served value for c may be
// stale; an equal generation means the cover (built or not) is the same
// lifetime. Windows never invalidated report 0.
func (m *Maintainer) Generation(c int) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gens[c]
}

// Snapshot returns the currently cached covers keyed by window index, for
// persistence.
func (m *Maintainer) Snapshot() map[int]*Cover {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[int]*Cover, len(m.covers))
	for c, cv := range m.covers {
		out[c] = cv
	}
	return out
}

// Prime seeds the cache with previously persisted covers (warm restart).
// Existing entries for the same windows are replaced. When the store
// bounds retention, covers older than its oldest retained window are
// dropped and at most the newest Retain survive, so a warm restart never
// resurrects covers past the horizon nor holds more than Retain. A store
// with an unbounded Retain keeps everything.
func (m *Maintainer) Prime(covers map[int]*Cover) {
	retained := m.st.WindowIndexes() // ascending
	m.mu.Lock()
	defer m.mu.Unlock()
	for c, cv := range covers {
		if cv != nil && cv.Size() > 0 {
			m.covers[c] = cv
		}
	}
	r := m.st.Retain()
	if r == 0 {
		return
	}
	// Anything older than the store's oldest retained window is what a
	// running store would already have evicted — stale regardless of how
	// few covers were primed. (Eviction is count-based over the actual
	// indexes, so this holds for sparse window histories too.)
	if len(retained) > 0 {
		for c := range m.covers {
			if c < retained[0] {
				delete(m.covers, c)
			}
		}
	}
	if len(m.covers) <= r {
		return
	}
	idxs := make([]int, 0, len(m.covers))
	for c := range m.covers {
		idxs = append(idxs, c)
	}
	sort.Ints(idxs)
	for _, c := range idxs[:len(idxs)-r] {
		delete(m.covers, c)
	}
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

// CachedWindows returns the indexes of windows with cached covers.
func (m *Maintainer) CachedWindows() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int, 0, len(m.covers))
	for c := range m.covers {
		out = append(out, c)
	}
	return out
}
