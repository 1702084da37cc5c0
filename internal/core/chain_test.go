package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/colblock"
	"repro/internal/geo"
	"repro/internal/store"
	"repro/internal/tuple"
)

// chainRef is one window's entry in a reference chain: its chain cover,
// the Config word a checkpoint seed of that cover carries, and whether its
// build started warm.
type chainRef struct {
	cv   *Cover
	word uint64
	warm bool
}

// referenceChain builds the chain covers of the windows at idxs
// (ascending; window(c) returns window c's tuples, sorted by time as a
// store returns them) from scratch, each by a fresh Builder from its
// predecessor's cover — cold at an anchor and after an empty window: what
// a quiescent maintainer over those windows serves, and the words its
// checkpoint seeds carry.
func referenceChain(t testing.TB, window func(int) tuple.Batch, idxs []int, h float64, cfg Config) map[int]chainRef {
	t.Helper()
	cfg = cfg.withDefaults()
	fp := cfg.fingerprint()
	ref := make(map[int]chainRef, len(idxs))
	for _, c := range idxs {
		w := window(c)
		if len(w) == 0 {
			continue
		}
		prev := ref[c-1].cv
		cv, err := new(Builder).BuildFrom(w, c, h, cfg, prev)
		if err != nil {
			t.Fatalf("chain cover of window %d: %v", c, err)
		}
		var b Builder
		warm := b.warmStart(b.positions(w), c, cfg, prev) != nil
		ref[c] = chainRef{cv: cv, word: chainWord(fp, c, prev), warm: warm}
	}
	return ref
}

// TestBuildFromStartsCold: BuildFrom is BuildCover, bit for bit, at a
// chain's anchor, without a predecessor, and when fewer than InitialK of
// the predecessor's centroids win enough tuples; otherwise it starts from
// the survivors and gives another cover.
func TestBuildFromStartsCold(t *testing.T) {
	ws := lausanneWindows()
	prev, err := BuildCover(ws[0], 0, 3600, lausanneConfig)
	if err != nil {
		t.Fatal(err)
	}
	// Moved far off, one centroid of prev wins every tuple: one survivor.
	gone := *prev
	gone.Centroids = slices.Clone(prev.Centroids)
	for j := range gone.Centroids {
		gone.Centroids[j].X += 1e7 * float64(j+1)
	}
	for _, tc := range []struct {
		name string
		c    int
		prev *Cover
	}{{"anchor", chainSpan, prev}, {"no predecessor", 1, nil}, {"one survivor", 1, &gone}} {
		got, err := new(Builder).BuildFrom(ws[1], tc.c, 3600, lausanneConfig, tc.prev)
		if err != nil {
			t.Fatal(err)
		}
		want, err := BuildCover(ws[1], tc.c, 3600, lausanneConfig)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: BuildFrom gave %d regions in %d rounds, BuildCover %d in %d", tc.name, got.Size(), got.Rounds, want.Size(), want.Rounds)
		}
	}
	warm, err := new(Builder).BuildFrom(ws[1], 1, 3600, lausanneConfig, prev)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := BuildCover(ws[1], 1, 3600, lausanneConfig)
	if err != nil {
		t.Fatal(err)
	}
	if coverDigest(warm) == coverDigest(cold) {
		t.Error("a warm start from window 0's cover gave window 1 its cold cover")
	}
}

// TestRefitMatchesBuildFrom is TestRefitMatchesBuild's twin for warm
// covers: a cover BuildFrom started from its predecessor's centroids,
// refitted from its own seed, is the cover the build gave, bit for bit —
// along the fleet's chain of 24 windows, along the chain of each third of
// them, and on windows whose points repeat or line up, started from the
// cover of another window on the same points. At least one warm build
// must drop an empty region and one keep a one-tuple region.
func TestRefitMatchesBuildFrom(t *testing.T) {
	var warmBuilds int
	anyDropped, anySingle := false, false
	note := func(warm, dropped bool, smallest int32) {
		if warm {
			warmBuilds++
			anyDropped = anyDropped || dropped
			anySingle = anySingle || smallest == 1
		}
	}
	var prev *Cover
	var prevThirds [3]*Cover
	for c, w := range lausanneWindows() {
		note(requireRefitIsBuild(t, fmt.Sprintf("hour%02d", c), w, c, 3600, lausanneConfig, prev))
		var err error
		if prev, err = new(Builder).BuildFrom(w, c, 3600, lausanneConfig, prev); err != nil {
			t.Fatal(err)
		}
		lo, hi := w[0].X, w[0].X
		for _, r := range w {
			lo, hi = min(lo, r.X), max(hi, r.X)
		}
		var thirds [3]tuple.Batch
		for _, r := range w {
			i := min(int(3*(r.X-lo)/(hi-lo)), 2)
			thirds[i] = append(thirds[i], r)
		}
		for i, part := range thirds {
			if len(part) == 0 {
				prevThirds[i] = nil
				continue
			}
			name := fmt.Sprintf("hour%02d/third%d", c, i)
			note(requireRefitIsBuild(t, name, part, c, 3600, lausanneConfig, prevThirds[i]))
			var err error
			if prevThirds[i], err = new(Builder).BuildFrom(part, c, 3600, lausanneConfig, prevThirds[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm builds drop a region rarely: seeds 67, 85 and 89 do.
	for seed := int64(1); seed <= 96; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{InitialK: 1 + rng.Intn(3), MaxK: 4 + rng.Intn(40), ErrThreshold: 0.005, MinRegionTuples: 1 + rng.Intn(4), Cluster: clusterSeed(seed)}
		for _, shape := range []struct {
			name string
			make func(*rand.Rand, int) tuple.Batch
		}{{"duplicated", duplicatedWindow}, {"collinear", collinearWindow}} {
			first := shape.make(rng, 40+rng.Intn(300))
			prev, err := BuildCover(first, 0, 1000, cfg)
			if err != nil {
				t.Fatal(err)
			}
			w := resampled(rng, first, 40+rng.Intn(300))
			note(requireRefitIsBuild(t, fmt.Sprintf("%s/%d", shape.name, seed), w, 1, 1000, cfg, prev))
		}
	}
	if warmBuilds < 20 || !anyDropped || !anySingle {
		t.Errorf("%d warm builds; one dropped an empty region: %v, one kept a one-tuple region: %v", warmBuilds, anyDropped, anySingle)
	}
}

// resampled returns n tuples at positions of w's, drawn at random, with
// times of the next window and values of their own.
func resampled(rng *rand.Rand, w tuple.Batch, n int) tuple.Batch {
	out := make(tuple.Batch, n)
	for i := range out {
		r := w[rng.Intn(len(w))]
		out[i] = tuple.Raw{T: 1000 + float64(i)*1000/float64(n), X: r.X, Y: r.Y, S: r.S + 20*rng.NormFloat64()}
	}
	return out
}

// prevChainCover returns the chain cover of the fleet's window c−1.
func prevChainCover(t *testing.T, c int) *Cover {
	t.Helper()
	ws := lausanneWindows()
	return referenceChain(t, func(i int) tuple.Batch { return ws[i] }, indexes(c), 3600, lausanneConfig)[c-1].cv
}

// TestWarmBuilderBuildFromAllocatesOnlyTheCover is
// TestWarmBuilderAllocatesOnlyTheCover for a warm start: the prune keeps
// its arrays in the Builder, so a chained build allocates the cover's
// four objects and nothing else.
func TestWarmBuilderBuildFromAllocatesOnlyTheCover(t *testing.T) {
	ws := lausanneWindows()
	prev := prevChainCover(t, 2)
	var b Builder
	if b.warmStart(b.positions(ws[2]), 2, lausanneConfig.withDefaults(), prev) == nil {
		t.Fatal("window 2 starts cold: the test no longer sees a warm start")
	}
	if _, err := b.BuildFrom(ws[2], 2, 3600, lausanneConfig, prev); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := b.BuildFrom(ws[2], 2, 3600, lausanneConfig, prev); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 4 {
		t.Errorf("a chained build on a warm Builder = %.0f allocs, want the cover's 4", allocs)
	}
}

// chainCfg is the configuration of the chain property test: small
// regions, so its windows of a few hundred tuples start warm.
var chainCfg = Config{ErrThreshold: 0.04, MinRegionTuples: 8}

const chainWindowLen = 100.0

// chainWindow returns n tuples of window c along three fixed corridors,
// under a field that drifts slowly from window to window, so consecutive
// windows' covers resemble each other and a chained build starts warm.
func chainWindow(rng *rand.Rand, c, n int) tuple.Batch {
	corridors := [...][2]geo.Point{
		{{X: 0, Y: 0}, {X: 2000, Y: 400}},
		{{X: 300, Y: 1800}, {X: 1700, Y: 200}},
		{{X: 1000, Y: 0}, {X: 1200, Y: 2000}},
	}
	w := make(tuple.Batch, n)
	for i := range w {
		l := corridors[rng.Intn(len(corridors))]
		f := rng.Float64()
		x := l[0].X + f*(l[1].X-l[0].X) + 5*rng.NormFloat64()
		y := l[0].Y + f*(l[1].Y-l[0].Y) + 5*rng.NormFloat64()
		w[i] = tuple.Raw{
			T: (float64(c) + rng.Float64()) * chainWindowLen,
			X: x, Y: y,
			S: 450 + 80*math.Sin(x/300+float64(c)/10) + 60*math.Cos(y/400) + 4*rng.NormFloat64(),
		}
	}
	return w
}

// chainRig is one seeded history of the chain property test: a durable
// store (retention-bounded on odd seeds) under a maintainer and a
// two-worker scheduler, restarted now and then on its data directory.
type chainRig struct {
	t    *testing.T
	seed int64
	rng  *rand.Rand
	dir  string
	cfg  store.Config

	st    *store.Store
	m     *Maintainer
	sched *Scheduler

	next int // the next window an in-order append opens

	// primed holds the windows the last WarmPrime queued until the
	// scheduler next goes idle: the only windows nobody holds that may
	// have a build queued.
	primed []int

	// What the history exercised: reference covers seen starting warm and
	// cold after the anchor, restarts whose refits were checked, those
	// with a late tuple in the WAL tail and those with a corrupted seed,
	// and evictions.
	warm, cold, restarts, walLate, corrupted, unheldWrites int
	evicts                                                 bool
}

func (r *chainRig) fail(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("seed %d: %s", r.seed, fmt.Sprintf(format, args...))
}

// open opens the store on the rig's directory under a fresh maintainer
// and scheduler, recording which windows a build refits.
func (r *chainRig) open() (refitted func() []int) {
	st, err := store.Open(r.cfg)
	if err != nil {
		r.fail("open: %v", err)
	}
	r.st, r.m, r.sched = st, NewMaintainer(st, chainCfg), NewScheduler(SchedulerConfig{Workers: 2})
	r.sched.Watch(r.m)
	var mu sync.Mutex
	var got []int
	r.m.testRefitHook = func(c int, _ tuple.Batch, _ colblock.Seed) {
		mu.Lock()
		got = append(got, c)
		mu.Unlock()
	}
	return func() []int {
		mu.Lock()
		defer mu.Unlock()
		return slices.Sorted(slices.Values(got))
	}
}

func (r *chainRig) close() {
	r.sched.Close()
	r.m.Close()
	if err := r.st.Close(); err != nil {
		r.fail("close: %v", err)
	}
}

// write appends tuples to window c and invalidates it, as the engine's
// ingest sink does.
func (r *chainRig) write(c int, b tuple.Batch) {
	before := r.st.WindowIndexes()
	if err := r.st.Append(b); err != nil {
		r.fail("append: %v", err)
	}
	if len(before) > 0 && !slices.Contains(r.st.WindowIndexes(), before[0]) {
		r.evicts = true // eviction drops the oldest window first
	}
	if r.st.WindowLen(c) > 0 {
		r.m.Invalidate(c)
	}
	if w, ok := unheldQueued(r.m, r.sched, func(c int) bool { return slices.Contains(r.primed, c) }); ok {
		r.fail("window %d has a build queued but nobody holds it, and WarmPrime did not queue it", w)
	}
}

// unheld returns a retained window nobody holds — no cover cached, no
// build in flight — if there is one.
func (r *chainRig) unheld() (int, bool) {
	var cs []int
	r.m.mu.Lock()
	for _, c := range r.st.WindowIndexes() {
		if !r.m.heldLocked(c) {
			cs = append(cs, c)
		}
	}
	r.m.mu.Unlock()
	if len(cs) == 0 {
		return 0, false
	}
	return cs[r.rng.Intn(len(cs))], true
}

// late returns a few tuples for window c, some far off its corridors.
func (r *chainRig) late(c int) tuple.Batch {
	b := chainWindow(r.rng, c, 1+r.rng.Intn(12))
	for i := range b {
		if r.rng.Intn(2) == 0 {
			b[i].S += 150
		}
	}
	return b
}

// reference returns the chain the rig's store must be served from now.
func (r *chainRig) reference() map[int]chainRef {
	ref := referenceChain(r.t, r.st.Window, r.st.WindowIndexes(), chainWindowLen, chainCfg)
	for c, e := range ref {
		switch {
		case e.warm:
			r.warm++
		case chainOffset(c) != 0:
			r.cold++
		}
	}
	return ref
}

// check waits for the scheduler and requires every cached cover to be
// current and equal to the reference chain, and every window's read to
// be it.
func (r *chainRig) check(label string) {
	r.t.Helper()
	r.sched.Wait()
	r.primed = nil
	ref := r.reference()
	r.m.mu.Lock()
	for c, e := range r.m.covers {
		want, ok := ref[c]
		switch {
		case !ok:
			r.m.mu.Unlock()
			r.fail("%s: window %d, which holds no tuples, has a cover", label, c)
		case e.gen != r.m.gens[c]:
			r.m.mu.Unlock()
			r.fail("%s: window %d is cached stale after the scheduler went idle", label, c)
		case coverDigest(e.cv) != coverDigest(want.cv) || e.word != want.word:
			r.m.mu.Unlock()
			r.fail("%s: window %d is cached as %s (word %x), its chain cover is %s (word %x)",
				label, c, coverDigest(e.cv), e.word, coverDigest(want.cv), want.word)
		}
	}
	r.m.mu.Unlock()
	for _, c := range r.st.WindowIndexes() {
		cv, err := r.m.CoverFor(c)
		if err != nil {
			r.fail("%s: read window %d: %v", label, c, err)
		}
		if coverDigest(cv) != coverDigest(ref[c].cv) {
			r.fail("%s: window %d reads %s, its chain cover is %s", label, c, coverDigest(cv), coverDigest(ref[c].cv))
		}
	}
}

// restart closes the rig and opens it again on its directory, first
// adding a late tuple to a window's predecessor past the checkpoint (the
// WAL tail) or corrupting one window's seed in the checkpoint file, as
// the history draws. It primes every window and requires the refits to be
// exactly the windows whose chain inputs the restart left unchanged: a
// seed that reads back sound, counts the window's tuples and carries the
// word of the reference chain's start.
func (r *chainRig) restart() {
	idxs := r.st.WindowIndexes()
	switch op := r.rng.Intn(3); {
	case op == 0 && len(idxs) > 1:
		c := idxs[r.rng.Intn(len(idxs)-1)]
		r.write(c, r.late(c)[:1])
		r.walLate++
	case op == 1:
		r.close()
		if r.corruptSeed(idxs) {
			r.corrupted++
		}
		r.reopen()
		return
	}
	r.close()
	r.reopen()
}

func (r *chainRig) reopen() {
	refitted := r.open()
	ref := r.reference()
	var want []int
	for _, c := range r.st.WindowIndexes() {
		if _, sd, ok := r.st.WindowSeedInto(nil, c); ok && sd.Count == r.st.WindowLen(c) && sd.Config == ref[c].word {
			want = append(want, c)
		}
	}
	r.primed = r.m.MissingCovers()
	r.sched.WarmPrime(r.m)
	r.check("after a restart")
	if got := refitted(); !slices.Equal(got, want) {
		r.fail("a restart refitted windows %v, want exactly %v (those whose chain inputs are unchanged)", got, want)
	}
	if st := r.sched.Stats(); st.Refitted != int64(len(want)) {
		r.fail("a restart counted %d refits, want %d", st.Refitted, len(want))
	}
	r.restarts++
}

// corruptSeed flips a bit of one window's seed record in the newest
// checkpoint file: found, as TestBadSeedBuildsInFull finds it, by the
// first centroid of the window's chain cover. It reports whether it found
// one.
func (r *chainRig) corruptSeed(idxs []int) bool {
	names, err := filepath.Glob(filepath.Join(r.dir, "checkpoint-*.emc"))
	if err != nil || len(names) == 0 {
		return false
	}
	name := slices.Max(names)
	data, err := os.ReadFile(name)
	if err != nil {
		r.fail("read checkpoint: %v", err)
	}
	st, err := store.Open(r.cfg)
	if err != nil {
		r.fail("open: %v", err)
	}
	ref := referenceChain(r.t, st.Window, st.WindowIndexes(), chainWindowLen, chainCfg)
	st.Close()
	for _, i := range r.rng.Perm(len(idxs)) {
		cv := ref[idxs[i]].cv
		if cv == nil {
			continue
		}
		var pattern [16]byte
		binary.LittleEndian.PutUint64(pattern[0:], math.Float64bits(cv.Centroids[0].X))
		binary.LittleEndian.PutUint64(pattern[8:], math.Float64bits(cv.Centroids[0].Y))
		if at := bytes.Index(data, pattern[:]); at >= 0 && bytes.Count(data, pattern[:]) == 1 {
			data[at+3] ^= 0x20
			if err := os.WriteFile(name, data, 0o644); err != nil {
				r.fail("write checkpoint: %v", err)
			}
			return true
		}
	}
	return false
}

// TestCoverChainProperty drives seeded histories of in-order appends,
// late writes into any earlier window of a span (across an anchor too)
// and into windows nobody has read, eviction under a retention bound,
// checkpoints, restarts whose WAL tail adds a late tuple to a
// predecessor, and corrupted seeds. After every write no window nobody
// holds may have a build queued, unless WarmPrime queued it. Whenever
// the scheduler is idle every cached cover must be its chain cover, built
// from scratch over the store's present windows, and a restart must refit
// exactly the windows whose chain inputs are unchanged. A failure names
// its seed.
func TestCoverChainProperty(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	var total chainRig
	for seed := int64(1); seed <= int64(seeds); seed++ {
		r := &chainRig{t: t, seed: seed, rng: rand.New(rand.NewSource(seed)), dir: t.TempDir()}
		r.cfg = store.Config{WindowLength: chainWindowLen, Dir: r.dir, Sync: store.SyncNever()}
		if seed%2 == 1 {
			r.cfg.Retain = 5
		}
		// The history starts a few windows before an anchor, so late
		// writes land on both sides of it.
		r.next = chainSpan - 3
		r.open()
		for step := 0; step < 40; step++ {
			switch op := r.rng.Intn(100); {
			case op < 35 || r.next == chainSpan-3:
				c := r.next
				r.next++
				r.write(c, chainWindow(r.rng, c, 150+r.rng.Intn(200)))
			case op < 52:
				idxs := r.st.WindowIndexes()
				c := idxs[r.rng.Intn(len(idxs))]
				r.write(c, r.late(c))
			case op < 60: // a late write into a window nobody has read
				if c, ok := r.unheld(); ok {
					r.write(c, r.late(c))
					r.unheldWrites++
				}
			case op < 70:
				idxs := r.st.WindowIndexes()
				if _, err := r.m.CoverFor(idxs[r.rng.Intn(len(idxs))]); err != nil {
					r.fail("read: %v", err)
				}
			case op < 82:
				r.check(fmt.Sprintf("step %d", step))
			case op < 92:
				r.sched.Wait()
				if err := r.st.Checkpoint(); err != nil {
					r.fail("checkpoint: %v", err)
				}
			default:
				r.sched.Wait()
				if err := r.st.Checkpoint(); err != nil {
					r.fail("checkpoint: %v", err)
				}
				r.restart()
			}
		}
		r.check("end of history")
		r.close()
		total.warm, total.cold, total.restarts = total.warm+r.warm, total.cold+r.cold, total.restarts+r.restarts
		total.walLate, total.corrupted = total.walLate+r.walLate, total.corrupted+r.corrupted
		total.unheldWrites += r.unheldWrites
		total.evicts = total.evicts || r.evicts
	}
	t.Logf("%d warm and %d mid-span cold chain covers checked, %d restarts (%d with a late WAL tuple, %d with a corrupted seed), %d late writes into windows nobody had read, eviction %v",
		total.warm, total.cold, total.restarts, total.walLate, total.corrupted, total.unheldWrites, total.evicts)
	if total.warm == 0 || total.cold == 0 || total.walLate == 0 || total.corrupted == 0 || total.unheldWrites == 0 || !total.evicts {
		t.Error("the histories did not exercise every case")
	}
}

// TestEvictionDropsChainedCovers: when eviction takes window e, window
// e+1 keeps serving its cover while the scheduler rebuilds it cold, and
// the covers chained after it are dropped — the change hooks run for each
// — to be rebuilt by their next read from e+1's new cover.
func TestEvictionDropsChainedCovers(t *testing.T) {
	const windows = 6
	st, err := store.Open(store.Config{WindowLength: chainWindowLen, Retain: windows})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m := NewMaintainer(st, chainCfg)
	defer m.Close()
	sched := NewScheduler(SchedulerConfig{Workers: 1})
	defer sched.Close()
	sched.Watch(m)
	rng := rand.New(rand.NewSource(3))
	for c := range windows {
		if err := st.Append(chainWindow(rng, c, 250)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.CoverFor(windows - 1); err != nil { // builds the whole chain
		t.Fatal(err)
	}
	var mu sync.Mutex
	var changed []int
	m.OnChange(func(c int) {
		mu.Lock()
		changed = append(changed, c)
		mu.Unlock()
	})
	if err := st.Append(chainWindow(rng, windows, 250)); err != nil {
		t.Fatal(err)
	}
	if slices.Contains(st.WindowIndexes(), 0) {
		t.Fatal("window 0 was not evicted")
	}
	cached := m.CachedWindows()
	if !slices.Contains(cached, 1) {
		t.Error("window 1 lost its cover: it is served until its rebuild lands")
	}
	mu.Lock()
	for c := 2; c < windows; c++ {
		if slices.Contains(cached, c) {
			t.Errorf("window %d, chained after the evicted window's successor, still has a cover", c)
		}
		if !slices.Contains(changed, c) {
			t.Errorf("window %d's cover was dropped without running the change hooks", c)
		}
	}
	mu.Unlock()

	sched.Wait()
	ref := referenceChain(t, st.Window, st.WindowIndexes(), chainWindowLen, chainCfg)
	if ref[1].warm || !ref[2].warm {
		t.Fatalf("window 1's chain cover starts warm %v, window 2's %v: want cold, then warm", ref[1].warm, ref[2].warm)
	}
	for _, c := range st.WindowIndexes() {
		cv, err := m.CoverFor(c)
		if err != nil {
			t.Fatal(err)
		}
		if coverDigest(cv) != coverDigest(ref[c].cv) {
			t.Errorf("window %d reads %s, its chain cover is %s", c, coverDigest(cv), coverDigest(ref[c].cv))
		}
	}
}
