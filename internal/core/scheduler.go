package core

import (
	"math"
	"sync"
	"time"
)

// SchedulerConfig tunes a Scheduler. The zero value is usable.
type SchedulerConfig struct {
	// Workers bounds concurrent background cover builds. 0 = 2; < 0
	// disables the scheduler entirely (NewScheduler returns nil and every
	// build stays on the query path).
	Workers int
}

// maxBuildQueue bounds pending builds. When full, admitting a more recent
// window drops the oldest pending one — its stale cover is hard-dropped
// and the query path builds it synchronously on demand.
const maxBuildQueue = 128

// SchedulerStats counts what the scheduler has processed.
type SchedulerStats struct {
	// Scheduled is the number of build requests admitted to the queue
	// (deduplicated: re-invalidating an already-queued window does not
	// count again).
	Scheduled int64 `json:"scheduled"`
	// Built is the number of covers built successfully in the background,
	// those of the lower windows a chained build brought up to date first
	// included.
	Built int64 `json:"built"`
	// Refitted counts the Built covers refitted from the seed their
	// window's checkpoint kept (Builder.Refit) instead of built by Ad-KMN.
	Refitted int64 `json:"refitted"`
	// Skipped counts builds abandoned because the window was empty or
	// evicted by the time a worker reached it.
	Skipped int64 `json:"skipped"`
	// Coalesced counts rebuild requests absorbed without a build of their
	// own: the window was already queued, or by the time a worker reached
	// it the cover was current or a running build already owed the
	// follow-up.
	Coalesced int64 `json:"coalesced"`
	// Failed counts background builds that errored.
	Failed int64 `json:"failed"`
	// Dropped counts pending builds displaced by queue overflow.
	Dropped int64 `json:"dropped"`
	// QueueLen is the current number of pending builds.
	QueueLen int `json:"queueLen"`
	// Inflight is the number of builds running right now.
	Inflight int `json:"inflight"`
}

// buildKey identifies one pending build: a window of one maintainer
// (one scheduler serves every pollutant shard of an engine).
type buildKey struct {
	m *Maintainer
	c int
}

// Scheduler drains maintainer invalidations into a bounded priority
// build queue worked by background goroutines, so covers readers hold are
// rebuilt off the query path: after an ingest burst the held windows are
// rebuilt most recent first, and while a rebuild is pending readers keep
// the window's previous cover (see Maintainer's cover lifecycle). A
// window nobody has read is not modeled on a write — its first reader
// builds it — so the scheduler spends CPU only on covers that serve an
// answer, and on WarmPrime's after a restart. Rebuilds are coalesced and
// single-flight: N writes to a window inside one build time cost one
// running build plus one follow-up, never a second concurrent build and
// never a worker parked on someone else's build of the same window — a
// worker waits only on the lower windows of the span its build starts
// from (cover chains). The follow-up of an overtaken build is paced —
// the worker first rests for as long as that window's build took — so
// sustained writes to one window cost a rebuild every other build time,
// not a busy core. The scheduler is what makes serving a stale cover
// legitimate, so every request it cannot honour — queue overflow or
// displacement, Close, unwatch — hard-drops that window's stale cover.
type Scheduler struct {
	maxQueue int // maxBuildQueue; tests lower it

	mu       sync.Mutex
	cond     *sync.Cond
	pending  map[buildKey]bool
	queue    []buildKey // unordered; newestLocked and oldestLocked scan it
	inflight int
	closed   bool
	stop     chan struct{} // closed by Close: ends a resting worker's pause
	wg       sync.WaitGroup

	scheduled int64
	built     int64
	refitted  int64
	skipped   int64
	coalesced int64
	failed    int64
	dropped   int64

	// testSettled, when set (by tests in this package before any build is
	// queued), runs after a worker has finished with a request — built,
	// coalesced or skipped — and stopped counting it in flight.
	testSettled func()
	// testHold, when set (by tests in this package before any build is
	// queued), runs after a worker has taken a request and before it
	// builds: a test that blocks in it holds every scheduled build back.
	testHold func()
}

// NewScheduler starts a scheduler with cfg.Workers background builders.
// A cfg.Workers < 0 returns nil: every method of a nil *Scheduler is
// safe and turns the scheduler into a no-op, so callers thread one
// handle regardless of configuration.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	if cfg.Workers < 0 {
		return nil
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	s := &Scheduler{
		maxQueue: maxBuildQueue,
		pending:  make(map[buildKey]bool),
		stop:     make(chan struct{}), //bounded: stop latch; closed by Close, never sent on
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Watch makes the scheduler m's revalidator: every invalidated window a
// reader holds is queued for a background rebuild, and m serves the
// window's previous cover until it lands; a write into a window nobody
// has read queues nothing. The returned function detaches it again — m's
// queued rebuilds are forgotten, its stale covers hard-dropped, and its
// later invalidations hard-drop.
func (s *Scheduler) Watch(m *Maintainer) (unwatch func()) {
	if s == nil {
		return func() {}
	}
	m.setScheduler(s)
	return func() {
		m.setScheduler(nil)
		s.forget(m, math.MinInt, math.MaxInt)
	}
}

// forget removes m's pending builds of the windows in [lo, hi) from the
// queue. Safe on nil.
func (s *Scheduler) forget(m *Maintainer, lo, hi int) {
	if s == nil || lo >= hi {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.queue[:0]
	for _, key := range s.queue {
		if key.m == m && lo <= key.c && key.c < hi {
			delete(s.pending, key)
		} else {
			kept = append(kept, key)
		}
	}
	s.queue = kept
	if len(s.queue) == 0 && s.inflight == 0 {
		s.cond.Broadcast() // wake Wait()ers
	}
}

// Schedule queues a background build of window c on maintainer m,
// whether or not a reader holds it — WarmPrime's path; a write's rebuilds
// are queued by Maintainer.Invalidate, for held windows only. Duplicates of an already-pending build are absorbed. When the queue is
// full, the oldest pending window is dropped if c is more recent —
// otherwise the request itself is dropped. Whichever window loses its
// rebuild (also every request to a closed scheduler) has its stale cover
// hard-dropped, so the query path rebuilds it on demand.
func (s *Scheduler) Schedule(m *Maintainer, c int) {
	if s == nil {
		return
	}
	if refused, ok := s.admit(buildKey{m: m, c: c}); ok {
		refused.m.dropStale(refused.c)
	}
}

// admit queues key, reporting the request that lost its rebuild doing so
// (key itself, or the pending build it displaced), if any.
func (s *Scheduler) admit(key buildKey) (refused buildKey, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return key, true
	}
	if s.pending[key] {
		s.coalesced++
		return buildKey{}, false
	}
	if len(s.queue) >= s.maxQueue {
		oldest := s.oldestLocked()
		s.dropped++
		if oldest < 0 || s.queue[oldest].c >= key.c {
			return key, true
		}
		refused, ok = s.takeLocked(oldest), true
	}
	s.pending[key] = true
	s.queue = append(s.queue, key)
	s.scheduled++
	// Broadcast, not Signal: the one awoken waiter could be a Wait()er,
	// which would go straight back to sleep while every worker slept on.
	s.cond.Broadcast()
	return refused, ok
}

// WarmPrime queues a background build for every retained window of m
// that has no cover yet, returning how many were queued. After a
// restart this turns recovery into a warm start: every recovered window
// — checkpointed or replayed from the segment suffix — is modeled off the
// query path before anyone asks, most recent first — the same priority
// fresh ingest gets; the most recent window's build brings the lower
// windows of its span up to date first, which the worker counts as its
// own builds. A window whose tuples and predecessor's centroids are
// exactly what its checkpoint holds is refitted from the seed the checkpoint kept, a
// fraction of a build; the others run Ad-KMN. A nil scheduler primes
// nothing.
func (s *Scheduler) WarmPrime(m *Maintainer) int {
	if s == nil || m == nil {
		return 0
	}
	missing := m.MissingCovers()
	for _, c := range missing {
		s.Schedule(m, c)
	}
	return len(missing)
}

// newestLocked returns the index of the pending build of the most recent
// stream-time window — the one fresh ingest (and therefore fresh
// queries) is hitting, which builds first. The queue is a plain slice, so
// queueing and taking a build box nothing, and a linear scan is fine at
// maxBuildQueue scale. Caller holds mu and has checked the queue is not
// empty.
func (s *Scheduler) newestLocked() int {
	newest := 0
	for i := 1; i < len(s.queue); i++ {
		if s.queue[i].c > s.queue[newest].c {
			newest = i
		}
	}
	return newest
}

// oldestLocked returns the index of the lowest-priority (oldest window)
// pending build, or -1 on an empty queue. Caller holds mu.
func (s *Scheduler) oldestLocked() int {
	if len(s.queue) == 0 {
		return -1
	}
	oldest := 0
	for i := 1; i < len(s.queue); i++ {
		if s.queue[i].c < s.queue[oldest].c {
			oldest = i
		}
	}
	return oldest
}

// takeLocked removes the pending build at index i and returns it. Caller
// holds mu.
func (s *Scheduler) takeLocked(i int) buildKey {
	key := s.queue[i]
	last := len(s.queue) - 1
	s.queue[i] = s.queue[last]
	s.queue = s.queue[:last]
	delete(s.pending, key)
	return key
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	rest := time.NewTimer(time.Hour) // the worker's one timer for its rests (see build)
	rest.Stop()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		key := s.takeLocked(s.newestLocked())
		s.inflight++
		s.mu.Unlock()

		if s.testHold != nil {
			s.testHold()
		}
		s.build(key, rest)

		s.mu.Lock()
		s.inflight--
		if len(s.queue) == 0 && s.inflight == 0 {
			s.cond.Broadcast() // wake Wait()ers
		}
		s.mu.Unlock()
		if s.testSettled != nil {
			s.testSettled()
		}
	}
}

// build performs one background refresh, classifying the outcome. When
// the refresh was overtaken by a write the worker still owes the window
// one follow-up: it rests first (see Maintainer.refresh) — counted as in
// flight, so Wait keeps waiting and Close cuts the rest short — and then
// requests it like any other rebuild. The rest runs on timer, the
// worker's own, restarted with Reset: a rest allocates nothing.
func (s *Scheduler) build(key buildKey, timer *time.Timer) {
	var t buildTally
	rest := key.m.refresh(key.c, &t)
	s.mu.Lock()
	s.built += t.built
	s.refitted += t.refitted
	s.failed += t.failed
	s.skipped += t.skipped
	s.coalesced += t.coalesced
	s.mu.Unlock()
	if rest > 0 {
		// A rest ends with its tick read, or with Close, after which the
		// worker rests no more: no stale tick waits in timer.C.
		timer.Reset(rest)
		select {
		case <-timer.C:
		case <-s.stop:
			timer.Stop()
		}
		key.m.revalidate(key.c)
	}
}

// Wait blocks until the scheduler is idle: no pending and no in-flight
// builds. Builds scheduled while waiting extend the wait. A nil or
// closed scheduler is idle.
func (s *Scheduler) Wait() {
	if s == nil {
		return
	}
	s.mu.Lock()
	for (len(s.queue) > 0 || s.inflight > 0) && !s.closed {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// Stats returns a snapshot of the scheduler counters.
func (s *Scheduler) Stats() SchedulerStats {
	if s == nil {
		return SchedulerStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return SchedulerStats{
		Scheduled: s.scheduled,
		Built:     s.built,
		Refitted:  s.refitted,
		Skipped:   s.skipped,
		Coalesced: s.coalesced,
		Failed:    s.failed,
		Dropped:   s.dropped,
		QueueLen:  len(s.queue),
		Inflight:  s.inflight,
	}
}

// Close discards pending builds — hard-dropping the stale covers that
// were waiting for them — stops the workers, and waits for any in-flight
// builds to finish. Safe to call twice and on nil.
func (s *Scheduler) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.stop)
	discarded := s.queue
	s.queue = nil
	s.pending = make(map[buildKey]bool)
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, key := range discarded {
		key.m.dropStale(key.c)
	}
	s.wg.Wait()
}
