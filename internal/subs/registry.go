package subs

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/query"
	"repro/internal/tuple"
)

// Registry bounds. They limit what clients may ask of a node, so they
// are fixed rather than configured.
const (
	// queueDepth is the per-subscription push-queue capacity in events.
	// When a slow consumer lets the queue fill, the oldest event is
	// dropped and the next delivery becomes a full resync.
	queueDepth = 16
	// MaxSubs bounds live subscriptions per registry.
	MaxSubs = 1024
	// MaxPoints bounds the point set of one subscription. It must stay
	// ≤ 65535: push frames index points with 16 bits.
	MaxPoints = 2048
	// workers is the number of re-evaluation workers.
	workers = 2
)

// ErrTooManySubs is returned when the registry's subscription bound is
// reached.
var ErrTooManySubs = errors.New("subs: too many subscriptions")

// ErrTooManyPoints is returned for a point set over MaxPoints.
var ErrTooManyPoints = errors.New("subs: too many points")

// Evaluator answers a batch of point queries for one pollutant. The
// engine's cover-backed batch path satisfies it; evaluating through the
// cover means a re-evaluation triggered by an invalidation implicitly
// joins (or performs) the rebuild of the dropped cover.
type Evaluator func(ctx context.Context, pol tuple.Pollutant, reqs []query.Request) ([]query.BatchResult, error)

// WindowFunc resolves the window length (seconds) for a pollutant, so
// the registry can bind each subscribed point to the window index its
// cover lives under. It returns an error for unserved pollutants.
type WindowFunc func(pol tuple.Pollutant) (float64, error)

// Stats are the registry's lifetime counters. They are the evidence the
// acceptance tests and the closed-loop benchmark lean on: ReEvals and
// PointReEvals must stay flat across ingests that overlap no
// subscription, and Avoided counts the naive re-evaluations (every
// invalidation x every live subscription) that the window index made
// unnecessary.
type Stats struct {
	Active        int   `json:"active"`
	Subscribed    int64 `json:"subscribed"`
	Closed        int64 `json:"closed"`
	Invalidations int64 `json:"invalidations"`
	Matches       int64 `json:"matches"`
	Avoided       int64 `json:"avoided"`
	ReEvals       int64 `json:"reEvals"`
	PointReEvals  int64 `json:"pointReEvals"`
	Pushes        int64 `json:"pushes"`
	DeltaPoints   int64 `json:"deltaPoints"`
	Dropped       int64 `json:"dropped"`
	Resyncs       int64 `json:"resyncs"`
}

// winKey addresses one (pollutant, window) slot of the overlap index.
type winKey struct {
	pol tuple.Pollutant
	c   int
}

// plan is one live local subscription's evaluation plan: the point set
// with each point bound to its window index, and the feed its values are
// pushed to.
type plan struct {
	pol     tuple.Pollutant
	points  []query.Request
	windows []int // windows[i] is the window index of points[i]
	feed    *Feed

	// Guarded by the registry's mu (shared with the invalidation hook,
	// which must never block the ingest path on per-subscription locks).
	dirty  map[int]struct{}
	queued bool
}

// Registry owns every local subscription of one engine. It hooks the
// maintainers' invalidation stream: an invalidated (pollutant, window)
// is looked up in the overlap index, matching subscriptions are marked
// dirty and queued, and worker goroutines re-evaluate only the dirty
// points before pushing deltas. Invalidations overlapping no
// subscription cost one map lookup and no evaluation.
type Registry struct {
	maxSubs int // MaxSubs; tests lower it
	eval    Evaluator
	winOf   WindowFunc
	ctx     context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	work     *sync.Cond // signaled when queue gains work or on close
	quiet    *sync.Cond // signaled when queue drains and workers idle
	subs     map[*plan]struct{}
	byWindow map[winKey]map[*plan]struct{}
	queue    []*plan
	inflight int
	nextID   uint64
	closed   bool
	wg       sync.WaitGroup

	// Lifetime counters (guarded by mu). done accumulates the feed
	// counters of closed subscriptions.
	subscribed, closedCount         int64
	invalidations, matches, avoided int64
	reEvals, pointReEvals           int64
	done                            feedCounters
}

// NewRegistry builds a registry and starts its workers. eval answers
// point batches; winOf binds points to window indexes.
func NewRegistry(eval Evaluator, winOf WindowFunc) *Registry {
	//ctxcheck:allow the registry owns its workers' lifetime; Close cancels this context
	ctx, cancel := context.WithCancel(context.Background())
	r := &Registry{
		maxSubs:  MaxSubs,
		eval:     eval,
		winOf:    winOf,
		ctx:      ctx,
		cancel:   cancel,
		subs:     make(map[*plan]struct{}),
		byWindow: make(map[winKey]map[*plan]struct{}),
	}
	r.work = sync.NewCond(&r.mu)
	r.quiet = sync.NewCond(&r.mu)
	for i := 0; i < workers; i++ {
		r.wg.Add(1)
		go r.worker()
	}
	return r
}

// Subscribe registers a point set for pol, evaluates the initial value
// vector, and returns the subscription's feed with its first event — a
// full resync, sequence 1 — already queued. Closing the feed ends the
// subscription.
func (r *Registry) Subscribe(ctx context.Context, pol tuple.Pollutant, points []query.Request) (*Feed, error) {
	if len(points) == 0 {
		return nil, errors.New("subs: empty point set")
	}
	if len(points) > MaxPoints {
		return nil, fmt.Errorf("%w: %d exceeds the %d-point bound", ErrTooManyPoints, len(points), MaxPoints)
	}
	wlen, err := r.winOf(pol)
	if err != nil {
		return nil, err
	}
	reqs := make([]query.Request, len(points))
	windows := make([]int, len(points))
	for i, p := range points {
		p.Pollutant = pol
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("subs: point %d: %w", i, err)
		}
		reqs[i] = p
		windows[i] = tuple.WindowIndex(p.T, wlen)
	}
	initial, err := r.eval(ctx, pol, reqs)
	if err != nil {
		return nil, err
	}

	s := &plan{pol: pol, points: reqs, windows: windows, dirty: make(map[int]struct{})}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	if len(r.subs) >= r.maxSubs {
		r.mu.Unlock()
		return nil, ErrTooManySubs
	}
	r.nextID++
	id := r.nextID
	s.feed = NewFeed(id, len(reqs), func() { r.remove(s) })
	r.subs[s] = struct{}{}
	for _, c := range windows {
		k := winKey{pol, c}
		set := r.byWindow[k]
		if set == nil {
			set = make(map[*plan]struct{})
			r.byWindow[k] = set
		}
		set[s] = struct{}{}
	}
	r.subscribed++
	r.mu.Unlock()

	s.feed.Prime(resultPoints(nil, initial))
	return s.feed, nil
}

// remove drops s from the index (idempotent; runs from Feed.Close).
func (r *Registry) remove(s *plan) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.subs[s]; !ok {
		return
	}
	delete(r.subs, s)
	for _, c := range s.windows {
		k := winKey{s.pol, c}
		if set := r.byWindow[k]; set != nil {
			delete(set, s)
			if len(set) == 0 {
				delete(r.byWindow, k)
			}
		}
	}
	ctr := s.feed.counters()
	r.done.Pushes += ctr.Pushes
	r.done.DeltaPoints += ctr.DeltaPoints
	r.done.Dropped += ctr.Dropped
	r.done.Resyncs += ctr.Resyncs
	r.closedCount++
}

// Invalidated is the maintainer hook: window c of pol was dropped by an
// ingest (or eviction). It only touches the overlap index and the work
// queue — never an evaluation — so it is safe to call from the ingest
// sink.
func (r *Registry) Invalidated(pol tuple.Pollutant, c int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.invalidations++
	set := r.byWindow[winKey{pol, c}]
	r.avoided += int64(len(r.subs) - len(set))
	for s := range set {
		r.matches++
		s.dirty[c] = struct{}{}
		if !s.queued {
			s.queued = true
			r.queue = append(r.queue, s)
			r.work.Signal()
		}
	}
}

// worker drains the dirty-subscription queue: swap out the dirty
// window set, re-evaluate only the points bound to those windows, and
// push the delta.
func (r *Registry) worker() {
	defer r.wg.Done()
	for {
		r.mu.Lock()
		for len(r.queue) == 0 && !r.closed {
			r.work.Wait()
		}
		if len(r.queue) == 0 && r.closed {
			r.mu.Unlock()
			return
		}
		s := r.queue[0]
		r.queue = r.queue[1:]
		s.queued = false
		dirty := s.dirty
		s.dirty = make(map[int]struct{})
		r.inflight++
		r.mu.Unlock()

		r.reevaluate(s, dirty)

		r.mu.Lock()
		r.inflight--
		if len(r.queue) == 0 && r.inflight == 0 {
			r.quiet.Broadcast()
		}
		r.mu.Unlock()
	}
}

// reevaluate runs the dirty points of s through the evaluator and
// applies the result to the feed (which filters unchanged points).
func (r *Registry) reevaluate(s *plan, dirty map[int]struct{}) {
	var idxs []int
	for i, c := range s.windows {
		if _, ok := dirty[c]; ok {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		return
	}
	reqs := make([]query.Request, len(idxs))
	for j, i := range idxs {
		reqs[j] = s.points[i]
	}
	res, err := r.eval(r.ctx, s.pol, reqs)
	r.mu.Lock()
	r.reEvals++
	r.pointReEvals += int64(len(idxs))
	r.mu.Unlock()
	if err != nil {
		pts := make([]PointValue, len(idxs))
		for j, i := range idxs {
			pts[j] = PointValue{Index: i, Err: err.Error()}
		}
		s.feed.Apply(pts)
		return
	}
	s.feed.Apply(resultPoints(idxs, res))
}

// resultPoints converts batch results into point values. idxs maps
// result positions back to subscription point indexes (nil: identity).
func resultPoints(idxs []int, res []query.BatchResult) []PointValue {
	pts := make([]PointValue, len(res))
	for j, br := range res {
		i := j
		if idxs != nil {
			i = idxs[j]
		}
		pts[j] = PointValue{Index: i, Value: br.Value}
		if br.Err != nil {
			pts[j] = PointValue{Index: i, Err: br.Err.Error()}
		}
	}
	return pts
}

// Wait blocks until every queued re-evaluation has been applied. Tests
// and the closed-loop benchmark use it to quiesce between ingest
// rounds.
func (r *Registry) Wait() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for (len(r.queue) > 0 || r.inflight > 0) && !r.closed {
		r.quiet.Wait()
	}
}

// Stats snapshots the lifetime counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	st := Stats{
		Active:        len(r.subs),
		Subscribed:    r.subscribed,
		Closed:        r.closedCount,
		Invalidations: r.invalidations,
		Matches:       r.matches,
		Avoided:       r.avoided,
		ReEvals:       r.reEvals,
		PointReEvals:  r.pointReEvals,
		Pushes:        r.done.Pushes,
		DeltaPoints:   r.done.DeltaPoints,
		Dropped:       r.done.Dropped,
		Resyncs:       r.done.Resyncs,
	}
	live := make([]*plan, 0, len(r.subs))
	for s := range r.subs {
		live = append(live, s)
	}
	r.mu.Unlock()
	for _, s := range live {
		ctr := s.feed.counters()
		st.Pushes += ctr.Pushes
		st.DeltaPoints += ctr.DeltaPoints
		st.Dropped += ctr.Dropped
		st.Resyncs += ctr.Resyncs
	}
	return st
}

// Close tears the registry down: stops the workers, cancels in-flight
// evaluations, and closes every live subscription's event channel.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.queue = nil
	r.work.Broadcast()
	r.quiet.Broadcast()
	live := make([]*plan, 0, len(r.subs))
	for s := range r.subs {
		live = append(live, s)
	}
	r.mu.Unlock()
	r.cancel()
	r.wg.Wait()
	for _, s := range live {
		_ = s.feed.Close()
	}
}
