package subs

// Subscription lifecycle under -race: exact-overlap delta pushes,
// zero re-evaluation for non-overlapping invalidations (asserted via
// registry stats), slow-consumer overflow converting to a resync, and
// clean drains on close and registry close.

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/tuple"
)

const testWindowLen = 100.0

// testEval is a controllable evaluator: every point answers
// base + T + X, so bumping base changes every re-evaluated point (a
// delta then carries exactly the re-evaluated set).
type testEval struct {
	base  atomic.Int64
	calls atomic.Int64
}

func (e *testEval) eval(_ context.Context, _ tuple.Pollutant, reqs []query.Request) ([]query.BatchResult, error) {
	e.calls.Add(1)
	res := make([]query.BatchResult, len(reqs))
	for i, q := range reqs {
		res[i] = query.BatchResult{Value: float64(e.base.Load()) + q.T + q.X}
	}
	return res, nil
}

func testWinOf(tuple.Pollutant) (float64, error) { return testWindowLen, nil }

func recvEvent(t *testing.T, h *Feed) Event {
	t.Helper()
	select {
	case ev, ok := <-h.Events():
		if !ok {
			t.Fatal("event channel closed unexpectedly")
		}
		return ev
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a push event")
	}
	return Event{}
}

// TestSubscribeLifecycle walks the full local lifecycle: initial
// resync, an invalidation overlapping half the points pushing a delta
// of exactly those points, a non-overlapping invalidation evaluating
// nothing, and a clean close.
func TestSubscribeLifecycle(t *testing.T) {
	ev := &testEval{}
	r := NewRegistry(ev.eval, testWinOf)
	defer r.Close()

	// Points 0,1 in window 0; points 2,3 in window 1.
	pts := []query.Request{
		{T: 10, X: 1, Y: 1}, {T: 90, X: 2, Y: 2},
		{T: 110, X: 3, Y: 3}, {T: 190, X: 4, Y: 4},
	}
	s, err := r.Subscribe(context.Background(), tuple.CO2, pts)
	if err != nil {
		t.Fatal(err)
	}

	first := recvEvent(t, s)
	if !first.Resync || first.Seq != 1 || len(first.Points) != len(pts) {
		t.Fatalf("initial event = %+v, want seq-1 resync with %d points", first, len(pts))
	}
	for i, p := range first.Points {
		want := pts[i].T + pts[i].X
		if p.Index != i || p.Value != want || p.Err != "" {
			t.Fatalf("initial point %d = %+v, want value %v", i, p, want)
		}
	}

	// Invalidate window 0: only points 0 and 1 re-evaluate and push.
	ev.base.Store(1000)
	evalsBefore := ev.calls.Load()
	r.Invalidated(tuple.CO2, 0)
	r.Wait()
	delta := recvEvent(t, s)
	if delta.Resync {
		t.Fatalf("delta event = %+v, want a non-resync delta", delta)
	}
	got := map[int]float64{}
	for _, p := range delta.Points {
		got[p.Index] = p.Value
	}
	if len(got) != 2 || got[0] != 1000+10+1 || got[1] != 1000+90+2 {
		t.Fatalf("delta points = %+v, want exactly window-0 points {0, 1}", delta.Points)
	}
	if calls := ev.calls.Load() - evalsBefore; calls != 1 {
		t.Fatalf("evaluator ran %d times for one invalidation, want 1", calls)
	}

	// A non-overlapping invalidation costs no evaluation and no event.
	st := r.Stats()
	r.Invalidated(tuple.CO2, 7)
	r.Wait()
	after := r.Stats()
	if after.ReEvals != st.ReEvals || after.PointReEvals != st.PointReEvals {
		t.Fatalf("non-overlapping invalidation re-evaluated: %+v -> %+v", st, after)
	}
	if after.Avoided != st.Avoided+1 {
		t.Fatalf("Avoided = %d, want %d", after.Avoided, st.Avoided+1)
	}
	select {
	case e := <-s.Events():
		t.Fatalf("unexpected event %+v after non-overlapping invalidation", e)
	default:
	}

	// Closing the feed ends the subscription: its channel closes and it
	// leaves the overlap index, so an invalidation of its windows matches
	// nothing.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-s.Events(); ok {
		t.Fatal("event channel still open after Close")
	}
	r.mu.Lock()
	indexed := len(r.byWindow)
	r.mu.Unlock()
	if indexed != 0 {
		t.Fatalf("overlap index holds %d windows after Close, want 0", indexed)
	}
	st = r.Stats()
	r.Invalidated(tuple.CO2, 0)
	r.Invalidated(tuple.CO2, 1)
	r.Wait()
	if after := r.Stats(); after.Matches != st.Matches || after.ReEvals != st.ReEvals {
		t.Fatalf("invalidation after Close matched the closed feed: %+v -> %+v", st, after)
	}
	closed := r.Stats()
	if closed.Active != 0 || closed.Closed != 1 {
		t.Fatalf("Stats after Close = %+v", closed)
	}
	// A second Close changes nothing.
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
	if again := r.Stats(); again != closed {
		t.Fatalf("second Close moved the stats: %+v -> %+v", closed, again)
	}
}

// TestSlowConsumerResync overfills a subscription's queue without
// consuming: the oldest event is dropped and the newest delivery arrives
// as a full resync, so the consumer never observes a silent gap.
func TestSlowConsumerResync(t *testing.T) {
	ev := &testEval{}
	r := NewRegistry(ev.eval, testWinOf)
	defer r.Close()

	pts := []query.Request{{T: 10, X: 1, Y: 1}, {T: 20, X: 2, Y: 2}}
	s, err := r.Subscribe(context.Background(), tuple.CO2, pts)
	if err != nil {
		t.Fatal(err)
	}

	// The initial resync occupies one queue slot; queueDepth further
	// pushes overflow it.
	const rounds = queueDepth
	for round := int64(1); round <= rounds; round++ {
		ev.base.Store(round * 1000)
		r.Invalidated(tuple.CO2, 0)
		r.Wait()
	}

	var got Event
	for n := len(s.Events()); n > 0; n-- {
		got = recvEvent(t, s)
	}
	if !got.Resync {
		t.Fatalf("after overflow got %+v, want a resync", got)
	}
	if len(got.Points) != 2 {
		t.Fatalf("resync carries %d points, want the full vector of 2", len(got.Points))
	}
	for i, p := range got.Points {
		want := rounds*1000 + pts[i].T + pts[i].X
		if p.Value != want {
			t.Fatalf("resync point %d = %v, want the newest value %v", i, p.Value, want)
		}
	}
	if st := r.Stats(); st.Dropped == 0 || st.Resyncs < 2 {
		t.Fatalf("Stats = %+v, want dropped events and overflow resyncs counted", st)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for range s.Events() { // drains (at most the queued remainder), then closes
	}
}

// TestRegistryClose closes live subscriptions' channels and survives
// double close.
func TestRegistryClose(t *testing.T) {
	ev := &testEval{}
	r := NewRegistry(ev.eval, testWinOf)
	a, err := r.Subscribe(context.Background(), tuple.CO2, []query.Request{{T: 10, X: 1, Y: 1}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Subscribe(context.Background(), tuple.CO, []query.Request{{T: 10, X: 1, Y: 1}})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	r.Close() // idempotent
	for range a.Events() {
	}
	for range b.Events() {
	}
	if _, err := r.Subscribe(context.Background(), tuple.CO2, []query.Request{{T: 10, X: 1, Y: 1}}); err == nil {
		t.Fatal("Subscribe after Close should fail")
	}
}

// TestSubscribeValidation rejects empty and oversized point sets,
// invalid points, and subscriptions beyond the registry bound.
func TestSubscribeValidation(t *testing.T) {
	ev := &testEval{}
	r := NewRegistry(ev.eval, testWinOf)
	defer r.Close()
	r.maxSubs = 1
	ctx := context.Background()

	if _, err := r.Subscribe(ctx, tuple.CO2, nil); err == nil {
		t.Fatal("empty point set accepted")
	}
	if _, err := r.Subscribe(ctx, tuple.CO2, make([]query.Request, MaxPoints+1)); !errors.Is(err, ErrTooManyPoints) {
		t.Fatalf("oversized point set: err = %v, want ErrTooManyPoints", err)
	}
	if _, err := r.Subscribe(ctx, tuple.CO2, []query.Request{{T: math.NaN(), X: 1, Y: 1}}); err == nil {
		t.Fatal("NaN point accepted")
	}
	s, err := r.Subscribe(ctx, tuple.CO2, []query.Request{{T: 10, X: 1, Y: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := r.Subscribe(ctx, tuple.CO2, []query.Request{{T: 10, X: 1, Y: 1}}); !errors.Is(err, ErrTooManySubs) {
		t.Fatalf("beyond the subscription bound: err = %v, want ErrTooManySubs", err)
	}
}

// TestConcurrentInvalidations hammers the hook from several goroutines
// while a consumer drains — the -race exercise for the hook/worker/feed
// locking.
func TestConcurrentInvalidations(t *testing.T) {
	ev := &testEval{}
	r := NewRegistry(ev.eval, testWinOf)
	defer r.Close()

	s, err := r.Subscribe(context.Background(), tuple.CO2,
		[]query.Request{{T: 10, X: 1, Y: 1}, {T: 110, X: 2, Y: 2}})
	if err != nil {
		t.Fatal(err)
	}
	var consumed sync.WaitGroup
	consumed.Add(1)
	go func() {
		defer consumed.Done()
		for range s.Events() {
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ev.base.Add(1)
				r.Invalidated(tuple.CO2, (g+i)%3) // windows 0,1 overlap; 2 does not
			}
		}()
	}
	wg.Wait()
	r.Wait()
	st := r.Stats()
	if st.Matches == 0 || st.ReEvals == 0 {
		t.Fatalf("Stats = %+v, want matched invalidations and re-evaluations", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	consumed.Wait()
}
