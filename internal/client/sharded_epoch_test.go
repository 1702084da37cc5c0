package client

// Epoch-awareness tests for the sharded transport: ring adoption is
// epoch-monotonic (a refresh landing on a behind node never regresses
// the shard map), a stale-ring bounce triggers exactly one refresh and
// then routes straight to the correct owner, and a concurrent join —
// clients racing exchanges while the cluster commits a new epoch —
// converges every client onto the joined ring without errors. All
// clock-dependent paths use the injected clock; no sleeping.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/geo"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// testRingAt builds a ring at an explicit membership epoch.
func testRingAt(t *testing.T, epoch uint64, nodes ...string) *cluster.Ring {
	t.Helper()
	cells, err := cluster.Cells(geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 1000, Y: 1000}}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := cluster.NewRing(cluster.Desc{Nodes: nodes, Cells: cells, Epoch: epoch})
	if err != nil {
		t.Fatal(err)
	}
	return ring
}

// lockedSeed is a ttlSeed safe for concurrent exchanges and ring swaps.
type lockedSeed struct {
	mu      sync.Mutex
	ring    *cluster.Ring
	fetches int
}

func (s *lockedSeed) Exchange(req wire.Message) (wire.Message, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := req.(wire.RingRequest); ok {
		s.fetches++
		return s.ring.Wire(), nil
	}
	return wire.ErrorResponse{Msg: "seed answers only ring requests"}, nil
}

func (s *lockedSeed) swap(r *cluster.Ring) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ring = r
}

func (s *lockedSeed) fetched() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fetches
}

// fakeOwner answers queries with a constant value, or bounces to
// another owner while armed with one.
type fakeOwner struct {
	mu     sync.Mutex
	bounce *wire.NotOwnerResponse
	value  float64
	calls  int
}

func (o *fakeOwner) Exchange(req wire.Message) (wire.Message, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.calls++
	if o.bounce != nil {
		return *o.bounce, nil
	}
	return wire.QueryResponse{Value: o.value}, nil
}

func (o *fakeOwner) arm(b *wire.NotOwnerResponse) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.bounce = b
}

// ownerFleet hands each address a fakeOwner on first dial.
type ownerFleet struct {
	mu     sync.Mutex
	owners map[string]*fakeOwner
}

func newOwnerFleet() *ownerFleet { return &ownerFleet{owners: make(map[string]*fakeOwner)} }

func (fl *ownerFleet) at(addr string) *fakeOwner {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	o, ok := fl.owners[addr]
	if !ok {
		o = &fakeOwner{value: float64(len(fl.owners) + 1)}
		fl.owners[addr] = o
	}
	return o
}

func (fl *ownerFleet) dialer() Dialer {
	return func(addr string) (Transport, error) { return fl.at(addr), nil }
}

// TestShardedEpochMonotonicAdoption: a refresh that lands on a node
// still serving an OLDER epoch must not regress the cached ring — mid-
// transition, different members answer different epochs for a moment,
// and a client that already routed at epoch E never falls back.
func TestShardedEpochMonotonicAdoption(t *testing.T) {
	newer := testRingAt(t, 2, "a:1", "b:1")
	older := testRingAt(t, 1, "c:1", "d:1")
	seed := &lockedSeed{ring: newer}
	fleet := newOwnerFleet()
	sc := NewSharded(seed, fleet.dialer())
	cur := time.Unix(1000, 0)
	sc.now = func() time.Time { return cur }
	sc.SetRingTTL(time.Minute)

	if got := sc.RingEpoch(); got != 0 {
		t.Fatalf("epoch %d before any fetch, want 0", got)
	}
	req := wire.QueryRequest{T: 100, X: 500, Y: 500, Pollutant: tuple.CO2}
	if _, err := sc.Exchange(req); err != nil {
		t.Fatal(err)
	}
	if got := sc.RingEpoch(); got != 2 {
		t.Fatalf("cached epoch %d, want 2", got)
	}

	// The seed regresses (say the client's refresh raced a member that
	// has not committed yet): the fetch happens, but adoption is refused.
	seed.swap(older)
	cur = cur.Add(2 * time.Minute)
	if _, err := sc.Exchange(req); err != nil {
		t.Fatal(err)
	}
	if got := seed.fetched(); got != 2 {
		t.Fatalf("expired ring fetched %d times, want 2", got)
	}
	if got := sc.RingEpoch(); got != 2 {
		t.Fatalf("regressed to epoch %d after a stale fetch, want to keep 2", got)
	}
	ring, err := sc.Ring()
	if err != nil {
		t.Fatal(err)
	}
	if ring.Addr(0) != "a:1" {
		t.Fatalf("cached ring swapped to %q despite the older epoch", ring.Addr(0))
	}

	// A genuinely newer ring is adopted as usual.
	seed.swap(testRingAt(t, 3, "e:1", "f:1"))
	cur = cur.Add(2 * time.Minute)
	if _, err := sc.Exchange(req); err != nil {
		t.Fatal(err)
	}
	if got := sc.RingEpoch(); got != 3 {
		t.Fatalf("cached epoch %d after a newer fetch, want 3", got)
	}
}

// TestShardedStaleBounceSingleRefresh: a NotOwner bounce answers the
// query via the bounce-named owner, marks the ring stale, and the NEXT
// exchange refreshes exactly once and routes straight to the correct
// owner — no bounce loop, no per-query refresh storm.
func TestShardedStaleBounceSingleRefresh(t *testing.T) {
	old := testRingAt(t, 1, "a:1", "b:1")
	seed := &lockedSeed{ring: old}
	fleet := newOwnerFleet()
	sc := NewSharded(seed, fleet.dialer())

	req := wire.QueryRequest{T: 100, X: 500, Y: 500, Pollutant: tuple.CO2}
	ownerAddr := old.Addr(old.Owner(tuple.CO2, geo.Point{X: 500, Y: 500}))
	other := "a:1"
	if ownerAddr == "a:1" {
		other = "b:1"
	}

	// The cluster transitioned: the old owner bounces to the new one.
	fleet.at(ownerAddr).arm(&wire.NotOwnerResponse{Owner: 1, Addr: other})
	fleet.at(other).value = 42
	resp, err := sc.Exchange(req)
	if err != nil {
		t.Fatal(err)
	}
	if qr, ok := resp.(wire.QueryResponse); !ok || qr.Value != 42 {
		t.Fatalf("bounced exchange answered %#v, want the new owner's 42", resp)
	}
	if got := sc.Stats().Bounced; got != 1 {
		t.Fatalf("Bounced = %d, want 1", got)
	}

	// The seed has the committed (newer-epoch) ring; the next exchange
	// refreshes exactly once and goes straight to the current owner.
	seed.swap(testRingAt(t, 2, "a:1", "b:1"))
	before := seed.fetched()
	fleet.at(ownerAddr).arm(nil)
	for i := 0; i < 3; i++ {
		if _, err := sc.Exchange(req); err != nil {
			t.Fatal(err)
		}
	}
	if got := seed.fetched(); got != before+1 {
		t.Fatalf("stale flag caused %d refreshes across 3 exchanges, want exactly 1", got-before)
	}
	if got := sc.RingEpoch(); got != 2 {
		t.Fatalf("cached epoch %d after the bounce-driven refresh, want 2", got)
	}
	if got := sc.Stats().Bounced; got != 1 {
		t.Fatalf("post-refresh exchanges still bounced: Bounced = %d, want 1", got)
	}
}

// TestShardedRefreshUnderConcurrentJoin: clients keep exchanging while
// the cluster commits a join (epoch 1 ring of two nodes -> epoch 2 ring
// with a third). Every exchange must answer, and once a bounce points a
// client at the transition it converges on the joined ring and routes
// shards the joiner gained straight to it.
func TestShardedRefreshUnderConcurrentJoin(t *testing.T) {
	old := testRingAt(t, 1, "a:1", "b:1")
	joined := testRingAt(t, 2, "a:1", "b:1", "c:1")
	seed := &lockedSeed{ring: old}
	fleet := newOwnerFleet()
	sc := NewSharded(seed, fleet.dialer())

	// A probe point the joiner owns after the transition but an old
	// member owned before: the interesting shard of a join.
	var probe geo.Point
	found := false
	for x := 50.0; x < 1000 && !found; x += 100 {
		for y := 50.0; y < 1000 && !found; y += 100 {
			p := geo.Point{X: x, Y: y}
			if joined.Owner(tuple.CO2, p) == 2 && old.Owner(tuple.CO2, p) != 2 {
				probe, found = p, true
			}
		}
	}
	if !found {
		t.Skip("joiner owns no probe shard (placement fluke)")
	}
	oldOwner := old.Addr(old.Owner(tuple.CO2, probe))
	fleet.at("c:1").value = 99

	// Concurrent load across the transition: half the goroutines hammer
	// the probe shard, half spread over other points.
	var wg sync.WaitGroup
	errs := make(chan error, 64) // one slot per worker exchange below
	exchangeOnce := func(p geo.Point) {
		defer wg.Done()
		resp, err := sc.Exchange(wire.QueryRequest{T: 100, X: p.X, Y: p.Y, Pollutant: tuple.CO2})
		if err != nil {
			errs <- err
			return
		}
		if _, ok := resp.(wire.QueryResponse); !ok {
			errs <- fmt.Errorf("exchange answered %#v", resp)
		}
	}
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go exchangeOnce(geo.Point{X: float64(100 + i*50), Y: 500})
	}
	wg.Wait()

	// The join commits: the seed serves the new epoch and the old owner
	// starts bouncing the moved shard to the joiner.
	seed.swap(joined)
	fleet.at(oldOwner).arm(&wire.NotOwnerResponse{Owner: 2, Addr: "c:1"})
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go exchangeOnce(probe)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("exchange across the join failed: %v", err)
	}

	// Converged: the cached ring is the joined epoch and the moved shard
	// routes straight to the joiner — the old owner sees no more traffic
	// for it.
	if got := sc.RingEpoch(); got != 2 {
		t.Fatalf("cached epoch %d after the join, want 2", got)
	}
	joinerCalls := fleet.at("c:1").calls
	oldCalls := fleet.at(oldOwner).calls
	wg.Add(1)
	exchangeOnce(probe)
	if fleet.at("c:1").calls != joinerCalls+1 {
		t.Fatal("post-join probe exchange did not route to the joiner")
	}
	if fleet.at(oldOwner).calls != oldCalls {
		t.Fatal("post-join probe exchange still touched the old owner")
	}
}
