package cluster_test

// Routed-subscription tests: a subscription opened at one node spans
// every shard owner over in-process push streams (frames crossing the
// binary codec), merged deltas stay owner-local on targeted ingests,
// and killing an owner yields an error event naming it while the other
// legs keep updating.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/geo"
	"repro/internal/proto"
	"repro/internal/query"
	"repro/internal/subs"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// fakeStream is an in-process cluster.PushStream: the server half is
// the target node's HandleStreamCtx, every frame crosses the binary
// codec, and the fixture kill switch can sever it like a dropped TCP
// connection.
type fakeStream struct {
	ack  wire.Message
	ch   chan wire.Message
	dead *atomic.Bool

	mu      sync.Mutex
	err     error
	stop    func()
	stopped bool
}

func (s *fakeStream) Ack() wire.Message      { return s.ack }
func (s *fakeStream) C() <-chan wire.Message { return s.ch }

func (s *fakeStream) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func (s *fakeStream) Close() error {
	s.sever(nil)
	return nil
}

// sever tears the server half down once, recording the failure reason
// (nil for a clean client-side close).
func (s *fakeStream) sever(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	stop, stopped := s.stop, s.stopped
	s.stopped = true
	s.mu.Unlock()
	if !stopped && stop != nil {
		stop()
	}
}

// openStream is the fixture's StreamOpener: it resolves the address to
// a node, refuses dead targets, and bridges HandleStreamCtx's emit loop
// onto a frame channel.
func (f *fixture) openStream(addr string, req wire.Message) (cluster.PushStream, error) {
	to := -1
	for i := 0; i < f.ring.Nodes(); i++ {
		if f.ring.Addr(i) == addr {
			to = i
			break
		}
	}
	if to < 0 {
		return nil, fmt.Errorf("unknown address %q", addr)
	}
	if f.dead[to].Load() {
		return nil, fmt.Errorf("node %d is down", to)
	}
	reqB, err := wire.Binary.Encode(req)
	if err != nil {
		return nil, err
	}
	decoded, err := wire.Binary.Decode(reqB)
	if err != nil {
		return nil, err
	}
	ack, run, stop, ok := f.nodes[to].HandleStreamCtx(context.Background(), decoded)
	if !ok {
		return nil, fmt.Errorf("node %d does not stream %T", to, decoded)
	}
	ackB, err := wire.Binary.Encode(ack)
	if err != nil {
		return nil, err
	}
	if ack, err = wire.Binary.Decode(ackB); err != nil {
		return nil, err
	}
	if er, isErr := ack.(wire.ErrorResponse); isErr {
		stop()
		return nil, &proto.StreamRefused{Response: er}
	}
	s := &fakeStream{ack: ack, ch: make(chan wire.Message, 64), dead: &f.dead[to], stop: stop}
	f.streamsMu.Lock()
	f.streams[to] = append(f.streams[to], s)
	f.streamsMu.Unlock()
	go func() {
		run(func(m wire.Message) error {
			if s.dead.Load() {
				return fmt.Errorf("node %d is down", to)
			}
			b, err := wire.Binary.Encode(m)
			if err != nil {
				return err
			}
			d, err := wire.Binary.Decode(b)
			if err != nil {
				return err
			}
			s.ch <- d
			return nil
		})
		close(s.ch)
	}()
	return s, nil
}

// kill drops a node: new requests fail and its open push streams sever,
// as a crashed process's connections would.
func (f *fixture) kill(to int) {
	f.dead[to].Store(true)
	f.streamsMu.Lock()
	open := f.streams[to]
	f.streams[to] = nil
	f.streamsMu.Unlock()
	for _, s := range open {
		s.sever(fmt.Errorf("node %d is down", to))
	}
}

// routeAcrossShards picks two lattice positions per shard owner so the
// subscription provably spans every node.
func routeAcrossShards(t *testing.T, f *fixture, data tuple.Batch) (pts []query.Request, owners []int) {
	t.Helper()
	per := make(map[int]int)
	for _, r := range data {
		o := f.ring.Owner(tuple.CO2, r.Pos())
		if per[o] >= 2 {
			continue
		}
		per[o]++
		pts = append(pts, query.Request{T: queryT, X: r.X, Y: r.Y, Pollutant: tuple.CO2})
		owners = append(owners, o)
		if len(pts) == 2*f.ring.Nodes() {
			break
		}
	}
	if len(pts) != 2*f.ring.Nodes() {
		t.Fatalf("lattice does not cover every shard: got %d route points", len(pts))
	}
	return pts, owners
}

func recvSub(t *testing.T, h *subs.Feed) subs.Event {
	t.Helper()
	select {
	case ev, ok := <-h.Events():
		if !ok {
			t.Fatal("subscription channel closed early")
		}
		return ev
	case <-time.After(15 * time.Second):
		t.Fatal("timed out waiting for a subscription event")
	}
	return subs.Event{}
}

// drainQuiet collects further events until the feed stays quiet for a
// little while, so multi-leg pushes are all observed.
func drainQuiet(h *subs.Feed) []subs.Event {
	var evs []subs.Event
	for {
		select {
		case ev, ok := <-h.Events():
			if !ok {
				return evs
			}
			evs = append(evs, ev)
		case <-time.After(500 * time.Millisecond):
			return evs
		}
	}
}

func TestClusterRoutedSubscription(t *testing.T) {
	f := newFixture(t)
	data := makeData()
	f.load(t, data)
	ctx := context.Background()

	pts, owners := routeAcrossShards(t, f, data)
	h, err := f.nodes[0].Subscribe(ctx, tuple.CO2, pts)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	// Every leg primes with its slice of the route; collect until the
	// merged feed has covered all points, then check each value against
	// the owner engine's direct answer.
	values := make(map[int]float64)
	for len(values) < len(pts) {
		ev := recvSub(t, h)
		if ev.Err != "" {
			t.Fatalf("subscription error during priming: %s", ev.Err)
		}
		for _, p := range ev.Points {
			if p.Err != "" {
				t.Fatalf("point %d failed: %s", p.Index, p.Err)
			}
			values[p.Index] = p.Value
		}
	}
	for i, req := range pts {
		want, err := f.engines[owners[i]].Query(ctx, req)
		if err != nil {
			t.Fatalf("owner %d query: %v", owners[i], err)
		}
		if values[i] != want {
			t.Fatalf("point %d pushed %v, owner %d answers %v", i, values[i], owners[i], want)
		}
	}

	// A targeted ingest owned entirely by node 1 must re-evaluate and
	// push only node 1's route points: the other owners saw no
	// invalidation, so their legs stay silent.
	ingestOwnedBy := func(owner int, bump float64) {
		var b tuple.Batch
		for _, r := range data {
			if f.ring.Owner(tuple.CO2, r.Pos()) == owner {
				b = append(b, tuple.Raw{T: r.T, X: r.X, Y: r.Y, S: r.S + bump})
			}
		}
		if len(b) == 0 {
			t.Fatalf("no lattice tuples owned by node %d", owner)
		}
		if err := f.nodes[0].Ingest(ctx, tuple.CO2, b); err != nil {
			t.Fatalf("targeted ingest for node %d: %v", owner, err)
		}
	}
	ingestOwnedBy(1, 120)
	evs := append([]subs.Event{recvSub(t, h)}, drainQuiet(h)...)
	touched := make(map[int]float64)
	for _, ev := range evs {
		if ev.Err != "" {
			t.Fatalf("unexpected subscription error: %s", ev.Err)
		}
		for _, p := range ev.Points {
			if owners[p.Index] != 1 {
				t.Fatalf("delta carried point %d (owner %d) after a node-1-only ingest", p.Index, owners[p.Index])
			}
			touched[p.Index] = p.Value
		}
	}
	if len(touched) == 0 {
		t.Fatal("node-1 ingest produced no delta")
	}
	// The push follows the install of node 1's rebuilt cover and carries
	// the rebuilt values: the newest pushed value of every touched point
	// is what the quiesced owner answers, no longer the primed one.
	f.engines[1].Scheduler().Wait()
	for i, got := range touched {
		want, err := f.engines[1].Query(ctx, pts[i])
		if err != nil {
			t.Fatalf("owner 1 query: %v", err)
		}
		if got != want {
			t.Fatalf("point %d last pushed %v, quiesced owner answers %v", i, got, want)
		}
		if got == values[i] {
			t.Fatalf("point %d pushed its pre-ingest value %v again", i, got)
		}
	}

	// Killing an owner severs its leg: the feed reports exactly which
	// node died and how many points may be stale, instead of going
	// silently stale.
	const victim = 2
	f.kill(victim)
	deadline := time.After(15 * time.Second)
	for {
		var ev subs.Event
		select {
		case ev = <-h.Events():
		case <-deadline:
			t.Fatal("no error event after killing owner 2")
		}
		if ev.Err == "" {
			continue // stray delta from before the kill
		}
		if want := fmt.Sprintf("owner node %d", victim); !strings.Contains(ev.Err, want) || !strings.Contains(ev.Err, "unreachable") {
			t.Fatalf("error event %q does not name the dead owner", ev.Err)
		}
		break
	}

	// The surviving local leg keeps updating.
	ingestOwnedBy(0, 240)
	for {
		ev := recvSub(t, h)
		if ev.Err != "" {
			continue
		}
		if len(ev.Points) == 0 {
			continue
		}
		for _, p := range ev.Points {
			if owners[p.Index] != 0 {
				t.Fatalf("post-kill delta carried point %d (owner %d)", p.Index, owners[p.Index])
			}
		}
		break
	}

	// Clean teardown closes the merged channel and the remote legs.
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := <-h.Events(); !ok {
			break
		}
	}
}

// TestClusterSubscribeDeadOwnerFailsFast locks the fail-fast contract:
// subscribing a route with a point owned by a dead node errors at
// subscribe time rather than returning a silently partial feed.
func TestClusterSubscribeDeadOwnerFailsFast(t *testing.T) {
	f := newFixture(t)
	data := makeData()
	f.load(t, data)

	pts, owners := routeAcrossShards(t, f, data)
	f.kill(1)
	_, err := f.nodes[0].Subscribe(context.Background(), tuple.CO2, pts)
	if err == nil {
		t.Fatal("subscribe spanning a dead owner succeeded")
	}
	if !errors.Is(err, cluster.ErrNodeUnreachable) {
		t.Fatalf("dead-owner subscribe maps to %v, want ErrNodeUnreachable", err)
	}

	// A route owned entirely by live nodes still subscribes.
	var live []query.Request
	for i, p := range pts {
		if owners[i] != 1 {
			live = append(live, p)
		}
	}
	h, err := f.nodes[0].Subscribe(context.Background(), tuple.CO2, live)
	if err != nil {
		t.Fatalf("live-owner subscribe failed: %v", err)
	}
	_ = h.Close()
}

// TestRoutedSubscriptionObeysMaxPoints: a routed subscription is held to
// subs.MaxPoints as a whole, as one node holds it, not only leg by leg. A
// 2 800-point route whose every owner's share is under the bound is
// refused with ErrTooManyPoints before any leg opens: no node's registry
// holds a subscription afterwards.
func TestRoutedSubscriptionObeysMaxPoints(t *testing.T) {
	f := newFixture(t)
	f.load(t, makeData())
	pts := make([]query.Request, 2800)
	share := make(map[int]int)
	for i := range pts {
		pts[i] = query.Request{T: queryT, X: -1950 + float64(i%56)*70, Y: -1950 + float64(i/56)*78, Pollutant: tuple.CO2}
		share[f.ring.Owner(tuple.CO2, geo.Point{X: pts[i].X, Y: pts[i].Y})]++
	}
	for o, n := range share {
		if n > subs.MaxPoints {
			t.Fatalf("node %d owns %d of the route's points, want every share ≤ %d", o, n, subs.MaxPoints)
		}
	}
	if len(share) < 2 {
		t.Fatalf("the route spans %d owner(s), want several", len(share))
	}
	h, err := f.nodes[0].Subscribe(context.Background(), tuple.CO2, pts)
	if err == nil {
		_ = h.Close()
		t.Fatalf("a %d-point routed subscription opened, want ErrTooManyPoints", len(pts))
	}
	if !errors.Is(err, subs.ErrTooManyPoints) {
		t.Fatalf("a %d-point routed subscription failed with %v, want ErrTooManyPoints", len(pts), err)
	}
	for i, e := range f.engines {
		if active := e.Subscriptions().Stats().Active; active != 0 {
			t.Errorf("node %d's registry holds %d subscriptions, want 0", i, active)
		}
	}
}
