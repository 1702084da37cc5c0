package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/geo"
	"repro/internal/proto"
	"repro/internal/query"
	"repro/internal/subs"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// PushStream is the consumer side of one remote push stream
// (proto.Stream over TCP in production, in-process fakes in the netsim
// tests): the subscribe ack, the pushed frames, and the failure reason
// once the frame channel closes.
type PushStream interface {
	Ack() wire.Message
	C() <-chan wire.Message
	Err() error
	Close() error
}

// StreamOpener opens a push stream to a peer node's wire address by
// sending req as the stream-opening frame (proto.DialStream adapted, in
// production). A peer that answers the frame with an ErrorResponse is a
// *proto.StreamRefused error; any other error means it was not reached.
type StreamOpener func(addr string, req wire.Message) (PushStream, error)

// LocalEngine is the typed surface of a local engine (server.Engine
// implements it) that the node answers owned shards with beyond the wire
// protocol: subscriptions. The node type-asserts its Local and its
// mirrors' handlers to it, so the cluster package does not import the
// server.
type LocalEngine interface {
	Subscribe(ctx context.Context, pol tuple.Pollutant, pts []query.Request) (*subs.Feed, error)
}

// subLeg is one owner's slice of a routed subscription: the point
// indexes (into the merged point set) the owner serves, and either a
// local feed or a remote stream. On a replicated ring the source can
// be swapped — re-homed to a replica's mirror — when the owner dies,
// so feed/stream are guarded by mu.
type subLeg struct {
	owner  int
	pol    tuple.Pollutant
	idxs   []int
	subset []query.Request // the leg's points, in leg-local index order

	mu     sync.Mutex
	feed   *subs.Feed // local leg (owner == self, or a local mirror)
	stream PushStream // remote leg
}

// sources snapshots the leg's current event sources.
func (l *subLeg) sources() (*subs.Feed, PushStream) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.feed, l.stream
}

// closeSources closes the leg's current event sources.
func (l *subLeg) closeSources() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.feed != nil {
		_ = l.feed.Close()
	}
	if l.stream != nil {
		_ = l.stream.Close()
	}
}

// Subscribe opens a routed subscription: the point set is grouped by
// shard owner, the node subscribes at each owner (locally for shards it
// owns, over a push stream for the rest), and the per-owner pushes are
// merged — indexes remapped into the caller's point order, sequence
// numbers reassigned — onto one bounded feed. Subscribe fails fast if
// any owner is unreachable; after that, an owner dying emits an error
// event on the feed (naming the owner, its points possibly stale)
// rather than going silently stale, while the other owners' points keep
// updating. Closing the returned feed closes every leg. The point set is
// held to subs.MaxPoints as a whole, before any leg opens, as on one node.
func (n *Node) Subscribe(ctx context.Context, pol tuple.Pollutant, pts []query.Request) (*subs.Feed, error) {
	if len(pts) == 0 {
		return nil, errors.New("cluster: empty point set")
	}
	if len(pts) > subs.MaxPoints {
		return nil, fmt.Errorf("%w: %d exceeds the %d-point bound", subs.ErrTooManyPoints, len(pts), subs.MaxPoints)
	}
	if !pol.Valid() {
		return nil, unknownPollutant(pol)
	}
	ring := n.Ring()
	groups := make(map[int][]int) // owner -> merged point indexes
	for i, p := range pts {
		owner := ring.Owner(pol, geo.Point{X: p.X, Y: p.Y})
		groups[owner] = append(groups[owner], i)
	}

	var legs []*subLeg
	abort := func() {
		for _, l := range legs {
			l.closeSources()
		}
	}
	for owner, idxs := range groups {
		subset := make([]query.Request, len(idxs))
		for j, i := range idxs {
			subset[j] = pts[i]
			subset[j].Pollutant = pol
		}
		l := &subLeg{owner: owner, pol: pol, idxs: idxs, subset: subset}
		if owner == n.self {
			ls, ok := n.local.(LocalEngine)
			if !ok {
				abort()
				return nil, errors.New("cluster: local handler does not support subscriptions")
			}
			f, err := ls.Subscribe(ctx, pol, subset)
			if err != nil {
				abort()
				return nil, err
			}
			n.nLocal.Add(1)
			l.feed = f
		} else {
			if n.streams == nil {
				abort()
				return nil, fmt.Errorf("cluster: no stream opener configured; cannot subscribe at node %d", owner)
			}
			// Forwarded, like every routed request: the owner answers from
			// its local registry and never re-routes, so disagreeing rings
			// cannot chain subscription hops. The leg is not fenced.
			st, err := n.openStream(ring, owner, wire.Forwarded{Inner: subs.WireFromRequests(pol, subset), Epoch: ring.Epoch()})
			if err != nil {
				abort()
				return nil, err
			}
			n.nForwarded.Add(1)
			l.stream = st
		}
		legs = append(legs, l)
	}

	// closing marks an intentional teardown so the leg forwarders can
	// tell "merged subscription closed" from "owner died".
	var closing atomic.Bool
	feed := subs.NewFeed(n.nextSubID.Add(1), len(pts), func() {
		closing.Store(true)
		for _, l := range legs {
			l.closeSources()
		}
	})
	for _, l := range legs {
		go n.runLeg(ctx, feed, l, &closing)
	}
	return feed, nil
}

// openStream opens a push stream to node to. A peer that was reached
// and refused the opening frame comes back as the failure it named
// (ErrorFromWire); only a transport failure is ErrNodeUnreachable and
// counted in Stats.Errors.
func (n *Node) openStream(ring *Ring, to int, req wire.Message) (PushStream, error) {
	st, err := n.streams(ring.Addr(to), req)
	if err == nil {
		return st, nil
	}
	var refused *proto.StreamRefused
	if errors.As(err, &refused) {
		return nil, ErrorFromWire(refused.Response.Code, refused.Response.Msg)
	}
	n.nErrors.Add(1)
	return nil, fmt.Errorf("%w: node %d (%s): %v", ErrNodeUnreachable, to, ring.Addr(to), err)
}

// runLeg forwards one owner's pushes onto the merged feed, remapping
// owner-local point indexes to merged indexes. When the leg's source
// ends without the merged subscription closing, the owner died: on a
// replicated ring the leg re-homes to a replica's mirror (whose resync
// event refreshes the points) and keeps going; only when no replica
// accepts the leg does an error event name the owner and its possibly
// stale points.
func (n *Node) runLeg(ctx context.Context, feed *subs.Feed, l *subLeg, closing *atomic.Bool) {
	apply := func(ev subs.Event) {
		if ev.Err != "" {
			feed.Fail(fmt.Sprintf("cluster: node %d: %s", l.owner, ev.Err))
		}
		if len(ev.Points) == 0 {
			return
		}
		pts := make([]subs.PointValue, 0, len(ev.Points))
		for _, p := range ev.Points {
			if p.Index < 0 || p.Index >= len(l.idxs) {
				continue
			}
			pts = append(pts, subs.PointValue{Index: l.idxs[p.Index], Value: p.Value, Err: p.Err})
		}
		feed.Apply(pts)
	}
	for {
		local, stream := l.sources()
		if local != nil {
			for ev := range local.Events() {
				apply(ev)
			}
		} else if stream != nil {
			for m := range stream.C() {
				p, ok := m.(wire.Push)
				if !ok {
					continue // stray non-push frame; ignore
				}
				apply(subs.EventFromPush(p))
			}
		}
		if closing.Load() {
			return
		}
		if n.rehomeLeg(ctx, l, closing) {
			continue
		}
		n.nErrors.Add(1)
		reason := "subscription stream ended"
		if stream != nil {
			if err := stream.Err(); err != nil {
				reason = err.Error()
			}
		}
		ring := n.Ring()
		addr := ""
		if l.owner >= 0 && l.owner < ring.Nodes() {
			addr = ring.Addr(l.owner)
		}
		feed.Fail(fmt.Sprintf("cluster: owner node %d (%s) unreachable: %s; its %d route points may be stale",
			l.owner, addr, reason, len(l.idxs)))
		return
	}
}

// rehomeLeg re-subscribes a dead owner's leg at the first replica that
// accepts it: this node's own mirror when it backs the owner, or a
// peer replica over a ReplicaRead-opened push stream. The mirror's
// subscription registry emits its resync event on subscribe, so the
// leg's points refresh as soon as the swap lands.
func (n *Node) rehomeLeg(ctx context.Context, l *subLeg, closing *atomic.Bool) bool {
	swap := func(f *subs.Feed, st PushStream) bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		if closing.Load() {
			// The feed closed while we were re-subscribing: the close
			// callback already ran, so this new source is ours to drop.
			if f != nil {
				_ = f.Close()
			}
			if st != nil {
				_ = st.Close()
			}
			return false
		}
		l.feed, l.stream = f, st
		return true
	}
	ring := n.Ring()
	for _, rep := range ring.ReplicaPeers(l.owner, l.pol) {
		if rep == n.self {
			if n.repl == nil {
				continue
			}
			mh, _ := n.repl.mirrorEngine(l.owner, l.pol)
			ls, ok := mh.(LocalEngine)
			if !ok {
				continue
			}
			f, err := ls.Subscribe(ctx, l.pol, l.subset)
			if err != nil {
				continue
			}
			if !swap(f, nil) {
				return false
			}
			n.nRehomed.Add(1)
			return true
		}
		if n.streams == nil {
			continue
		}
		st, err := n.openStream(ring, rep, wire.ReplicaRead{
			Origin: uint16(l.owner),
			Inner:  subs.WireFromRequests(l.pol, l.subset),
		})
		if err != nil {
			continue // unreachable or refused; try the next
		}
		if _, isAck := st.Ack().(wire.SubscribeAck); !isAck {
			_ = st.Close() // replica holds no mirror (or refused); try the next
			continue
		}
		if !swap(nil, st) {
			return false
		}
		n.nRehomed.Add(1)
		return true
	}
	return false
}

// HandleStreamCtx implements proto.CtxStreamer for a cluster node: a
// bare SubscribeRequest opens a routed (merged) subscription, so one
// edge connection to any node pushes for a route spanning every shard; a
// Forwarded subscribe — sent by a peer that already resolved this node
// as the owner — subscribes the local registry directly. Each stream
// ends when its connection does; subscriptions opened for a connection
// are also cancelled with ctx, when the serving process shuts down.
func (n *Node) HandleStreamCtx(ctx context.Context, req wire.Message) (ack wire.Message, run func(emit func(wire.Message) error), stop func(), ok bool) {
	var (
		f   *subs.Feed
		err error
	)
	switch m := req.(type) {
	case wire.SubscribeRequest:
		f, err = n.Subscribe(ctx, m.Pollutant, subs.RequestFromWire(m))
	case wire.Forwarded:
		inner, isSub := m.Inner.(wire.SubscribeRequest)
		if !isSub {
			return nil, nil, nil, false
		}
		ls, isLS := n.local.(LocalEngine)
		if !isLS {
			return subs.Refuse(wire.ErrorResponse{Msg: "cluster: node holds no subscription registry"})
		}
		n.nFwdIn.Add(1)
		f, err = ls.Subscribe(ctx, inner.Pollutant, subs.RequestFromWire(inner))
	case wire.ReplicaRead:
		// A peer re-homing a dead owner's subscription leg onto this
		// node's mirror of that owner.
		inner, isSub := m.Inner.(wire.SubscribeRequest)
		if !isSub {
			return nil, nil, nil, false
		}
		if n.repl == nil {
			return subs.Refuse(replicaMiss("node does not replicate"))
		}
		mh, miss := n.repl.mirrorEngine(int(m.Origin), inner.Pollutant)
		if mh == nil {
			return subs.Refuse(miss)
		}
		ls, isLS := mh.(LocalEngine)
		if !isLS {
			return subs.Refuse(replicaMiss("mirror holds no subscription registry"))
		}
		n.nFwdIn.Add(1)
		f, err = ls.Subscribe(ctx, inner.Pollutant, subs.RequestFromWire(inner))
	default:
		return nil, nil, nil, false
	}
	if err != nil {
		return subs.Refuse(WireError(err))
	}
	return f.Stream()
}
