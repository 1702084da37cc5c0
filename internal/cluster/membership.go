// Epoch-versioned live membership: node join, operator drain, and
// dead-primary promotion, each an epoch bump of the shard ring pushed
// to the members while they serve traffic.
//
// The safety story is a fence plus a pull. Every routed frame carries
// the epoch of the ring that routed it; a receiver on a newer epoch
// rejects the frame (epochMismatch) before touching state, the sender
// refreshes its ring from the rejecting peer, and re-routes once. Data
// moves by pulling replication logs (ShardTransfer, answered with the
// same checkpoint-or-suffix chunks as replica catch-up): a gaining
// node pulls a shard's stream before the epoch commits, and pulls the
// tail again after, so ingest that lands mid-transition is covered by
// the old owner's log rather than lost. Pull progress is sequence
// positions in the origin's stream, shared across sources, so resuming
// a pull — or pulling the same stream from a second source — never
// re-applies a tuple.
//
// Transition shapes (phase labels are what HandoffHook sees):
//
//	join:     the joiner asks any member for the next-epoch ring
//	          (JoinRequest), builds its node on it, bootstraps the
//	          shards it gains from their current owners [join:pending →
//	          join:bootstrapped], broadcasts the commit [join:committing
//	          → join:committed], and final-pulls the tail [join:done].
//	drain:    the drainer broadcasts the tombstoned ring as a prepare —
//	          each receiver synchronously pulls the shards it gains
//	          from the drainer and a failed prepare aborts with the
//	          ring unchanged [drain:pending → drain:prepared] — then
//	          fences itself by adopting the new epoch [drain:fenced]
//	          and broadcasts the commit [drain:committed].
//	promote:  a survivor told that a primary died (Promote) tombstones
//	          it at the next epoch [promote:adopted], recovers the
//	          shards it gains — replaying its own mirror of the dead
//	          node when it is one of its R-1 mirrors, pulling the stream
//	          over the wire from a mirror otherwise [promote:recovered]
//	          — and broadcasts the commit [promote:committed].
//	update:   the receiver side of a broadcast: a prepare bootstraps
//	          gained shards before acking [update:prepared]; a commit
//	          installs the ring, then best-effort pulls the tail
//	          [update:committed].
//
// What membership cannot recover: pulled from a live origin, a stream's
// history the primary's replication log no longer holds — its store
// evicted it, or, on a node without local stores, it is older than the
// log's by-value cap (logRetain) — moves as a snapshot of the retained
// log (the same contract replica catch-up has); and a killed primary
// takes with it any acked tuples it had not yet streamed to a replica.
// Promotion recovers everything the surviving replicas hold: a mirror log
// has no cap and sheds only tuples of windows the engines' retention
// (ReplicationConfig.Retain) has already evicted, so a mirror replays its
// stream's whole retained history.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/tuple"
	"repro/internal/wire"
)

// epochMismatch is the fence rejection for a frame routed under an
// older ring than the receiver's.
func epochMismatch(frame, own uint64) wire.ErrorResponse {
	return WireError(fmt.Errorf("%w: frame routed at epoch %d, node at epoch %d", ErrStaleEpoch, frame, own))
}

// transferKey identifies one handoff pull: the stream's origin node
// and pollutant. Progress under a key is a sequence position in that
// origin's replication stream, whichever source served it.
type transferKey struct {
	origin int
	pol    tuple.Pollutant
}

// streamPos is a position in a replication stream: a sequence in the
// origin's incarnation inc.
type streamPos struct {
	inc, seq uint64
}

// firePhase reports a membership phase boundary to the fault-injection
// hook, when one is installed.
func (n *Node) firePhase(phase string) {
	if n.hook != nil {
		n.hook(phase)
	}
}

// JoinCluster announces addr to a seed member and returns the pending
// next-epoch ring that includes it as the highest node ID. Nothing is
// installed anywhere yet: the caller builds its Node on the pending
// ring and calls CompleteJoin to bootstrap and commit.
func JoinCluster(seed Transport, addr string) (*Ring, error) {
	resp, err := seed.Exchange(wire.JoinRequest{Addr: addr})
	if err != nil {
		return nil, fmt.Errorf("cluster: join announce: %w", err)
	}
	r, err := answer[wire.RingResponse](resp)
	if err != nil {
		return nil, err
	}
	ring, err := RingFromWire(r)
	if err != nil {
		return nil, fmt.Errorf("cluster: join announce: %w", err)
	}
	if ring.Addr(ring.Nodes()-1) != addr {
		return nil, fmt.Errorf("cluster: seed answered a ring not ending in %s", addr)
	}
	return ring, nil
}

// handleJoin computes — without installing — the next-epoch ring with
// the announcing node appended, and returns it. The joiner owns the
// rest of the transition.
func (n *Node) handleJoin(m wire.JoinRequest) wire.Message {
	d, err := n.Ring().JoinDesc(m.Addr)
	if err != nil {
		return wire.ErrorResponse{Msg: err.Error()}
	}
	pending, err := NewRing(d)
	if err != nil {
		return wire.ErrorResponse{Msg: err.Error()}
	}
	return pending.Wire()
}

// CompleteJoin runs the joiner's side of a join: the node must have
// been built on the pending ring returned by JoinCluster, with Self =
// the new (highest) node ID. It bootstraps the shards the node gains
// by pulling their current owners' replication logs, broadcasts the
// commit to the old members, and pulls the tail that landed during the
// bootstrap. On return the node is a serving member at the new epoch.
func (n *Node) CompleteJoin(ctx context.Context) error {
	pending := n.Ring()
	if pending.Epoch() == 0 {
		return errors.New("cluster: join needs an epoch-bearing ring (from JoinCluster)")
	}
	if n.self != pending.Nodes()-1 {
		return fmt.Errorf("cluster: joiner must be the pending ring's last node, is %d of %d", n.self, pending.Nodes())
	}
	od := pending.Desc()
	od.Nodes = append([]string(nil), od.Nodes[:len(od.Nodes)-1]...)
	od.Epoch--
	old, err := NewRing(od)
	if err != nil {
		return fmt.Errorf("cluster: join: reconstructing the pre-join ring: %w", err)
	}
	n.firePhase("join:pending")
	if err := n.acquireShards(ctx, old, pending, true); err != nil {
		return fmt.Errorf("cluster: join bootstrap: %w", err)
	}
	n.firePhase("join:bootstrapped")
	n.firePhase("join:committing")
	if err := n.broadcastRing(old, pending, true); err != nil {
		return fmt.Errorf("cluster: join commit: %w", err)
	}
	n.firePhase("join:committed")
	// The old owners kept committing while we bootstrapped; now that
	// they route new writes to us, pull the remaining tail. Best-effort:
	// a failed tail pull self-heals through replica catch-up, and the
	// epoch is already committed.
	_ = n.acquireShards(ctx, old, pending, false)
	n.firePhase("join:done")
	return nil
}

// Drain runs the leaving node's side of an operator drain: prepare
// (every surviving member pulls the shards it gains from this node and
// acks; any failure aborts with the cluster's ring unchanged), fence
// (this node adopts the tombstoned ring, so late writes bounce to the
// new owners), commit (survivors install the new epoch and pull the
// tail). On return the node serves nothing and can shut down.
func (n *Node) Drain(ctx context.Context) error {
	if n.self < 0 {
		return errors.New("cluster: a router has nothing to drain")
	}
	old := n.Ring()
	d, err := old.TombstoneDesc(n.self)
	if err != nil {
		return err
	}
	pending, err := NewRing(d)
	if err != nil {
		return err
	}
	n.firePhase("drain:pending")
	if err := n.broadcastRing(old, pending, false); err != nil {
		return fmt.Errorf("cluster: drain prepare: %w", err)
	}
	n.firePhase("drain:prepared")
	// Fence before commit: once a survivor serves the new epoch, this
	// node must already be refusing old-epoch writes, or a tuple could
	// commit here after its shard's new owner finished pulling.
	n.adoptRing(pending)
	n.firePhase("drain:fenced")
	if err := n.broadcastRing(old, pending, true); err != nil {
		return fmt.Errorf("cluster: drain commit: %w", err)
	}
	n.firePhase("drain:committed")
	return nil
}

// handleRingUpdate is the receiver side of a membership broadcast.
// Prepare: synchronously bootstrap the shards this node gains under
// the pushed ring, without installing it — a failed pull fails the
// prepare, and the coordinator aborts. Commit: install the ring (the
// fence starts here), then best-effort pull the tail. Either way the
// response is the ring this node currently serves, so a coordinator
// racing another transition finds out.
func (n *Node) handleRingUpdate(ctx context.Context, m wire.RingUpdate) wire.Message {
	r, err := RingFromWire(m.Ring)
	if err != nil {
		return wire.ErrorResponse{Msg: fmt.Sprintf("cluster: ring update: %v", err)}
	}
	cur := n.Ring()
	if r.Epoch() <= cur.Epoch() {
		// Stale push (we moved past it): answer with what we serve.
		return cur.Wire()
	}
	if !m.Commit {
		if err := n.acquireShards(ctx, cur, r, true); err != nil {
			return wire.ErrorResponse{Msg: fmt.Sprintf("cluster: prepare bootstrap: %v", err)}
		}
		n.firePhase("update:prepared")
		return n.Ring().Wire()
	}
	n.adoptRing(r)
	n.firePhase("update:committed")
	// Tail pull after the fence is up. Best-effort: anything missed
	// heals through replica catch-up, and for a promotion the origin is
	// dead anyway.
	_ = n.acquireShards(ctx, cur, r, false)
	return n.Ring().Wire()
}

// Promote handles a dead primary: tombstone it at the next epoch,
// recover the shards this node gains from the dead node's surviving
// replicas (its own mirror included), and broadcast the commit so the
// other survivors re-place the rest. Any survivor may run it — by
// convention the dead node's lowest-ID surviving replica — and
// concurrent promotions of the same death collapse onto whichever
// epoch bump lands first.
func (n *Node) Promote(ctx context.Context, dead int) error {
	resp := n.handlePromote(ctx, wire.Promote{Node: uint16(dead), Epoch: n.Ring().Epoch()})
	if er, ok := resp.(wire.ErrorResponse); ok {
		return errors.New(er.Msg)
	}
	return nil
}

// handlePromote is the wire entry of Promote, for the case where the
// death was observed by a node that is not the replica that should
// take over (a router, or a client-facing member).
func (n *Node) handlePromote(ctx context.Context, m wire.Promote) wire.Message {
	cur := n.Ring()
	dead := int(m.Node)
	if dead == n.self {
		return wire.ErrorResponse{Msg: "cluster: node asked to promote over itself"}
	}
	if dead < cur.Nodes() && !cur.IsLive(dead) {
		// The node is already tombstoned — this promotion happened, but
		// its coordinator may have died between installing the ring and
		// recovering the shards it gained, leaving their tuples stranded
		// in the mirrors. Re-run the best-effort recovery pull so a
		// retried promotion converges instead of erroring (idempotent:
		// per-stream pull progress makes a drained replay a no-op), and
		// answer the ring this node serves.
		n.recoverTombstoned(ctx, cur, dead)
		return cur.Wire()
	}
	if m.Epoch < cur.Epoch() {
		// We already moved past the observed epoch — the promotion (or
		// another transition) has happened; answer with the ring we serve.
		return cur.Wire()
	}
	if m.Epoch > cur.Epoch() {
		return wire.ErrorResponse{Msg: fmt.Sprintf("cluster: promote at epoch %d, node at epoch %d — refresh and retry", m.Epoch, cur.Epoch())}
	}
	if cur.Replicas() <= 1 {
		return wire.ErrorResponse{Msg: "cluster: cannot promote on an unreplicated ring"}
	}
	d, err := cur.TombstoneDesc(dead)
	if err != nil {
		return wire.ErrorResponse{Msg: err.Error()}
	}
	next, err := NewRing(d)
	if err != nil {
		return wire.ErrorResponse{Msg: err.Error()}
	}
	if !n.adoptRing(next) {
		// Lost a race with another transition at the same epoch; whoever
		// won owns the cluster's next shape.
		return n.Ring().Wire()
	}
	n.firePhase("promote:adopted")
	// Recover what the survivors hold. Best-effort by nature: the dead
	// primary's unstreamed tail died with it.
	_ = n.acquireShards(ctx, cur, next, false)
	n.firePhase("promote:recovered")
	_ = n.broadcastRing(cur, next, true)
	n.firePhase("promote:committed")
	return n.Ring().Wire()
}

// recoverTombstoned re-pulls the streams behind the shards this node
// gained when `dead` was tombstoned out of cur. Placement hashes node
// indexes, never addresses, so resurrecting the dead slot with a
// placeholder address reconstructs the pre-tombstone ownership exactly;
// with the origin unreachable the pull falls to this node's own mirror
// of it and the dead node's other surviving replicas.
func (n *Node) recoverTombstoned(ctx context.Context, cur *Ring, dead int) {
	d := cur.Desc()
	d.Nodes = append([]string(nil), d.Nodes...)
	d.Nodes[dead] = "\x00tombstoned"
	if d.Epoch > 0 {
		d.Epoch--
	}
	old, err := NewRing(d)
	if err != nil {
		return
	}
	_ = n.acquireShards(ctx, old, cur, false)
}

// broadcastRing pushes pending to every live member of old except this
// node, as a prepare or a commit, and verifies the acks. An ack
// carrying a different same-epoch membership or a newer epoch means a
// concurrent transition won; the peer's ring is adopted and the
// broadcast reports failure so the coordinator can abort or retry.
func (n *Node) broadcastRing(old, pending *Ring, commit bool) error {
	frame := wire.RingUpdate{Ring: pending.Wire(), Commit: commit}
	var errs []string
	for i := 0; i < old.Nodes(); i++ {
		if i == n.self || !old.IsLive(i) {
			continue
		}
		t := n.transport(i)
		if t == nil {
			errs = append(errs, fmt.Sprintf("node %d: no transport", i))
			continue
		}
		resp, err := t.Exchange(frame)
		if err != nil {
			errs = append(errs, fmt.Sprintf("node %d: %v", i, err))
			continue
		}
		switch r := resp.(type) {
		case wire.RingResponse:
			ack, err := RingFromWire(r)
			if err != nil {
				errs = append(errs, fmt.Sprintf("node %d: bad ring ack: %v", i, err))
				continue
			}
			if ack.Epoch() > pending.Epoch() ||
				(ack.Epoch() == pending.Epoch() && !sameMembers(ack, pending)) {
				n.adoptRing(ack)
				errs = append(errs, fmt.Sprintf("node %d: concurrent membership change (peer at epoch %d)", i, ack.Epoch()))
			}
		case wire.ErrorResponse:
			errs = append(errs, fmt.Sprintf("node %d: %s", i, r.Msg))
		default:
			errs = append(errs, fmt.Sprintf("node %d: unexpected response %T", i, resp))
		}
	}
	if len(errs) > 0 {
		kind := "prepare"
		if commit {
			kind = "commit"
		}
		return fmt.Errorf("cluster: ring %s (epoch %d): %s", kind, pending.Epoch(), strings.Join(errs, "; "))
	}
	return nil
}

// sameMembers reports whether two rings agree on the full member list
// (addresses and tombstones, slot by slot).
func sameMembers(a, b *Ring) bool {
	if a.Nodes() != b.Nodes() {
		return false
	}
	for i := 0; i < a.Nodes(); i++ {
		if a.Addr(i) != b.Addr(i) {
			return false
		}
	}
	return true
}

// --- handoff pulls ----------------------------------------------------

// acquireShards pulls, for every pollutant this node serves, the
// streams behind the shards it owns under next but not under old. With
// strict set any stream that could not be pulled fails the call (the
// prepare/bootstrap contract); otherwise the best recoverable state
// wins (tail pulls, promotions).
func (n *Node) acquireShards(ctx context.Context, old, next *Ring, strict bool) error {
	if n.self < 0 || n.repl == nil {
		return nil
	}
	for _, pol := range n.pols {
		origins := make(map[int]bool)
		for c := 0; c < next.Cells(); c++ {
			k := ShardKey{Pollutant: pol, Cell: c}
			if next.OwnerKey(k) != n.self {
				continue
			}
			if o := old.OwnerKey(k); o != n.self {
				origins[o] = true
			}
		}
		ids := make([]int, 0, len(origins))
		for o := range origins {
			ids = append(ids, o)
		}
		sort.Ints(ids)
		for _, origin := range ids {
			if err := n.pullStream(ctx, old, next, origin, pol); err != nil && strict {
				return err
			}
		}
	}
	return nil
}

// pullStream pulls origin's replication log of pol and applies the
// tuples whose shards this node gains (old owner != self, next owner
// == self). Sources are tried in order: the origin itself, then — for
// a dead origin — its mirrors under old, this node's own among them,
// all serving the same sequence space, so partial progress at one
// source resumes at the next. A local mirror replay never ends the
// chain (the mirror may trail a peer's); a completed wire pull does.
func (n *Node) pullStream(ctx context.Context, old, next *Ring, origin int, pol tuple.Pollutant) error {
	key := transferKey{origin: origin, pol: pol}
	have := func() streamPos {
		n.memMu.Lock()
		defer n.memMu.Unlock()
		return n.pulled[key]
	}
	apply := func(_ streamPos, cr wire.ReplicaCatchupResponse) (bool, error) {
		return cr.Done, n.applyTransfer(ctx, key, pol, old, next, cr)
	}
	err, replayed := errors.New("no source"), false
	for _, src := range append([]int{origin}, old.ReplicaPeers(origin, pol)...) {
		switch e := n.pull(ctx, src, origin, pol, have, apply); {
		case e != nil:
			err = e
		case src != n.self:
			return nil
		default:
			replayed = true
		}
	}
	if replayed {
		return nil
	}
	return fmt.Errorf("cluster: pulling node %d's %v stream: %w", origin, pol, err)
}

// pull runs one chunked pull of origin's pol stream from node src — over
// the wire, or from this node's own logs when src is itself. Each round
// asks src for the stream from have() and hands apply the chunk and the
// position it asked from; apply reports whether the session is over.
// Replica catch-up and handoffs differ only in those two steps. A session gets maxPullRounds rounds —
// a local one as many more as its mirror log holds chunks — and ends
// early when ctx does.
func (n *Node) pull(ctx context.Context, src, origin int, pol tuple.Pollutant,
	have func() streamPos, apply func(streamPos, wire.ReplicaCatchupResponse) (bool, error)) error {
	rounds := maxPullRounds
	if src == n.self {
		if mir := n.repl.lookupMirror(origin, pol); mir != nil {
			mir.mu.Lock()
			rounds += mir.log.Len() / maxCatchupChunk
			mir.mu.Unlock()
		}
	}
	for range rounds {
		if err := ctx.Err(); err != nil {
			return err
		}
		pos := have()
		req := wire.ShardTransfer{Origin: uint16(origin), Pollutant: pol, Have: pos.seq, Incarnation: pos.inc}
		var resp wire.Message
		if src == n.self {
			resp = n.handleShardTransfer(req)
		} else if t := n.transport(src); t == nil {
			return fmt.Errorf("cluster: node %d: %w", src, errNoTransport)
		} else {
			var err error
			if resp, err = t.Exchange(req); err != nil {
				return err
			}
		}
		cr, err := answer[wire.ReplicaCatchupResponse](resp)
		if err != nil {
			return err
		}
		if done, err := apply(pos, cr); done || err != nil {
			return err
		}
	}
	return fmt.Errorf("cluster: pull of node %d's %v stream did not converge in %d rounds", origin, pol, rounds)
}

// applyTransfer applies one transfer chunk — origin-stream tuples
// covering sequence [From, From+len) — skipping what progress already
// covers, filtering to the shards this node gains, and committing
// through localIngest. It advances the shared progress marker. A chunk
// starting past the progress marker means the source pruned the gap
// away; the marker jumps forward (the retained-state contract). A chunk
// of another incarnation than the marker's (the origin restarted)
// restarts the marker in it.
func (n *Node) applyTransfer(ctx context.Context, key transferKey, pol tuple.Pollutant, old, next *Ring, cr wire.ReplicaCatchupResponse) error {
	from, tuples := cr.From, cr.Tuples
	n.memMu.Lock()
	pos := n.pulled[key]
	n.memMu.Unlock()
	if pos.inc != cr.Incarnation {
		pos = streamPos{inc: cr.Incarnation}
	}
	have := max(pos.seq, from)
	end := from + uint64(len(tuples))
	if end > have {
		fresh := tuples[have-from:]
		gained := make([]tuple.Raw, 0, len(fresh))
		for _, tp := range fresh {
			k := ShardKey{Pollutant: pol, Cell: next.CellOf(tp.Pos())}
			if next.OwnerKey(k) == n.self && old.OwnerKey(k) != n.self {
				gained = append(gained, tp)
			}
		}
		if len(gained) > 0 {
			if _, err := answer[wire.IngestResponse](n.localIngest(ctx, wire.IngestRequest{Pollutant: pol, Tuples: gained})); err != nil {
				return fmt.Errorf("cluster: applying transferred tuples: %w", err)
			}
		}
		have = end
	}
	n.memMu.Lock()
	if cur := n.pulled[key]; cur.inc != pos.inc || have > cur.seq {
		n.pulled[key] = streamPos{inc: pos.inc, seq: have}
	}
	n.memMu.Unlock()
	return nil
}

// handleShardTransfer answers a pull of a stream from sequence Have:
// with chunks of this node's own replication log when Origin is this
// node (a replica catching up, or a handoff from a live owner), or of
// its mirror log of Origin otherwise (a handoff from a dead owner's
// mirror). A log still covering Have answers its suffix; a puller behind
// it, past it, or holding another incarnation of the stream, gets a
// snapshot reset. A primary log that cannot read back a run it indexes
// (its store lost the window's checkpointed base) answers an error.
func (n *Node) handleShardTransfer(m wire.ShardTransfer) wire.Message {
	r := n.repl
	if r == nil {
		return replicaMiss("node keeps no replication logs")
	}
	if int(m.Origin) == n.self {
		lg := r.log(m.Pollutant)
		lg.mu.Lock()
		defer lg.mu.Unlock()
		resp, err := lg.suffix(m.Have, m.Incarnation, maxCatchupChunk)
		if err != nil {
			return wire.ErrorResponse{Msg: "cluster: replication log: " + err.Error()}
		}
		return resp
	}
	mir := r.lookupMirror(int(m.Origin), m.Pollutant)
	if mir == nil {
		return replicaMiss(fmt.Sprintf("no mirror log of node %d", m.Origin))
	}
	mir.mu.Lock()
	defer mir.mu.Unlock()
	have := m.Have
	if m.Incarnation != mir.inc {
		have = otherIncarnation
	}
	resp := suffix(&mir.log, have, maxCatchupChunk)
	resp.Incarnation = mir.inc
	return resp
}
