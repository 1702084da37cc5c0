package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/heatmap"
	"repro/internal/ingest"
	"repro/internal/proto"
	"repro/internal/query"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// Wire-frame budgets. Forwarded requests and their responses must fit
// one proto frame; exceeding it would fail the peer exchange and make
// an outage out of an oversized request. Rasters are rejected up
// front; ingest slices are chunked transparently.
const (
	// MaxHeatmapCells bounds a raster that crosses the wire: a
	// HeatmapResponse is 45 + 8*cells bytes. The router refuses a larger
	// scatter-gathered raster, and a single-node engine a larger TCP one,
	// with ErrTooLarge before rendering it.
	MaxHeatmapCells = (proto.MaxFrameBytes - 64) / 8
	// maxIngestChunk bounds one forwarded ingest frame: an
	// IngestRequest is 6 + 32*tuples bytes.
	maxIngestChunk = (proto.MaxFrameBytes - 64) / 32
	// maxBatchShare bounds the items of one forwarded batch share: a
	// BatchQueryRequest is 3 + 25*items bytes. The router refuses a larger
	// share with ErrTooLarge before sending it.
	maxBatchShare = (proto.MaxFrameBytes - 64) / 25
)

// ErrNodeUnreachable marks a routed request that failed because the
// shard's owner could not be reached — the cluster's partial-outage
// error, distinct from "your request is bad" (the HTTP layer maps it
// to 502).
var ErrNodeUnreachable = errors.New("cluster: owner node unreachable")

// ErrPartialIngest marks a cluster ingest where some shard owners
// applied their slices and at least one did not. It is NOT safe to
// retry the whole upload (the applied slices would duplicate), so it
// deliberately replaces the retryable ErrSaturated even when
// saturation caused the failing slice; the HTTP layer answers 500
// without Retry-After. An ingest where NO slice applied stays
// retryable and keeps its original error (e.g. 429 when saturated).
var ErrPartialIngest = errors.New("cluster: partial ingest; retrying would duplicate applied slices")

// ErrTooLarge marks a request that cannot cross the cluster because
// its response would exceed the wire frame budget (e.g. an oversized
// scatter-gathered heatmap). The HTTP layer maps it to 400.
var ErrTooLarge = errors.New("cluster: request exceeds the wire frame budget")

// ErrStaleEpoch marks a request that was fenced because it was routed
// under a ring epoch older than the receiving node's, and one ring
// refresh did not resolve the disagreement. It is safe to retry: the
// fence rejects before any state changes. The HTTP layer maps it to
// 503 (the cluster is mid-transition).
var ErrStaleEpoch = errors.New("cluster: routed under a stale ring epoch")

// Handler answers protocol requests (implemented by server.Engine and by
// Node itself, so nodes compose behind routers).
type Handler = proto.Handler

// Transport carries protocol messages to one peer node (implemented by
// proto.Client over TCP and by the netsim link transport in tests). The
// answer Exchange returns belongs to its caller: it is memory nothing
// else holds — a transport decodes it afresh, and never hands back a
// message it or its peer keeps — so the caller may give it to
// wire.Recycle once it is done reading it, as a node does with every peer
// answer it merges. The request stays the caller's too: a transport is
// done with it when Exchange returns.
type Transport interface {
	Exchange(req wire.Message) (wire.Message, error)
}

// NodeConfig configures a cluster node or router.
type NodeConfig struct {
	// Ring is the cluster's shard ring (required). The node adopts
	// newer-epoch rings pushed by membership transitions; Ring is only
	// the starting version.
	Ring *Ring
	// Self is this process's node ID — the index of its address in the
	// ring — or -1 for a dedicated router that owns no shards.
	Self int
	// Local answers requests for shards Self owns (nil for a router).
	// When it is a proto.Releaser the node lends its answers too (see
	// Node.Release); when it is a LocalEngine the node hands it
	// owned-shard subscriptions.
	Local Handler
	// Transports connect to peer nodes, indexed by node ID. The Self
	// entry is ignored; a nil entry makes that peer unreachable, exactly
	// as a failed exchange does: its shards answer ErrNodeUnreachable, or
	// a replica's answer for a read. The node owns them: Close closes
	// every one that has a Close method.
	Transports []Transport
	// Dial opens transports to nodes that join after boot (nil: the
	// node cannot reach post-boot members).
	Dial Dialer
	// Default is the engines' default pollutant: the one stream a node
	// moves in membership handoffs when Pollutants is empty.
	Default tuple.Pollutant
	// Pollutants lists every pollutant the local engine serves — the
	// streams membership handoffs must move. Empty defaults to
	// [Default].
	Pollutants []tuple.Pollutant
	// Streams opens push streams to peer nodes for routed subscriptions
	// (nil: Subscribe fails for shards this node does not own).
	Streams StreamOpener
	// Replication configures the node's replication role. NewMirror is
	// required when the ring's replication factor exceeds 1 and this
	// node owns shards; data nodes on unreplicated rings still keep
	// replication logs (they feed membership handoffs) but never build
	// mirrors.
	Replication ReplicationConfig
	// HandoffHook, if set, is called at every membership phase boundary
	// with a label like "join:bootstrapped" or "drain:fenced". The
	// rebalance fault-injection suite uses it to kill a party at an
	// exact boundary; production leaves it nil.
	HandoffHook func(phase string)
}

// Stats counts a node's routing activity.
type Stats struct {
	// Local counts requests answered by the local engine.
	Local int64 `json:"local"`
	// Forwarded counts requests forwarded to an owner node.
	Forwarded int64 `json:"forwarded"`
	// ForwardedIn counts pre-routed requests received from a peer.
	ForwardedIn int64 `json:"forwardedIn"`
	// Scatters counts scatter-gather fan-outs (heatmaps, model merges).
	Scatters int64 `json:"scatters"`
	// Errors counts transport failures talking to peers.
	Errors int64 `json:"errors"`
	// FailedOver counts reads answered by a replica after the shard's
	// owner was unreachable.
	FailedOver int64 `json:"failedOver"`
	// Rehomed counts subscription legs re-subscribed at a replica after
	// their owner died.
	Rehomed int64 `json:"rehomed"`
	// EpochMismatches counts routed frames this node fenced because they
	// carried a ring epoch older than its own.
	EpochMismatches int64 `json:"epochMismatches"`
}

// Node is one member of a sharded EnviroMeter cluster: it answers
// requests for the shards it owns from its local engine, forwards
// single-shard requests to their owners, and scatter-gathers the
// cross-shard ones (heatmaps, model covers). With Self = -1 and no
// local engine it degenerates into a pure query router. Node implements
// the same HandleMessage contract as the engine, so proto.Serve,
// client transports, and the HTTP API compose with it unchanged. It is
// safe for concurrent use.
type Node struct {
	ring    atomic.Pointer[Ring]
	self    int
	local   Handler
	lends   bool // local is a proto.Releaser: see Release
	pols    []tuple.Pollutant
	streams StreamOpener
	repl    *replicator
	dial    Dialer
	hook    func(phase string)

	// tmu guards the transport table, which grows when newer rings add
	// members. Indexes are stable: a slot is never removed, only
	// appended, so node IDs index it for the node's whole life. Once
	// Close has closed the table (closed), newer rings add only nil slots.
	tmu        sync.RWMutex
	transports []Transport
	closed     bool

	// memMu serializes membership transitions this node coordinates or
	// participates in (join bootstrap, drain prepare, promotion), and
	// guards pulled — per-stream handoff progress that must survive the
	// prepare→commit boundary so the commit-time final pull resumes
	// instead of re-applying.
	memMu  sync.Mutex
	pulled map[transferKey]uint64

	nextSubID atomic.Uint64

	nLocal     atomic.Int64
	nForwarded atomic.Int64
	nFwdIn     atomic.Int64
	nScatters  atomic.Int64
	nErrors    atomic.Int64
	nFailover  atomic.Int64
	nRehomed   atomic.Int64
	nEpochRej  atomic.Int64
}

// NewNode builds a cluster node.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Ring == nil {
		return nil, errors.New("cluster: node needs a ring")
	}
	if cfg.Self >= cfg.Ring.Nodes() {
		return nil, fmt.Errorf("cluster: node ID %d outside %d-node ring", cfg.Self, cfg.Ring.Nodes())
	}
	if cfg.Self >= 0 && cfg.Local == nil {
		return nil, fmt.Errorf("cluster: node %d has no local handler", cfg.Self)
	}
	if cfg.Self < 0 && cfg.Local != nil {
		return nil, errors.New("cluster: router (Self = -1) cannot own a local handler")
	}
	if len(cfg.Transports) > 0 && len(cfg.Transports) != cfg.Ring.Nodes() {
		return nil, fmt.Errorf("cluster: %d transports for %d nodes", len(cfg.Transports), cfg.Ring.Nodes())
	}
	transports := cfg.Transports
	if transports == nil {
		transports = make([]Transport, cfg.Ring.Nodes())
	}
	pols := cfg.Pollutants
	if len(pols) == 0 {
		pols = []tuple.Pollutant{cfg.Default}
	}
	_, lends := cfg.Local.(proto.Releaser)
	n := &Node{
		self:       cfg.Self,
		local:      cfg.Local,
		lends:      lends,
		transports: transports,
		pols:       pols,
		streams:    cfg.Streams,
		dial:       cfg.Dial,
		hook:       cfg.HandoffHook,
		pulled:     make(map[transferKey]uint64),
	}
	n.ring.Store(cfg.Ring)
	if cfg.Self >= 0 {
		// Data nodes always run the replicator: even on an unreplicated
		// ring its per-shard logs are what membership handoffs stream.
		// Mirrors — and therefore the factory — are only needed when the
		// ring actually replicates.
		if cfg.Ring.Replicas() > 1 && cfg.Replication.NewMirror == nil {
			return nil, errors.New("cluster: replicated ring needs a mirror factory (ReplicationConfig.NewMirror)")
		}
		n.repl = newReplicator(n, cfg.Replication)
	}
	return n, nil
}

// Close stops the node's background replication work (peer stream
// workers, in-flight catch-up sessions), then closes every transport in
// its table, so no peer connection outlives the node; an exchange after
// Close fails. Routed subscriptions close with their feeds.
func (n *Node) Close() error {
	if n.repl != nil {
		n.repl.close()
	}
	n.tmu.Lock()
	n.closed = true
	ts := n.transports
	n.tmu.Unlock()
	for _, t := range ts {
		closeTransport(t)
	}
	return nil
}

// ReplicationStats returns the node's replication counters; ok is
// false on nodes that do not replicate (unreplicated ring, router) —
// the handoff-only replicator a data node runs on an unreplicated ring
// does not count.
func (n *Node) ReplicationStats() (ReplicationStats, bool) {
	if n.repl == nil || n.Ring().Replicas() <= 1 {
		return ReplicationStats{}, false
	}
	return n.repl.stats(), true
}

// Ring returns the node's current shard ring. The ring is immutable;
// membership transitions swap in whole new versions, so callers that
// need a consistent view across several lookups snapshot it once.
func (n *Node) Ring() *Ring { return n.ring.Load() }

// transport returns the transport to node i (nil when out of range,
// self, or the peer is unreachable by construction).
func (n *Node) transport(i int) Transport {
	n.tmu.RLock()
	defer n.tmu.RUnlock()
	if i < 0 || i >= len(n.transports) {
		return nil
	}
	return n.transports[i]
}

// adoptRing installs r when its epoch exceeds the current ring's,
// growing the transport table to cover members r added, and drops the
// mirrors r no longer places on this node. It keeps the transports of
// slots r tombstoned — a draining node must stay reachable for the
// commit-time final pull. Returns whether r was installed.
func (n *Node) adoptRing(r *Ring) bool {
	for {
		cur := n.ring.Load()
		if r.Epoch() <= cur.Epoch() {
			return false
		}
		if n.ring.CompareAndSwap(cur, r) {
			break
		}
	}
	if n.repl != nil {
		n.repl.dropMirrors()
	}
	n.tmu.Lock()
	defer n.tmu.Unlock()
	for len(n.transports) < r.Nodes() {
		i := len(n.transports)
		var t Transport
		if i != n.self && r.IsLive(i) && n.dial != nil && !n.closed {
			// Lazy: no connection is opened here, so holding tmu is safe.
			t = NewLazyTransport(r.Addr(i), n.dial)
		}
		n.transports = append(n.transports, t)
	}
	return true
}

// Self returns the node's ID (-1 for a router).
func (n *Node) Self() int { return n.self }

// Stats returns a snapshot of the routing counters.
func (n *Node) Stats() Stats {
	return Stats{
		Local:           n.nLocal.Load(),
		Forwarded:       n.nForwarded.Load(),
		ForwardedIn:     n.nFwdIn.Load(),
		Scatters:        n.nScatters.Load(),
		Errors:          n.nErrors.Load(),
		FailedOver:      n.nFailover.Load(),
		Rehomed:         n.nRehomed.Load(),
		EpochMismatches: n.nEpochRej.Load(),
	}
}

// HandleMessage implements the wire protocol with cluster routing:
// ring exchanges answer from the local ring, owned shards answer from
// the local engine, foreign shards forward to (or name) their owner,
// and cross-shard requests scatter-gather.
func (n *Node) HandleMessage(req wire.Message) wire.Message {
	//ctxcheck:allow legacy ctx-less Handler entry; the serve loop prefers HandleMessageCtx
	return n.HandleMessageCtx(context.Background(), req)
}

// localHandle answers a request from the local engine, preserving the
// caller's context when the handler supports it (proto.CtxHandler);
// peers reached over the wire carry no context either way.
func (n *Node) localHandle(ctx context.Context, req wire.Message) wire.Message {
	if ch, ok := n.local.(proto.CtxHandler); ok {
		return ch.HandleMessageCtx(ctx, req)
	}
	return n.local.HandleMessage(req)
}

// Release implements proto.Releaser. A node whose Local is a
// proto.Releaser lends the answer-sized memory of its responses: the
// items of a batch it split across owners, the raster it merged from a
// scatter, and what its Local and replica mirrors (engines, which lend
// from the same wire pools) answered for a forwarded or replica read.
// Release hands that memory back to the wire pools once the response is
// written, with the served request's lent points and tuples: the node
// reads those only while it answers, and copies what its replica streams
// send later. With any other Local the node lends nothing — its answers
// are allocated, a Local's response may be shared, and a Local may keep
// what it was asked — so Release does nothing.
func (n *Node) Release(req, resp wire.Message) {
	if n.lends {
		wire.Recycle(req, resp)
	}
}

// consumed hands back an answer the node has finished reading and does
// not return as its own. from is the node that answered. A peer's answer
// is the node's by the Transport contract, and always goes back. An answer
// of this node's own — its Local's, or a mirror's standing in for a dead
// peer — goes back only when the node lends (see Release).
func (n *Node) consumed(from int, resp wire.Message) {
	if from != n.self {
		wire.Recycle(nil, resp)
		return
	}
	n.Release(nil, resp)
}

// HandleMessageCtx is HandleMessage with a caller-supplied context
// (proto.CtxHandler), so scatter-gather fan-outs and forwarded
// exchanges unwind when the serving process shuts down.
func (n *Node) HandleMessageCtx(ctx context.Context, req wire.Message) wire.Message {
	switch m := req.(type) {
	case wire.RingRequest:
		return n.Ring().Wire()
	case wire.Forwarded:
		// Pre-routed by a peer: answer locally, never re-forward, so a
		// stale peer ring cannot create a forwarding loop.
		if n.local == nil {
			return wire.ErrorResponse{Msg: "cluster: router holds no shards"}
		}
		// Epoch fence: a frame routed under an older ring than ours may
		// name the wrong owner — reject it so the sender refreshes and
		// re-routes. A frame from a NEWER ring is served: the newer
		// placement chose this node, we just have not adopted it yet.
		// Epoch 0 is a pre-epoch (or deliberately epoch-agnostic) frame.
		if own := n.Ring().Epoch(); m.Epoch != 0 && m.Epoch < own {
			n.nEpochRej.Add(1)
			return epochMismatch(m.Epoch, own)
		}
		n.nFwdIn.Add(1)
		if ing, ok := m.Inner.(wire.IngestRequest); ok {
			// A forwarded ingest is this primary's commit point: apply
			// locally and stream the slice to the shard's replicas.
			return n.localIngest(ctx, ing)
		}
		return n.localHandle(ctx, m.Inner)
	case wire.QueryRequest:
		if !m.Pollutant.Valid() {
			return WireError(unknownPollutant(m.Pollutant))
		}
		ring := n.Ring()
		k := ShardKey{Pollutant: m.Pollutant, Cell: ring.CellOf(geo.Point{X: m.X, Y: m.Y})}
		return n.routeShard(ctx, ring, k, m, true)
	case wire.ModelRequest:
		resp, _ := n.scatterModel(ctx, m)
		return resp
	case wire.BatchQueryRequest:
		return n.routeBatch(ctx, m)
	case wire.IngestRequest:
		return n.routeIngest(ctx, m)
	case wire.HeatmapRequest:
		resp, _ := n.scatterHeatmap(ctx, m, n.lends)
		return resp
	case wire.ReplicaIngest:
		return n.handleReplicaIngest(m)
	case wire.ReplicaRead:
		return n.handleReplicaRead(m)
	case wire.JoinRequest:
		return n.handleJoin(m)
	case wire.RingUpdate:
		return n.handleRingUpdate(ctx, m)
	case wire.ShardTransfer:
		return n.handleShardTransfer(m)
	case wire.Promote:
		return n.handlePromote(ctx, m)
	case wire.SubscribeRequest:
		// Plain exchanges cannot carry pushes; the streaming path routes
		// subscribe frames through HandleStreamCtx instead.
		return wire.ErrorResponse{Msg: "cluster: subscriptions require a streaming transport"}
	case wire.UnsubscribeRequest:
		// Subscription IDs are node-local (a routed subscription dies
		// with its stream), so unsubscribe never forwards.
		if n.local == nil {
			return wire.ErrorResponse{Msg: "cluster: router holds no subscriptions"}
		}
		return n.localHandle(ctx, m)
	default:
		return wire.ErrorResponse{Msg: fmt.Sprintf("cluster: unsupported request type %T", req)}
	}
}

// unknownPollutant refuses a pollutant byte the ring places nowhere. The
// node answers it itself, with the error the owner's engine would give,
// instead of forwarding it.
func unknownPollutant(pol tuple.Pollutant) error {
	return fmt.Errorf("%w: %v", query.ErrUnknownPollutant, pol)
}

// routeOwner sends a single-shard request to its owner under ring: the
// local engine or a peer transport. down is true exactly when the owner
// is unreachable — no transport, or a failed exchange — the one failure
// replicas can heal. An engine
// error is an authoritative answer and never fails over. Forwarded
// frames carry ring's epoch so a peer on a different ring version
// fences the disagreement instead of serving the wrong shard.
func (n *Node) routeOwner(ctx context.Context, ring *Ring, owner int, m wire.Message) (resp wire.Message, down bool) {
	if owner == n.self {
		n.nLocal.Add(1)
		if ing, ok := m.(wire.IngestRequest); ok {
			// A locally-owned ingest commits here: apply and stream the
			// slice to the shard's replicas.
			return n.localIngest(ctx, ing), false
		}
		return n.localHandle(ctx, m), false
	}
	t := n.transport(owner)
	if t == nil {
		return unreachable(owner, ring, errNoTransport), true
	}
	n.nForwarded.Add(1)
	resp, err := t.Exchange(wire.Forwarded{Inner: m, Epoch: ring.Epoch()})
	if err != nil {
		n.nErrors.Add(1)
		return unreachable(owner, ring, err), true
	}
	return resp, false
}

// refreshRingFrom pulls peer's current ring — after peer fenced a
// frame with an epoch mismatch — and adopts it if newer. Returns the
// node's refreshed ring when it now carries a newer epoch than old
// (re-routing under it can change the outcome), nil otherwise.
func (n *Node) refreshRingFrom(peer int, old *Ring) *Ring {
	t := n.transport(peer)
	if t == nil {
		return nil
	}
	resp, err := t.Exchange(wire.RingRequest{})
	if err != nil {
		n.nErrors.Add(1)
		return nil
	}
	rr, ok := resp.(wire.RingResponse)
	if !ok {
		return nil
	}
	r, err := RingFromWire(rr)
	if err != nil {
		return nil
	}
	n.adoptRing(r)
	if cur := n.Ring(); cur.Epoch() > old.Epoch() {
		return cur
	}
	return nil
}

// routeShard routes a single-shard read to its owner, retrying at the
// shard's replicas when the owner is unreachable instead of answering
// 502. Only reads fail over — writes commit at the primary by design —
// and when no replica answers either, the owner's original error
// stands. An epoch-mismatch fence triggers one ring refresh and one
// re-route under the refreshed ring (refresh guards the recursion:
// retrying without a newer ring cannot change the outcome).
func (n *Node) routeShard(ctx context.Context, ring *Ring, k ShardKey, m wire.Message, retry bool) wire.Message {
	reps := ring.ReplicasFor(k)
	resp, down := n.routeOwner(ctx, ring, reps[0], m)
	if retry && responseCode(resp) == wire.CodeStaleEpoch {
		if fresh := n.refreshRingFrom(reps[0], ring); fresh != nil {
			return n.routeShard(ctx, fresh, k, m, false)
		}
	}
	if !down || ring.Replicas() <= 1 {
		return resp
	}
	for _, rep := range reps[1:] {
		if ans, ok := n.readAtReplica(rep, reps[0], m); ok {
			n.nFailover.Add(1)
			return ans
		}
	}
	return resp
}

// routeBatch splits a batch by shard owner, answers/forwards every
// sub-batch concurrently, and reassembles the responses in request
// order. A failed sub-batch fails only its own items.
func (n *Node) routeBatch(ctx context.Context, m wire.BatchQueryRequest) wire.Message {
	if len(m.Items) == 0 {
		return wire.ErrorResponse{Msg: "empty query batch"}
	}
	var out []wire.BatchQueryItem
	if n.lends {
		out = wire.LendItems(len(m.Items))
	} else {
		out = make([]wire.BatchQueryItem, len(m.Items))
	}
	n.batchInto(ctx, n.Ring(), m, nil, out, true)
	return wire.BatchQueryResponse{Items: out}
}

// batchSplit is a batch's items grouped by node in one counting pass, the
// way splitByOwner groups an upload: group g's items sit at
// idxs[off[g]:off[g+1]] in the request and, copied out in order, form the
// sub-batch items[off[g]:off[g+1]]. A split is pooled: the router splits
// every batch it serves, and puts the split back once every group has been
// answered.
type batchSplit struct {
	group []int32 // the group of the k-th item split
	off   []int
	idxs  []int
	items []wire.QueryRequest
}

var splits = sync.Pool{New: func() any { return new(batchSplit) }}

// splitBatch groups the m.Items named by idxs (every item when idxs is
// nil), in their order, into groups by groupOf, which returns a group in
// [0, groups).
func splitBatch(m wire.BatchQueryRequest, idxs []int, groups int, groupOf func(wire.QueryRequest) int) *batchSplit {
	n := len(idxs)
	if idxs == nil {
		n = len(m.Items)
	}
	item := func(k int) int {
		if idxs == nil {
			return k
		}
		return idxs[k]
	}
	s := splits.Get().(*batchSplit)
	s.group = slices.Grow(s.group[:0], n)[:n]
	s.off = slices.Grow(s.off[:0], groups+1)[:groups+1]
	clear(s.off)
	for k := range n {
		g := groupOf(m.Items[item(k)])
		s.group[k] = int32(g)
		s.off[g+1]++
	}
	for g := 1; g <= groups; g++ {
		s.off[g] += s.off[g-1]
	}
	s.idxs = slices.Grow(s.idxs[:0], n)[:n]
	s.items = slices.Grow(s.items[:0], n)[:n]
	// off[g] is group g's next free slot while the groups fill, which
	// leaves it at the start of group g+1; shift the starts back after.
	for k := range n {
		g, i := s.group[k], item(k)
		s.idxs[s.off[g]], s.items[s.off[g]] = i, m.Items[i]
		s.off[g]++
	}
	for g := groups; g > 0; g-- {
		s.off[g] = s.off[g-1]
	}
	s.off[0] = 0
	return s
}

// get returns group g: the request indexes of its items and the items.
func (s *batchSplit) get(g int) ([]int, []wire.QueryRequest) {
	lo, hi := s.off[g], s.off[g+1]
	return s.idxs[lo:hi:hi], s.items[lo:hi:hi]
}

// batchInto answers the m.Items named by idxs (every item when idxs is
// nil) into out, grouped by shard owner under ring. An item whose
// pollutant the ring places nowhere is refused in its own slot. retry
// allows each fenced sub-batch one re-split under a refreshed ring (an
// epoch mismatch rejects the whole sub-batch, so re-splitting repeats no
// item).
func (n *Node) batchInto(ctx context.Context, ring *Ring, m wire.BatchQueryRequest, idxs []int, out []wire.BatchQueryItem, retry bool) {
	refused := ring.Nodes() // the group of the items no node owns
	split := splitBatch(m, idxs, refused+1, func(it wire.QueryRequest) int {
		if o := ring.Owner(it.Pollutant, geo.Point{X: it.X, Y: it.Y}); o >= 0 {
			return o
		}
		return refused
	})
	defer splits.Put(split)
	bad, _ := split.get(refused)
	for _, i := range bad {
		err := unknownPollutant(m.Items[i].Pollutant)
		out[i] = wire.FailedItem(CodeOf(err), err.Error())
	}
	var wg sync.WaitGroup
	for owner := 0; owner < ring.Nodes(); owner++ {
		idxs, items := split.get(owner)
		if len(idxs) == 0 {
			continue
		}
		if owner != n.self && len(idxs) > maxBatchShare {
			// The share cannot be encoded into one frame: refuse it, typed,
			// rather than fail the exchange and call a live owner unreachable.
			failed := wire.FailedItem(wire.CodeTooLarge, fmt.Sprintf("%v: %d items for node %d, over %d per frame",
				ErrTooLarge, len(idxs), owner, maxBatchShare))
			for _, i := range idxs {
				out[i] = failed
			}
			continue
		}
		wg.Add(1)
		go func(owner int, idxs []int, sub wire.BatchQueryRequest) {
			defer wg.Done()
			resp, ownerDown := n.routeOwner(ctx, ring, owner, sub)
			fill := func(failed wire.BatchQueryItem) {
				for _, i := range idxs {
					out[i] = failed
				}
			}
			switch r := resp.(type) {
			case wire.BatchQueryResponse:
				if len(r.Items) != len(idxs) {
					fill(wire.BatchQueryItem{Err: fmt.Sprintf("cluster: node %d answered %d of %d items", owner, len(r.Items), len(idxs))})
				} else {
					for j, i := range idxs {
						out[i] = r.Items[j]
					}
				}
				n.consumed(owner, r)
			case wire.ErrorResponse:
				if retry && r.Code == wire.CodeStaleEpoch {
					if fresh := n.refreshRingFrom(owner, ring); fresh != nil {
						n.batchInto(ctx, fresh, m, idxs, out, false)
						return
					}
				}
				failed := wire.FailedItem(r.Code, r.Msg)
				if ownerDown && ring.Replicas() > 1 {
					n.batchFailover(ring, owner, m, idxs, out, failed)
					return
				}
				fill(failed)
			default:
				fill(wire.BatchQueryItem{Err: fmt.Sprintf("cluster: unexpected response %T", resp)})
			}
		}(owner, idxs, wire.BatchQueryRequest{Items: items})
	}
	wg.Wait()
}

// batchFailover re-answers a dead owner's sub-batch at its replicas:
// items regroup by their shard's first reachable replica and each
// group crosses as one replica-read sub-batch. Items with no live
// replica keep the owner's unreachable error.
func (n *Node) batchFailover(ring *Ring, owner int, m wire.BatchQueryRequest, idxs []int, out []wire.BatchQueryItem, ownerDown wire.BatchQueryItem) {
	// Group 0 is the items no replica can answer; group r+1 is replica r's.
	split := splitBatch(m, idxs, ring.Nodes()+1, func(it wire.QueryRequest) int {
		k := ShardKey{Pollutant: it.Pollutant, Cell: ring.CellOf(geo.Point{X: it.X, Y: it.Y})}
		for _, r := range ring.ReplicasFor(k)[1:] {
			if (r == n.self && n.repl != nil) || (r != n.self && n.transport(r) != nil) {
				return r + 1
			}
		}
		return 0
	})
	defer splits.Put(split)
	for g := 0; g <= ring.Nodes(); g++ {
		sub, items := split.get(g)
		if len(sub) == 0 {
			continue
		}
		var (
			br       wire.BatchQueryResponse
			answered bool
		)
		if g > 0 {
			resp, ok := n.readAtReplica(g-1, owner, wire.BatchQueryRequest{Items: items})
			br, answered = resp.(wire.BatchQueryResponse)
			answered = ok && answered && len(br.Items) == len(sub)
		}
		if answered {
			n.nFailover.Add(1)
			for j, i := range sub {
				out[i] = br.Items[j]
			}
		} else {
			for _, i := range sub {
				out[i] = ownerDown
			}
		}
		if g > 0 {
			n.consumed(g-1, br)
		}
	}
}

// routeIngest splits an upload by shard owner and applies every slice
// on its owner concurrently. The ingest acknowledges only if every
// slice applied; a partial failure names the slices lost.
func (n *Node) routeIngest(ctx context.Context, m wire.IngestRequest) wire.Message {
	if !m.Pollutant.Valid() {
		return WireError(unknownPollutant(m.Pollutant))
	}
	if len(m.Tuples) == 0 {
		return WireError(fmt.Errorf("%w: empty upload", ingest.ErrInvalidBatch))
	}
	var tally ingestTally
	n.ingestInto(ctx, n.Ring(), m.Pollutant, m.Tuples, &tally, true)
	switch {
	case len(tally.errs) == 0:
		return wire.IngestResponse{Ingested: tally.applied}
	case tally.applied == 0:
		// Nothing applied anywhere: the whole upload is safe to retry,
		// so the response keeps a slice's own code (a saturated owner
		// stays ErrSaturated and the HTTP layer's 429 + Retry-After).
		return wire.ErrorResponse{Code: tally.code, Msg: fmt.Sprintf("cluster: ingest failed (0/%d applied): %s",
			len(m.Tuples), strings.Join(tally.errs, "; "))}
	default:
		// Some owners committed their slices: a blind retry would
		// duplicate them, so the partial-ingest code replaces whatever
		// retryable code the failed slices carried.
		return wire.ErrorResponse{Code: wire.CodePartialIngest, Msg: fmt.Sprintf("%s (%d/%d applied): %s",
			ErrPartialIngest.Error(), tally.applied, len(m.Tuples), strings.Join(tally.errs, "; "))}
	}
}

// ingestTally accumulates one routed upload's outcome across its
// concurrently applied slices.
type ingestTally struct {
	mu      sync.Mutex
	applied uint32
	errs    []string
	// code is the lowest (highest-priority) code among the failed
	// slices, CodeNone when every failure was untyped.
	code wire.ErrCode
}

// fail records a slice failure covering tuples unapplied tuples.
func (t *ingestTally) fail(tuples int, code wire.ErrCode, msg string) {
	t.errs = append(t.errs, fmt.Sprintf("%d tuples: %s", tuples, msg))
	if code != wire.CodeNone && (t.code == wire.CodeNone || code < t.code) {
		t.code = code
	}
}

// ingestInto splits tuples by shard owner under ring and applies every
// slice on its owner concurrently, accumulating applied counts and
// slice errors in tally. retry allows each fenced chunk one re-split
// of the slice's unapplied remainder under a refreshed ring — the
// fence rejected the whole chunk without applying it, so the re-split
// duplicates nothing. The split is lent, and goes back once every chunk
// was acknowledged: a chunk answered otherwise may still sit in the local
// engine's ingest queue (its wait was abandoned), which reads it later,
// so then the split stays with the garbage collector.
func (n *Node) ingestInto(ctx context.Context, ring *Ring, pol tuple.Pollutant, tuples []tuple.Raw, tally *ingestTally, retry bool) {
	var legs struct {
		sync.WaitGroup
		unacked atomic.Bool // some chunk was not answered IngestResponse
	}
	groups, backing := splitByOwner(ring, pol, tuples)
	// Peers first, this node's own slice last: the forwarded slices are on
	// the wire while the local one is applied and fsynced.
	for i := range groups {
		owner := (n.self + 1 + i) % len(groups)
		slice := groups[owner]
		if len(slice) == 0 {
			continue
		}
		legs.Add(1)
		go func(owner int, slice []tuple.Raw) {
			defer legs.Done()
			// Chunk the slice so every forwarded frame fits the wire;
			// stop at the first failed chunk (the rest would only widen
			// the partial window).
			for start := 0; start < len(slice); start += maxIngestChunk {
				end := start + maxIngestChunk
				if end > len(slice) {
					end = len(slice)
				}
				chunk := slice[start:end]
				resp, _ := n.routeOwner(ctx, ring, owner, wire.IngestRequest{Pollutant: pol, Tuples: chunk})
				if _, acked := resp.(wire.IngestResponse); !acked {
					legs.unacked.Store(true)
				}
				if retry && responseCode(resp) == wire.CodeStaleEpoch {
					if fresh := n.refreshRingFrom(owner, ring); fresh != nil {
						n.ingestInto(ctx, fresh, pol, slice[start:], tally, false)
						return
					}
				}
				tally.mu.Lock()
				failed := true
				switch r := resp.(type) {
				case wire.IngestResponse:
					tally.applied += r.Ingested
					failed = false
				case wire.ErrorResponse:
					tally.fail(len(slice)-start, r.Code, r.Msg)
				default:
					tally.fail(len(slice)-start, wire.CodeNone, fmt.Sprintf("unexpected response %T", resp))
				}
				tally.mu.Unlock()
				if failed {
					return
				}
			}
		}(owner, slice)
	}
	legs.Wait()
	if !legs.unacked.Load() {
		wire.ReturnTuples(backing)
	}
}

// splitByOwner groups tuples by shard owner under ring, in their order:
// element o of groups is node o's slice. A counting pass sizes the slices
// first, so they are cut from backing, one array the size of the upload
// lent from the wire pools, and each is full — whoever appends to one gets
// a copy, never its neighbour. Each tuple's owner is looked up again in
// the second pass rather than kept from the first: the ring's placement
// table answers it without allocating.
func splitByOwner(ring *Ring, pol tuple.Pollutant, tuples []tuple.Raw) (groups [][]tuple.Raw, backing []tuple.Raw) {
	counts := make([]int, ring.Nodes())
	for _, r := range tuples {
		counts[ring.Owner(pol, r.Pos())]++
	}
	groups = make([][]tuple.Raw, len(counts))
	backing = wire.LendTuples(len(tuples))
	off := 0
	for o, n := range counts {
		groups[o] = backing[off : off : off+n]
		off += n
	}
	for _, r := range tuples {
		o := ring.Owner(pol, r.Pos())
		groups[o] = append(groups[o], r)
	}
	return groups, backing
}

// scatterModel gathers every node's model cover for the window and
// merges them into one response: the union of all region models, valid
// over the intersection of the nodes' validity windows. Nearest-centroid
// evaluation of the merged cover reproduces single-node semantics,
// because every region model still wins exactly at its own shard's
// positions. Nodes that fail (down, or no data for their shards in this
// window) are skipped; the merge fails only when no node answers. On a
// replicated ring, dead nodes' covers come from their replicas; when a
// dead node has no live replica the merge proceeds without its shards
// and the returned Partial names it (nil when the answer is complete).
func (n *Node) scatterModel(ctx context.Context, m wire.ModelRequest) (wire.Message, *Partial) {
	if !m.Pollutant.Valid() {
		return WireError(unknownPollutant(m.Pollutant)), nil
	}
	n.nScatters.Add(1)
	ring := n.Ring()
	legs, firstErr := n.scatter(ctx, ring, m)
	part := n.scatterFailover(ring, legs, m.Pollutant, m)
	var merged wire.ModelResponse
	var got bool
	for _, l := range legs {
		mr, ok := l.resp.(wire.ModelResponse)
		if !ok {
			continue
		}
		if !got {
			merged, got = mr, true
			continue
		}
		if mr.Features != merged.Features {
			return wire.ErrorResponse{Msg: fmt.Sprintf("cluster: mixed model features %q vs %q", merged.Features, mr.Features)}, nil
		}
		merged.ValidFrom = max(merged.ValidFrom, mr.ValidFrom)
		merged.ValidUntil = min(merged.ValidUntil, mr.ValidUntil)
		merged.ValueLo = min(merged.ValueLo, mr.ValueLo)
		merged.ValueHi = max(merged.ValueHi, mr.ValueHi)
		merged.Centroids = append(merged.Centroids, mr.Centroids...)
		merged.Coefs = append(merged.Coefs, mr.Coefs...)
	}
	if !got {
		return firstErr, nil
	}
	return merged, part
}

// scatterHeatmap rasterizes the whole cluster: every node renders its
// own shard's view, and the merge assembles the union region by
// sampling, for each output pixel, the grid of the node that owns the
// pixel's shard — so every shard's data is drawn by its owner and dead
// nodes only blank their own shards (pixels of lost shards fall back to
// the nearest surviving grid).
// On a replicated ring, dead nodes' grids come from their replicas;
// unhealed legs blank their shards and the returned Partial names them
// (nil when the raster is complete). lend merges into a raster lent from
// the wire pools, for a response that goes back through Release; every
// leg goes back as soon as it is merged (see consumed).
func (n *Node) scatterHeatmap(ctx context.Context, m wire.HeatmapRequest, lend bool) (wire.Message, *Partial) {
	n.nScatters.Add(1)
	if m.Cols < 1 || m.Rows < 1 {
		return wire.ErrorResponse{Msg: fmt.Sprintf("heatmap: grid %dx%d, want >= 1x1", m.Cols, m.Rows)}, nil
	}
	if int(m.Cols)*int(m.Rows) > MaxHeatmapCells {
		// A larger raster could not cross back from the peers in one
		// frame; reject loudly instead of silently rendering foreign
		// shards from fallback grids.
		return WireError(fmt.Errorf("%w: heatmap grid %dx%d over %d cells",
			ErrTooLarge, m.Cols, m.Rows, MaxHeatmapCells)), nil
	}
	if !m.Pollutant.Valid() {
		return WireError(unknownPollutant(m.Pollutant)), nil
	}
	ring := n.Ring()
	legs, firstErr := n.scatter(ctx, ring, m)
	part := n.scatterFailover(ring, legs, m.Pollutant, m)
	byNode := make([]*wire.HeatmapResponse, ring.Nodes())
	var any bool
	union := geo.Rect{}
	for i, l := range legs {
		hr, ok := l.resp.(wire.HeatmapResponse)
		if !ok {
			continue
		}
		byNode[i] = &hr
		if !any {
			union, any = hr.Region, true
		} else {
			union = union.Union(hr.Region)
		}
	}
	if !any {
		return firstErr, nil
	}
	if m.HasRegion {
		union = m.Region
	}
	out := wire.HeatmapResponse{Region: union, Cols: m.Cols, Rows: m.Rows, T: m.T}
	if cells := int(m.Cols) * int(m.Rows); lend {
		out.Values = wire.LendRaster(cells)
	} else {
		out.Values = make([]float64, cells)
	}
	dx := (union.Max.X - union.Min.X) / float64(m.Cols)
	dy := (union.Max.Y - union.Min.Y) / float64(m.Rows)
	for j := 0; j < int(m.Rows); j++ {
		y := union.Min.Y + (float64(j)+0.5)*dy
		for i := 0; i < int(m.Cols); i++ {
			p := geo.Point{X: union.Min.X + (float64(i)+0.5)*dx, Y: y}
			src := byNode[ring.Owner(m.Pollutant, p)]
			if src == nil {
				src = nearestGrid(byNode, p)
			}
			out.Values[j*int(m.Cols)+i] = sampleGrid(src, p)
		}
	}
	for _, l := range legs {
		n.consumed(l.from, l.resp) // merged
	}
	return out, part
}

// leg is one node's part of a scatter: its answer, the node that gave it
// — the leg's own, or the replica that healed it — and whether the leg's
// node was down (a transport failure, or no transport).
type leg struct {
	resp wire.Message
	from int
	down bool
}

// scatter fans a request out to every live node (the local engine
// included) and returns one leg per node, indexed by node, and the first
// error response, to report when nothing succeeds. Tombstoned slots are
// skipped — they own no shards. Scatter legs are sent epoch-agnostic
// (Epoch 0): the merge samples by ownership, so a peer one epoch away
// answering from its own view is at worst briefly stale, and fencing
// every leg would fail whole rasters during each transition for no
// correctness gain.
func (n *Node) scatter(ctx context.Context, ring *Ring, m wire.Message) ([]leg, wire.ErrorResponse) {
	legs := make([]leg, ring.Nodes())
	var wg sync.WaitGroup
	for i := range legs {
		legs[i].from = i
		if !ring.IsLive(i) {
			continue
		}
		if i != n.self && n.transport(i) == nil {
			legs[i].down = true
			continue
		}
		wg.Add(1)
		go func(l *leg, i int) {
			defer wg.Done()
			if i == n.self {
				n.nLocal.Add(1)
				l.resp = n.localHandle(ctx, m)
				return
			}
			n.nForwarded.Add(1)
			resp, err := n.transport(i).Exchange(wire.Forwarded{Inner: m})
			if err != nil {
				n.nErrors.Add(1)
				l.down = true
				resp = unreachable(i, ring, err)
			}
			l.resp = resp
		}(&legs[i], i)
	}
	wg.Wait()
	firstErr := wire.ErrorResponse{Msg: "cluster: no node answered"}
	for _, l := range legs {
		if er, ok := l.resp.(wire.ErrorResponse); ok {
			firstErr = er
			break
		}
	}
	return legs, firstErr
}

// scatterFailover re-asks a scatter's dead legs at their replicas,
// patching healed answers, and who gave them, into legs in place. Legs
// with no live replica are recorded in the returned Partial — nil when
// every leg answered or the ring is unreplicated, so unreplicated
// clusters keep the all-or-nothing v1.2 contract byte for byte.
func (n *Node) scatterFailover(ring *Ring, legs []leg, pol tuple.Pollutant, m wire.Message) *Partial {
	if ring.Replicas() <= 1 {
		return nil
	}
	var part *Partial
	for i := range legs {
		if !legs[i].down {
			continue
		}
		owned := len(ring.OwnedCells(i, pol))
		if owned == 0 {
			// The dead node holds no shard of this pollutant; its leg
			// contributes nothing and its loss is not partial.
			continue
		}
		healed := false
		for _, rep := range ring.ReplicaPeers(i, pol) {
			if ans, ok := n.readAtReplica(rep, i, m); ok {
				legs[i].resp, legs[i].from = ans, rep
				n.nFailover.Add(1)
				healed = true
				break
			}
		}
		if !healed {
			if part == nil {
				part = &Partial{}
			}
			part.Dead = append(part.Dead, i)
			part.StaleShards += owned
		}
	}
	return part
}

// nearestGrid picks the available response whose region is closest to p.
func nearestGrid(byNode []*wire.HeatmapResponse, p geo.Point) *wire.HeatmapResponse {
	var best *wire.HeatmapResponse
	bestD := 0.0
	for _, hr := range byNode {
		if hr == nil {
			continue
		}
		d := hr.Region.DistToPoint(p)
		if best == nil || d < bestD {
			best, bestD = hr, d
		}
	}
	return best
}

// sampleGrid reads the grid cell containing p, clamping positions
// outside the grid's region to its edge cells.
func sampleGrid(hr *wire.HeatmapResponse, p geo.Point) float64 {
	fx := (p.X - hr.Region.Min.X) / (hr.Region.Max.X - hr.Region.Min.X)
	fy := (p.Y - hr.Region.Min.Y) / (hr.Region.Max.Y - hr.Region.Min.Y)
	i := min(max(int(fx*float64(hr.Cols)), 0), int(hr.Cols)-1)
	j := min(max(int(fy*float64(hr.Rows)), 0), int(hr.Rows)-1)
	return hr.Values[j*int(hr.Cols)+i]
}

// errNoTransport is why a peer this node holds no transport to is
// unreachable.
var errNoTransport = errors.New("no transport")

// unreachable is the response for a peer whose transport failed.
func unreachable(node int, ring *Ring, err error) wire.ErrorResponse {
	return WireError(fmt.Errorf("%w: node %d (%s): %v", ErrNodeUnreachable, node, ring.Addr(node), err))
}

// --- Typed serving surface -------------------------------------------
//
// The same method set server.Engine serves a single node with, so the
// facade and the HTTP API call one backend either way. These methods are
// the only place that maps a typed request to the shard that answers it.
// A failure that crossed the cluster comes back through ErrorFromWire,
// so errors.Is matches the same sentinel whether the local engine or a
// peer's produced it.

// answer narrows a response to the message type the caller asked for,
// turning anything else into its Go error.
func answer[T wire.Message](resp wire.Message) (T, error) {
	var none T
	switch r := resp.(type) {
	case T:
		return r, nil
	case wire.ErrorResponse:
		return none, ErrorFromWire(r.Code, r.Msg)
	default:
		return none, fmt.Errorf("cluster: unexpected response %T", resp)
	}
}

// partialErr is the error a scatter-gathered answer travels with: nil
// when complete, a *PartialError naming what is missing otherwise.
func partialErr(part *Partial) error {
	if part == nil {
		return nil
	}
	return &PartialError{Partial: *part}
}

// Query answers one request: from the local engine when this node owns
// the shard, forwarded otherwise.
func (n *Node) Query(ctx context.Context, req query.Request) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	r, err := answer[wire.QueryResponse](n.HandleMessageCtx(ctx,
		wire.QueryRequest{T: req.T, X: req.X, Y: req.Y, Pollutant: req.Pollutant}))
	return r.Value, err
}

// QueryBatch answers a batch with per-item results, splitting it across
// shard owners. Every share, this node's own included, travels as a wire
// BatchQueryRequest.
func (n *Node) QueryBatch(ctx context.Context, reqs []query.Request) ([]query.BatchResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(reqs) == 0 {
		return nil, errors.New("cluster: empty query batch")
	}
	m := wire.BatchQueryRequest{Items: make([]wire.QueryRequest, len(reqs))}
	for i, req := range reqs {
		m.Items[i] = wire.QueryRequest{T: req.T, X: req.X, Y: req.Y, Pollutant: req.Pollutant}
	}
	r, err := answer[wire.BatchQueryResponse](n.HandleMessageCtx(ctx, m))
	if err != nil {
		return nil, err
	}
	out := make([]query.BatchResult, len(r.Items))
	for i, it := range r.Items {
		if it.Err != "" {
			out[i] = query.BatchResult{Err: ErrorFromWire(it.Code(), it.Err)}
		} else {
			out[i] = query.BatchResult{Value: it.Value}
		}
	}
	n.Release(nil, r)
	return out, nil
}

// Ingest applies an upload through the cluster, splitting it across
// shard owners. Every slice, this node's own included, commits through
// the node: that is what appends it to the replication log replicas and
// membership handoffs stream from. A clustered ingest therefore never
// waits for queue space — a saturated owner sheds its slice with
// ingest.ErrSaturated, retryable when no slice applied and
// ErrPartialIngest when some did. An empty upload is a no-op, as it is
// on a single node's pipeline.
func (n *Node) Ingest(ctx context.Context, pol tuple.Pollutant, b tuple.Batch) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(b) == 0 {
		return nil
	}
	_, err := answer[wire.IngestResponse](n.HandleMessageCtx(ctx, wire.IngestRequest{Pollutant: pol, Tuples: b}))
	return err
}

// TryIngest is Ingest, which already sheds instead of waiting.
func (n *Node) TryIngest(ctx context.Context, pol tuple.Pollutant, b tuple.Batch) error {
	return n.Ingest(ctx, pol, b)
}

// Heatmap rasterizes the whole cluster's view of pollutant p at time t.
// On a replicated ring the grid may come back alongside a *PartialError
// (errors.Is(err, ErrPartialResult)) when a dead node had no live
// replica: the grid is still usable, minus the named node's shards.
func (n *Node) Heatmap(ctx context.Context, p tuple.Pollutant, t float64, cols, rows int) (*heatmap.Grid, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cols < 1 || cols > int(^uint16(0)) || rows < 1 || rows > int(^uint16(0)) {
		return nil, fmt.Errorf("cluster: heatmap grid %dx%d out of range", cols, rows)
	}
	resp, part := n.scatterHeatmap(ctx, wire.HeatmapRequest{T: t, Pollutant: p, Cols: uint16(cols), Rows: uint16(rows)}, false)
	r, err := answer[wire.HeatmapResponse](resp)
	if err != nil {
		return nil, err
	}
	return r.Grid(), partialErr(part)
}

// HeatmapCoverInto is Heatmap plus the cover to annotate the raster from
// (centroid markers), merged across shards by a second scatter so every
// shard's centroids appear. The grid is the scatter-gather's own: g,
// which a single-node engine renders into, is left untouched. Either
// scatter may come back partial; the usable answer then travels with
// its *PartialError.
func (n *Node) HeatmapCoverInto(ctx context.Context, _ *heatmap.Grid, p tuple.Pollutant, t float64, cols, rows int) (*heatmap.Grid, *core.Cover, error) {
	grid, err := n.Heatmap(ctx, p, t, cols, rows)
	if err != nil && !errors.Is(err, ErrPartialResult) {
		return nil, nil, err
	}
	cv, coverErr := n.CoverAt(ctx, p, t)
	if coverErr != nil && !errors.Is(coverErr, ErrPartialResult) {
		return nil, nil, coverErr
	}
	if err == nil {
		err = coverErr
	}
	return grid, cv, err
}

// Model returns the cluster-merged model cover of pollutant p at time t.
// Like Heatmap, a replicated ring may return both a usable cover and a
// *PartialError naming dead nodes whose shards are missing from it.
func (n *Node) Model(ctx context.Context, p tuple.Pollutant, t float64) (wire.ModelResponse, error) {
	if err := ctx.Err(); err != nil {
		return wire.ModelResponse{}, err
	}
	resp, part := n.scatterModel(ctx, wire.ModelRequest{T: t, Pollutant: p})
	r, err := answer[wire.ModelResponse](resp)
	if err != nil {
		return wire.ModelResponse{}, err
	}
	return r, partialErr(part)
}

// CoverAt returns pollutant p's cover valid at t, rebuilt from the
// merged Model, so evaluating it anywhere in the region answers from the
// owning shard's models. A partial merge returns the usable cover
// alongside its *PartialError.
func (n *Node) CoverAt(ctx context.Context, p tuple.Pollutant, t float64) (*core.Cover, error) {
	mr, err := n.Model(ctx, p, t)
	if err != nil && !errors.Is(err, ErrPartialResult) {
		return nil, err
	}
	cv, convErr := wire.CoverFromModelResponse(mr)
	if convErr != nil {
		return nil, convErr
	}
	return cv, err
}
