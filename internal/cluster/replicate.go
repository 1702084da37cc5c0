// R-way shard replication: the primary-commits-then-streams write path,
// the pull-based catch-up protocol (a replica that detects a sequence
// gap asks "I have seq N" and receives checkpoint-or-suffix chunks),
// and the mirror read path that answers a dead owner's shards.
//
// Replication granularity is (origin node, pollutant): a replica holds
// a full mirror of every pollutant stream it backs for a primary,
// built by replaying the primary's committed ingests in commit order —
// which is what makes a synced mirror's query answers byte-equal to
// the primary's. Placement is Ring.ReplicasFor (successor lists), so
// any node in a shard's replica set backs the full (owner, pollutant)
// mirror covering that shard.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/proto"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// ErrPartialResult marks a scatter-gathered answer assembled without
// some shards' data: their owner is down and no replica could answer.
// The result is still returned alongside the error (availability over
// completeness); errors.As against *PartialError recovers which nodes
// are dead and how many shards are stale. Only replicated clusters
// (ring Replicas > 1) report partials — unreplicated rings keep the
// pre-replication contract.
var ErrPartialResult = errors.New("cluster: partial result; unreachable owners have no live replica")

// Partial describes the scope of a partial scatter-gather result.
type Partial struct {
	// Dead lists node IDs that neither answered nor had a live replica.
	Dead []int
	// StaleShards counts the shards of the request's pollutant owned by
	// the dead nodes: their data is missing from the result.
	StaleShards int
}

// PartialError attaches a Partial to an error chain. errors.Is(err,
// ErrPartialResult) detects it; errors.As recovers the detail.
type PartialError struct{ Partial }

// Error implements error.
func (e *PartialError) Error() string {
	return fmt.Sprintf("%s: node(s) %v down, %d shards stale", ErrPartialResult.Error(), e.Dead, e.StaleShards)
}

// Unwrap links the sentinel into the chain.
func (e *PartialError) Unwrap() error { return ErrPartialResult }

// Replication tunables.
const (
	// replQueue bounds each peer stream worker's frame queue. An
	// overflowing queue drops frames rather than stalling the commit
	// path; the replica detects the sequence gap and heals via catch-up.
	replQueue = 256
	// logRetain caps each pollutant's replication log (tuples).
	// A replica behind the log start takes a snapshot reset; the cap
	// should comfortably cover the engines' retention window so resets
	// stay rare.
	logRetain = 1 << 17
	// maxPullRounds bounds one catch-up session (4+ full logs); a
	// replica that cannot converge in that many chunks re-enters
	// catch-up on the next gapped stream frame.
	maxPullRounds = 256
)

// maxCatchupChunk bounds one catch-up chunk so the response fits a
// proto frame (a ReplicaCatchupResponse is 14 + 32*tuples bytes).
var maxCatchupChunk = (proto.MaxFrameBytes - 64) / 32

// ReplicationConfig configures a node's replication role.
type ReplicationConfig struct {
	// NewMirror creates one empty mirror engine. The cluster package
	// treats mirrors as opaque Handlers (the facade passes a factory
	// producing server engines configured identically to the local one,
	// which is what makes mirror answers byte-equal). Required when the
	// ring's replication factor exceeds 1 and the node owns shards.
	NewMirror func() Handler
}

// ReplicationStats counts a node's replication activity.
type ReplicationStats struct {
	// Streamed counts frames handed to peer stream workers.
	Streamed int64 `json:"streamed"`
	// StreamDrops counts frames dropped on a full worker queue.
	StreamDrops int64 `json:"streamDrops"`
	// StreamErrors counts failed peer exchanges (stream and catch-up).
	StreamErrors int64 `json:"streamErrors"`
	// GapNaks counts streamed frames a replica refused out of order.
	GapNaks int64 `json:"gapNaks"`
	// Applied counts stream frames applied to local mirrors.
	Applied int64 `json:"applied"`
	// Gaps counts sequence gaps detected on local mirrors.
	Gaps int64 `json:"gaps"`
	// Catchups counts catch-up sessions started.
	Catchups int64 `json:"catchups"`
	// Snapshots counts mirror resets taken during catch-up.
	Snapshots int64 `json:"snapshots"`
	// MirrorReads counts reads answered from local mirrors.
	MirrorReads int64 `json:"mirrorReads"`
	// Mirrors is the number of (origin, pollutant) mirrors held.
	Mirrors int `json:"mirrors"`
}

// mirrorKey identifies one mirror: the primary it mirrors and the
// pollutant stream.
type mirrorKey struct {
	origin int
	pol    tuple.Pollutant
}

// mirror is one (origin, pollutant) mirror: the handler holding the
// replayed state, and its own copy of the stream's log tail, pruned
// like a primary log. log.next() is the replication sequence the mirror
// has applied; the tail is what lets this replica serve a ShardTransfer
// for a dead origin during promotion, and replay its mirror into its own
// primary state when it is the one promoting.
type mirror struct {
	mu      sync.Mutex
	h       Handler
	pulling bool
	log     seqLog
}

// replLog is one pollutant's replication log on a primary: the
// committed tuples, pruned to the retention cap.
type replLog struct {
	mu sync.Mutex
	seqLog
}

// replicator holds a node's replication state: the primary-side logs
// and peer stream workers, and the replica-side mirrors.
type replicator struct {
	n         *Node
	newMirror func() Handler

	logMu sync.Mutex
	logs  map[tuple.Pollutant]*replLog

	peerMu sync.Mutex
	peers  map[int]chan replFrame
	wg     sync.WaitGroup
	closed atomic.Bool

	mirMu   sync.Mutex
	mirrors map[mirrorKey]*mirror

	streamed, drops, streamErrs, gapNaks atomic.Int64
	applied, gaps, catchups, snapshots   atomic.Int64
	reads                                atomic.Int64
}

func newReplicator(n *Node, cfg ReplicationConfig) *replicator {
	return &replicator{
		n:         n,
		newMirror: cfg.NewMirror,
		logs:      make(map[tuple.Pollutant]*replLog),
		peers:     make(map[int]chan replFrame),
		mirrors:   make(map[mirrorKey]*mirror),
	}
}

func (r *replicator) stats() ReplicationStats {
	r.mirMu.Lock()
	mirrors := len(r.mirrors)
	r.mirMu.Unlock()
	return ReplicationStats{
		Streamed:     r.streamed.Load(),
		StreamDrops:  r.drops.Load(),
		StreamErrors: r.streamErrs.Load(),
		GapNaks:      r.gapNaks.Load(),
		Applied:      r.applied.Load(),
		Gaps:         r.gaps.Load(),
		Catchups:     r.catchups.Load(),
		Snapshots:    r.snapshots.Load(),
		MirrorReads:  r.reads.Load(),
		Mirrors:      mirrors,
	}
}

func (r *replicator) log(pol tuple.Pollutant) *replLog {
	r.logMu.Lock()
	defer r.logMu.Unlock()
	lg, ok := r.logs[pol]
	if !ok {
		lg = &replLog{seqLog: seqLog{retain: logRetain}}
		r.logs[pol] = lg
	}
	return lg
}

// close stops the peer stream workers, waits for in-flight catch-up
// sessions to notice the shutdown, and releases any resources the
// mirror handlers hold (the facade's mirror factory builds full
// engines, whose pipelines need an explicit Close).
func (r *replicator) close() {
	r.peerMu.Lock()
	if !r.closed.Load() {
		r.closed.Store(true)
		for _, q := range r.peers {
			close(q)
		}
	}
	r.peerMu.Unlock()
	r.wg.Wait()
	r.mirMu.Lock()
	mirrors := r.mirrors
	r.mirrors = make(map[mirrorKey]*mirror)
	r.mirMu.Unlock()
	for _, m := range mirrors {
		m.mu.Lock()
		if c, ok := m.h.(io.Closer); ok {
			c.Close()
		}
		m.mu.Unlock()
	}
}

// --- primary side -----------------------------------------------------

// localIngest applies an ingest to the local engine and, on success,
// appends it to the replication log and streams it to this node's
// replica peers. The log lock spans the engine apply so the log's
// sequence order is exactly the engine's commit order — the property
// that makes replica replay converge to byte-equal answers.
func (n *Node) localIngest(ctx context.Context, m wire.IngestRequest) wire.Message {
	r := n.repl
	if r == nil || len(m.Tuples) == 0 {
		return n.localHandle(ctx, m)
	}
	lg := r.log(m.Pollutant)
	lg.mu.Lock()
	defer lg.mu.Unlock()
	resp := n.localHandle(ctx, m)
	if _, ok := resp.(wire.IngestResponse); !ok {
		return resp
	}
	seq := lg.next()
	lg.append(m.Tuples)
	r.fanout(m.Pollutant, seq, m.Tuples)
	return resp
}

// replFrame is one committed slice queued for a replica peer. Its tuples
// are the node's own copy, shared by every peer's frame of the commit.
type replFrame struct {
	wire.ReplicaIngest
	shared *sharedTuples
}

// sharedTuples is a committed slice copied into lent tuples, for the
// stream workers that send it after the request it came in has been
// answered and its memory reused. The last worker done with it gives it
// back.
type sharedTuples struct {
	tuples []tuple.Raw
	refs   atomic.Int32
}

// done drops one frame's hold on the tuples.
func (s *sharedTuples) done() {
	if s.refs.Add(-1) == 0 {
		wire.ReturnTuples(s.tuples)
	}
}

// fanout enqueues one committed slice to every replica peer's stream
// worker. tuples belong to the request being served, so the frames carry
// a copy. Enqueue never blocks: a full queue drops the frame and the
// replica heals through catch-up.
func (r *replicator) fanout(pol tuple.Pollutant, seq uint64, tuples []tuple.Raw) {
	peers := r.n.Ring().ReplicaPeers(r.n.self, pol)
	if len(peers) == 0 {
		return
	}
	shared := &sharedTuples{tuples: wire.LendTuples(len(tuples))}
	copy(shared.tuples, tuples)
	shared.refs.Store(int32(len(peers)))
	frame := replFrame{
		ReplicaIngest: wire.ReplicaIngest{Origin: uint16(r.n.self), Pollutant: pol, Seq: seq, Tuples: shared.tuples},
		shared:        shared,
	}
	for _, peer := range peers {
		q := r.peerQueue(peer)
		if q == nil {
			shared.done() // shutting down
			continue
		}
		select {
		case q <- frame:
			r.streamed.Add(1)
		default:
			r.drops.Add(1)
			shared.done()
		}
	}
}

// peerQueue returns (starting its worker on first use) the stream
// queue to one replica peer.
func (r *replicator) peerQueue(peer int) chan replFrame {
	r.peerMu.Lock()
	defer r.peerMu.Unlock()
	if r.closed.Load() {
		return nil
	}
	q, ok := r.peers[peer]
	if !ok {
		q = make(chan replFrame, replQueue)
		r.peers[peer] = q
		r.wg.Add(1)
		go r.streamTo(peer, q)
	}
	return q
}

// streamTo ships one peer's queued frames in order. Failures only
// count: the peer detects the resulting gap and pulls a catch-up.
func (r *replicator) streamTo(peer int, q chan replFrame) {
	defer r.wg.Done()
	for f := range q {
		r.ship(peer, f.ReplicaIngest)
		f.shared.done()
	}
}

// ship sends one frame to a replica peer.
func (r *replicator) ship(peer int, f wire.ReplicaIngest) {
	t := r.n.transport(peer)
	if t == nil {
		r.streamErrs.Add(1)
		return
	}
	resp, err := t.Exchange(f)
	if err != nil {
		r.streamErrs.Add(1)
		return
	}
	if _, ok := resp.(wire.IngestResponse); !ok {
		r.gapNaks.Add(1)
	}
}

// handleCatchup answers a replica's "I have seq N": a suffix chunk
// when the log still covers N, a snapshot reset (stream from the log
// start after dropping mirror state) when the replica is behind the
// log or has diverged past it.
func (n *Node) handleCatchup(m wire.ReplicaCatchupRequest) wire.Message {
	r := n.repl
	if r == nil {
		return replicaMiss("node does not replicate")
	}
	lg := r.log(m.Pollutant)
	lg.mu.Lock()
	defer lg.mu.Unlock()
	return lg.suffix(m.Have, maxCatchupChunk)
}

// --- replica side -----------------------------------------------------

// getMirror returns (creating on first use) the mirror of one
// (origin, pollutant) stream.
func (r *replicator) getMirror(origin int, pol tuple.Pollutant) *mirror {
	k := mirrorKey{origin: origin, pol: pol}
	r.mirMu.Lock()
	m, ok := r.mirrors[k]
	r.mirMu.Unlock()
	if ok {
		return m
	}
	// The factory may build a whole engine; keep it outside the lock and
	// resolve creation races by discarding the loser.
	h := r.newMirror()
	r.mirMu.Lock()
	m, ok = r.mirrors[k]
	if !ok {
		m = &mirror{h: h, log: seqLog{retain: logRetain}}
		r.mirrors[k] = m
	}
	r.mirMu.Unlock()
	if ok {
		if c, isCloser := h.(io.Closer); isCloser {
			c.Close()
		}
	}
	return m
}

// lookupMirror returns an existing mirror or nil; the read path never
// creates empty mirrors.
func (r *replicator) lookupMirror(origin int, pol tuple.Pollutant) *mirror {
	r.mirMu.Lock()
	defer r.mirMu.Unlock()
	return r.mirrors[mirrorKey{origin: origin, pol: pol}]
}

// handler returns the mirror's current handler (it swaps on snapshot
// resets).
func (m *mirror) handler() Handler {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.h
}

// handleReplicaIngest applies one streamed slice to the mirror of its
// origin. Frames must continue the applied sequence: overlaps apply
// their unseen suffix, duplicates ack as no-ops, and a gap refuses the
// frame and starts a catch-up pull instead of applying out of order.
func (n *Node) handleReplicaIngest(m wire.ReplicaIngest) wire.Message {
	r := n.repl
	if r == nil {
		return replicaMiss("node does not replicate")
	}
	origin := int(m.Origin)
	if origin == n.self || origin >= n.Ring().Nodes() {
		return wire.ErrorResponse{Msg: fmt.Sprintf("replica: bad origin node %d", m.Origin)}
	}
	mir := r.getMirror(origin, m.Pollutant)
	mir.mu.Lock()
	defer mir.mu.Unlock()
	have, end := mir.log.next(), m.Seq+uint64(len(m.Tuples))
	switch {
	case end <= have:
		return wire.IngestResponse{Ingested: 0} // duplicate delivery
	case m.Seq > have:
		r.gaps.Add(1)
		r.schedulePullLocked(origin, m.Pollutant, mir)
		return wire.ErrorResponse{Msg: fmt.Sprintf("replica: sequence gap (have %d, got %d)", have, m.Seq)}
	}
	tuples := m.Tuples[have-m.Seq:]
	resp := mir.h.HandleMessage(wire.IngestRequest{Pollutant: m.Pollutant, Tuples: tuples})
	if _, ok := resp.(wire.IngestResponse); !ok {
		if er, isErr := resp.(wire.ErrorResponse); isErr {
			return wire.ErrorResponse{Msg: "replica: mirror apply: " + er.Msg}
		}
		return wire.ErrorResponse{Msg: fmt.Sprintf("replica: mirror apply: unexpected %T", resp)}
	}
	mir.log.append(tuples)
	r.applied.Add(1)
	return wire.IngestResponse{Ingested: uint32(len(tuples))}
}

// schedulePullLocked starts (once) a catch-up session for a mirror.
// Caller holds mir.mu.
func (r *replicator) schedulePullLocked(origin int, pol tuple.Pollutant, mir *mirror) {
	if mir.pulling || r.closed.Load() {
		return
	}
	mir.pulling = true
	r.wg.Add(1)
	go r.pull(origin, pol, mir)
}

// pull runs one catch-up session: repeated "I have seq N" exchanges
// against the origin, applying suffix chunks (or a snapshot reset)
// until the origin reports Done.
func (r *replicator) pull(origin int, pol tuple.Pollutant, mir *mirror) {
	defer r.wg.Done()
	defer func() {
		mir.mu.Lock()
		mir.pulling = false
		mir.mu.Unlock()
	}()
	r.catchups.Add(1)
	for i := 0; i < maxPullRounds; i++ {
		if r.closed.Load() {
			return
		}
		t := r.n.transport(origin)
		if t == nil {
			return
		}
		mir.mu.Lock()
		have := mir.log.next()
		mir.mu.Unlock()
		resp, err := t.Exchange(wire.ReplicaCatchupRequest{Pollutant: pol, Have: have})
		if err != nil {
			r.streamErrs.Add(1)
			return
		}
		cr, ok := resp.(wire.ReplicaCatchupResponse)
		if !ok {
			return
		}
		// A snapshot reset swaps in a fresh mirror engine; build it (the
		// factory may be slow) before taking the mirror lock, and close
		// the replaced handler after releasing it.
		var fresh, old Handler
		if cr.Snapshot {
			fresh = r.newMirror()
		}
		mir.mu.Lock()
		if cr.Snapshot {
			old = mir.h
			mir.h = fresh
			mir.log.reset(cr.From)
			r.snapshots.Add(1)
		}
		done := r.applyChunkLocked(mir, pol, cr)
		mir.mu.Unlock()
		if c, isCloser := old.(io.Closer); isCloser {
			c.Close()
		}
		if done {
			return
		}
	}
}

// applyChunkLocked applies one catch-up chunk to a mirror; it reports
// whether the session is over (converged, or the chunk did not line up
// and the session aborts). Caller holds mir.mu.
func (r *replicator) applyChunkLocked(mir *mirror, pol tuple.Pollutant, cr wire.ReplicaCatchupResponse) bool {
	have, end := mir.log.next(), cr.From+uint64(len(cr.Tuples))
	if cr.From > have {
		return true // chunk does not line up (log moved); next gap retries
	}
	if end > have {
		tuples := cr.Tuples[have-cr.From:]
		resp := mir.h.HandleMessage(wire.IngestRequest{Pollutant: pol, Tuples: tuples})
		if _, ok := resp.(wire.IngestResponse); !ok {
			return true // mirror refused (e.g. saturated); next gap retries
		}
		mir.log.append(tuples)
	}
	return cr.Done
}

// handleReplicaRead answers a read from the mirror of the named origin
// — the failover path for a dead primary's shards. Batch items split
// across per-pollutant mirrors; everything else resolves one mirror.
func (n *Node) handleReplicaRead(m wire.ReplicaRead) wire.Message {
	r := n.repl
	if r == nil {
		return replicaMiss("node does not replicate")
	}
	origin := int(m.Origin)
	switch inner := m.Inner.(type) {
	case wire.QueryRequest:
		return r.mirrorAnswer(origin, inner.Pollutant, inner)
	case wire.HeatmapRequest:
		return r.mirrorAnswer(origin, inner.Pollutant, inner)
	case wire.ModelRequest:
		return r.mirrorAnswer(origin, inner.Pollutant, inner)
	case wire.BatchQueryRequest:
		out := make([]wire.BatchQueryItem, len(inner.Items))
		groups := make(map[tuple.Pollutant][]int)
		for i, it := range inner.Items {
			groups[it.Pollutant] = append(groups[it.Pollutant], i)
		}
		for pol, idxs := range groups {
			sub := wire.BatchQueryRequest{Items: make([]wire.QueryRequest, len(idxs))}
			for j, i := range idxs {
				sub.Items[j] = inner.Items[i]
			}
			resp := r.mirrorAnswer(origin, pol, sub)
			switch rr := resp.(type) {
			case wire.BatchQueryResponse:
				if len(rr.Items) != len(idxs) {
					for _, i := range idxs {
						out[i] = wire.BatchQueryItem{Err: fmt.Sprintf("replica: mirror answered %d of %d items", len(rr.Items), len(idxs))}
					}
					continue
				}
				for j, i := range idxs {
					out[i] = rr.Items[j]
				}
			case wire.ErrorResponse:
				for _, i := range idxs {
					out[i] = wire.FailedItem(rr.Code, rr.Msg)
				}
			default:
				for _, i := range idxs {
					out[i] = wire.BatchQueryItem{Err: fmt.Sprintf("replica: unexpected mirror response %T", resp)}
				}
			}
		}
		return wire.BatchQueryResponse{Items: out}
	default:
		return replicaMiss(fmt.Sprintf("unsupported read %T", m.Inner))
	}
}

// mirrorAnswer answers one request from an existing mirror.
func (r *replicator) mirrorAnswer(origin int, pol tuple.Pollutant, m wire.Message) wire.Message {
	mir := r.lookupMirror(origin, pol)
	if mir == nil {
		return replicaMiss(fmt.Sprintf("no mirror of node %d", origin))
	}
	r.reads.Add(1)
	return mir.handler().HandleMessage(m)
}

// --- failover read path ----------------------------------------------

// replicaMiss is the answer of a node asked to stand in for an origin it
// cannot serve (no mirror, not replicating) — as opposed to a mirror's
// genuine data answer or data error.
func replicaMiss(why string) wire.ErrorResponse {
	return WireError(fmt.Errorf("%w: %s", ErrReplicaMiss, why))
}

// readAtReplica tries to answer m — a read for a shard owned by the
// unreachable node origin — at replica node rep (this node's own
// mirror, or a peer over the wire).
func (n *Node) readAtReplica(rep, origin int, m wire.Message) (wire.Message, bool) {
	var resp wire.Message
	if rep == n.self {
		if n.repl == nil {
			return nil, false
		}
		resp = n.handleReplicaRead(wire.ReplicaRead{Origin: uint16(origin), Inner: m})
	} else {
		t := n.transport(rep)
		if t == nil {
			return nil, false
		}
		var err error
		resp, err = t.Exchange(wire.ReplicaRead{Origin: uint16(origin), Inner: m})
		if err != nil {
			n.nErrors.Add(1)
			return nil, false
		}
	}
	if resp == nil || responseCode(resp) == wire.CodeReplicaMiss {
		return nil, false
	}
	return resp, true
}
