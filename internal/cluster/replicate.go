// R-way shard replication: the primary-commits-then-streams write path,
// pull-based catch-up (a replica that detects a sequence gap asks the
// origin "I have seq N" with a ShardTransfer, the handoffs' pull, and
// receives checkpoint-or-suffix chunks), and the mirror read path that
// answers a dead owner's shards.
//
// Replication granularity is (origin node, pollutant): a replica holds
// a full mirror of every pollutant stream it backs for a primary.
// Placement is per node (Ring.ReplicasFor): a shard's replicas are its
// owner's R-1 mirrors, the next R-1 live node IDs after the owner, so a
// primary streams every commit to exactly R-1 peers however many cells
// it owns, and any node in a shard's replica set holds the full (owner,
// pollutant) mirror covering that shard.
//
// A mirror is its log: the primary's committed ingests in commit order,
// less the tuples of windows the mirror engine's retention would already
// have evicted, every full chunk of it packed in colblock's columns
// (colblock.Log). The engine that answers failover reads and re-homed
// subscriptions is built on the first such use by replaying that log in
// commit order, and from then on every frame applies to both. Replaying
// the commit order is what makes a mirror's answers byte-equal to the
// primary's; building it on first use is what keeps a replica that is
// never read (the normal case: its primary never died) from holding a
// second copy of every stream it backs.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/colblock"
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
	// logRetain caps the tuples a primary's replication log holds by
	// value, per pollutant (≈ 3 MiB packed): all of them on a node without
	// local stores, the late runs of one with them (replLog). A replica
	// behind the log start takes a snapshot reset. Mirror logs have no cap
	// (see retention).
	logRetain = 1 << 17
	// maxPullRounds bounds one pull session, catch-up or handoff: ≈ 8.4 M
	// tuples at the frame cap, which the engines' retention should
	// comfortably bound. A replica that cannot converge in that many
	// chunks re-enters catch-up on the next gapped stream frame.
	maxPullRounds = 256
)

// maxCatchupChunk bounds one catch-up chunk so the response fits a
// proto frame whatever its tuples (wire.MaxFrameTuples).
var maxCatchupChunk = maxIngestChunk

// ReplicationConfig configures a node's replication role.
type ReplicationConfig struct {
	// NewMirror creates one empty mirror engine. The cluster package
	// treats mirrors as opaque Handlers (the facade passes a factory
	// producing server engines configured identically to the local one,
	// which is what makes mirror answers byte-equal). It is called on a
	// mirror's first read, not when the mirror starts receiving frames.
	// An engine that refuses its log's tuples counts as a failed build:
	// it is closed, and the read answers ErrReplicaMiss. Required when
	// the ring's replication factor exceeds 1 and the node owns shards.
	NewMirror func() Handler
	// WindowLength and Retain are the mirror engines' store window length
	// and retention (store.Config). A mirror log drops the tuples of the
	// windows that retention has evicted, so that replaying it builds
	// what an engine fed every frame would hold. Retain 0 (or no window
	// length) keeps every tuple.
	WindowLength float64
	Retain       int
	// Stores are the stores the local engine commits into, by pollutant,
	// with the window length and retention above. A pollutant's
	// replication log then indexes its store instead of copying the
	// stream (replLog), and a restarted node's log starts from what the
	// store recovered. Without one, the log keeps the stream by value.
	Stores map[tuple.Pollutant]LocalStore
}

// ReplicationStats counts a node's replication activity.
type ReplicationStats struct {
	// Streamed counts frames handed to peer stream workers.
	Streamed int64 `json:"streamed"`
	// StreamDrops counts frames dropped on a full worker queue.
	StreamDrops int64 `json:"streamDrops"`
	// StreamErrors counts failed stream exchanges and catch-up sessions.
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

// mirror is one (origin, pollutant) mirror. Its log holds the stream in
// commit order, pruned only of tuples in windows keep says are evicted;
// log.next() is the replication sequence the mirror has applied, in the
// origin's incarnation inc (0 until the first frame names one). The log
// is what lets this replica serve a ShardTransfer for a dead origin
// during promotion, replay the mirror into its own primary state when it
// is the one promoting, and build h, the engine answering failover reads
// — nil until the first of them, and again after a snapshot reset.
type mirror struct {
	mu      sync.Mutex
	pol     tuple.Pollutant
	h       Handler
	pulling bool
	regap   bool // a gap was refused while pulling: pull again before the session ends
	log     colblock.Log
	keep    retention
	inc     uint64
}

// retention is a store's retention rule: the store keeps
// the newest retain windows (of length window) it has seen and evicts
// the rest, whatever the batching of its appends — a late tuple for a
// window older than all of them is evicted on arrival. newest holds those
// window indexes, ascending. retain 0 keeps everything.
type retention struct {
	window float64
	retain int
	newest []int
}

// add records the windows of tuples appended to the mirror.
func (k *retention) add(tuples []tuple.Raw) {
	if k.retain == 0 {
		return
	}
	for _, tp := range tuples {
		k.addWindow(tuple.WindowIndex(tp.T, k.window))
	}
}

// addWindow records that window c was appended to.
func (k *retention) addWindow(c int) {
	if k.retain == 0 {
		return
	}
	i, seen := slices.BinarySearch(k.newest, c)
	switch {
	case seen:
	case len(k.newest) < k.retain:
		k.newest = slices.Insert(k.newest, i, c)
	case i > 0:
		// c displaces the oldest retained window.
		copy(k.newest, k.newest[1:i])
		k.newest[i-1] = c
	}
}

// evicted reports whether time t lies in a window the store has evicted.
// It is monotone, as colblock.Log.DropWhile needs: an evicted time's earlier
// times are evicted too.
func (k *retention) evicted(t float64) bool {
	return k.retain > 0 && k.evictedWindow(tuple.WindowIndex(t, k.window))
}

// evictedWindow reports whether the store has evicted window c.
func (k *retention) evictedWindow(c int) bool {
	return k.retain > 0 && len(k.newest) == k.retain && c < k.newest[0]
}

// reset forgets every window (a snapshot reset).
func (k *retention) reset() { k.newest = k.newest[:0] }

// replicator holds a node's replication state: the primary-side logs
// and peer stream workers, and the replica-side mirrors.
type replicator struct {
	n         *Node
	newMirror func() Handler
	keep      retention // the stores' retention rule, copied into each log
	window    float64
	stores    map[tuple.Pollutant]LocalStore
	// inc is this node's incarnation: its start time in nanoseconds, which
	// no earlier start of it used. Its logs' sequences count in it.
	inc uint64

	logMu sync.Mutex
	logs  map[tuple.Pollutant]*replLog

	peerMu sync.Mutex
	peers  map[int]chan replFrame
	wg     sync.WaitGroup
	closed atomic.Bool

	mirMu   sync.Mutex
	mirrors map[mirrorKey]*mirror

	// moveMu guards moved: a channel closed, and dropped, the next time a
	// mirror moves — a frame or a catch-up chunk applied, a pull session
	// over, mirrors dropped — so a caller waiting for replication to
	// settle blocks on the change instead of polling. nil while nobody
	// waits.
	moveMu sync.Mutex
	moved  chan struct{}

	streamed, drops, streamErrs, gapNaks atomic.Int64
	applied, gaps, catchups, snapshots   atomic.Int64
	reads                                atomic.Int64
}

func newReplicator(n *Node, cfg ReplicationConfig) *replicator {
	var keep retention
	if cfg.WindowLength > 0 && cfg.Retain > 0 {
		keep = retention{window: cfg.WindowLength, retain: cfg.Retain}
	}
	r := &replicator{
		n:         n,
		newMirror: cfg.NewMirror,
		keep:      keep,
		window:    cfg.WindowLength,
		stores:    cfg.Stores,
		inc:       uint64(time.Now().UnixNano()),
		logs:      make(map[tuple.Pollutant]*replLog),
		peers:     make(map[int]chan replFrame),
		mirrors:   make(map[mirrorKey]*mirror),
	}
	for pol := range cfg.Stores {
		r.log(pol) // seeded now, from what the store recovered
	}
	return r
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
		lg = newReplLog(r.stores[pol], r.window, r.keep, r.inc)
		r.logs[pol] = lg
	}
	return lg
}

// close stops the peer stream workers, waits for in-flight catch-up
// sessions to notice the shutdown, and releases any resources the
// mirror engines built so far hold (the facade's mirror factory builds
// full engines, whose pipelines need an explicit Close).
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
		h := m.h
		m.h = nil
		m.mu.Unlock()
		closeEngine(h)
	}
}

// nextMove returns a channel closed the next time a mirror moves.
func (r *replicator) nextMove() <-chan struct{} {
	r.moveMu.Lock()
	defer r.moveMu.Unlock()
	if r.moved == nil {
		r.moved = make(chan struct{}) //bounded: signal-only; move closes it, nothing sends
	}
	return r.moved
}

// move wakes whoever waits for a mirror to move.
func (r *replicator) move() {
	r.moveMu.Lock()
	if r.moved != nil {
		close(r.moved)
		r.moved = nil
	}
	r.moveMu.Unlock()
}

// closeEngine releases a mirror engine that has been dropped (nil-safe).
// Callers release the mirror's lock first: closing an engine ends its
// subscriptions, whose legs may re-home onto this very mirror.
func closeEngine(h Handler) {
	if c, ok := h.(io.Closer); ok {
		c.Close()
	}
}

// --- primary side -----------------------------------------------------

// localIngest applies an ingest to the local engine and, on success,
// appends it to the replication log and streams it to this node's
// replica peers. The log lock spans the engine apply so the log's
// sequence order is exactly the engine's commit order — the property
// that makes replica replay converge to byte-equal answers, and lets the
// log index the store: nothing else commits to it meanwhile. req holds a
// wire.IngestRequest, and goes to the engine in that box.
func (n *Node) localIngest(ctx context.Context, req wire.Message) wire.Message {
	m := req.(wire.IngestRequest)
	r := n.repl
	if r == nil || len(m.Tuples) == 0 {
		return n.localHandle(ctx, req)
	}
	lg := r.log(m.Pollutant)
	lg.mu.Lock()
	defer lg.mu.Unlock()
	resp := n.localHandle(ctx, req)
	if _, ok := resp.(wire.IngestResponse); !ok {
		return resp
	}
	seq := lg.next()
	lg.commit(m.Tuples)
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
// answered and its memory reused. The last worker done with it gives the
// tuples back, and itself to sharedPool.
type sharedTuples struct {
	tuples []tuple.Raw
	refs   atomic.Int32
}

// sharedPool lends fanout its sharedTuples.
var sharedPool = sync.Pool{New: func() any { return new(sharedTuples) }}

// done drops one frame's hold on the tuples.
func (s *sharedTuples) done() {
	if s.refs.Add(-1) == 0 {
		wire.ReturnTuples(s.tuples)
		s.tuples = nil
		sharedPool.Put(s)
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
	shared := sharedPool.Get().(*sharedTuples)
	shared.tuples = wire.LendTuples(len(tuples))
	copy(shared.tuples, tuples)
	shared.refs.Store(int32(len(peers)))
	frame := replFrame{
		ReplicaIngest: wire.ReplicaIngest{Origin: uint16(r.n.self), Pollutant: pol, Seq: seq, Tuples: shared.tuples, Incarnation: r.inc},
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

// --- replica side -----------------------------------------------------

// getMirror returns (creating on first use) the mirror of one
// (origin, pollutant) stream, or nil when the node's ring does not make
// it one of origin's mirrors. It reads the ring under mirMu, and every
// ring the node adopts later runs dropMirrors under it, so a mirror is
// never created for a placement the node has already left.
func (r *replicator) getMirror(origin int, pol tuple.Pollutant) *mirror {
	k := mirrorKey{origin: origin, pol: pol}
	r.mirMu.Lock()
	defer r.mirMu.Unlock()
	m, ok := r.mirrors[k]
	if !ok && slices.Contains(r.n.Ring().ReplicaPeers(origin, pol), r.n.self) {
		m = &mirror{pol: pol, keep: r.keep, log: colblock.Log{Recycle: true}}
		r.mirrors[k] = m
	}
	return m
}

// dropMirrors drops the mirrors the node's ring no longer places on it:
// those of live origins whose R-1 mirrors it is not among. A tombstoned
// origin's mirror stays, for promotion to recover its shards from.
func (r *replicator) dropMirrors() {
	var dropped []*mirror
	r.mirMu.Lock()
	ring := r.n.Ring()
	for k, m := range r.mirrors {
		if ring.IsLive(k.origin) && !slices.Contains(ring.ReplicaPeers(k.origin, k.pol), r.n.self) {
			delete(r.mirrors, k)
			dropped = append(dropped, m)
		}
	}
	r.mirMu.Unlock()
	for _, m := range dropped {
		m.mu.Lock()
		h := m.h
		m.h = nil
		m.mu.Unlock()
		closeEngine(h)
	}
	if len(dropped) > 0 {
		r.move()
	}
}

// lookupMirror returns an existing mirror or nil; the read path never
// creates empty mirrors.
func (r *replicator) lookupMirror(origin int, pol tuple.Pollutant) *mirror {
	r.mirMu.Lock()
	defer r.mirMu.Unlock()
	return r.mirrors[mirrorKey{origin: origin, pol: pol}]
}

// engine returns the mirror's engine, building it on first use: a fresh
// engine from the factory (called outside mir.mu: it may be slow), fed
// the log in commit order under mir.mu. Frames wait on the lock during
// the replay, so each lands exactly once — in the log the build replays,
// or in the built engine. A build that fails keeps nothing; the next
// read tries again. Of two racing first reads, the second to take the
// lock discards its engine and uses the first's.
func (r *replicator) engine(mir *mirror) (Handler, error) {
	mir.mu.Lock()
	h := mir.h
	mir.mu.Unlock()
	if h != nil {
		return h, nil
	}
	fresh := r.newMirror()
	if fresh == nil {
		return nil, errors.New("mirror factory built no engine")
	}
	mir.mu.Lock()
	h = mir.h
	var err error
	if h == nil {
		mir.log.Runs(func(run []tuple.Raw) bool {
			err = applyTo(fresh, mir.pol, run)
			return err == nil
		})
		if err == nil {
			mir.h, h = fresh, fresh
		}
	}
	mir.mu.Unlock()
	if h != fresh {
		closeEngine(fresh)
	}
	return h, err
}

// applyTo ingests tuples into a mirror engine.
func applyTo(h Handler, pol tuple.Pollutant, tuples []tuple.Raw) error {
	switch resp := h.HandleMessage(wire.IngestRequest{Pollutant: pol, Tuples: tuples}).(type) {
	case wire.IngestResponse:
		return nil
	case wire.ErrorResponse:
		return fmt.Errorf("mirror engine refused its stream: %s", resp.Msg)
	default:
		return fmt.Errorf("mirror engine answered an ingest with %T", resp)
	}
}

// appendLocked extends the mirror with the next tuples of its stream:
// the engine first, when one is built, then the log, which sheds its
// leading tuples in evicted windows. Tuples that fail validation, or
// that the engine refuses, are refused whole, so the log and the engine
// never differ. Caller holds mir.mu.
func (mir *mirror) appendLocked(tuples []tuple.Raw) error {
	if err := tuple.Batch(tuples).Validate(); err != nil {
		return err
	}
	if mir.h != nil {
		if err := applyTo(mir.h, mir.pol, tuples); err != nil {
			return err
		}
	}
	mir.log.Append(tuples)
	mir.keep.add(tuples)
	mir.log.DropWhile(mir.keep.evicted)
	return nil
}

// handleReplicaIngest applies one streamed slice to the mirror of its
// origin. Frames must continue the applied sequence: overlaps apply
// their unseen suffix, duplicates ack as no-ops, and a gap refuses the
// frame and starts a catch-up pull instead of applying out of order. A
// frame of another incarnation than the mirror's is a gap too — its
// origin restarted, and the pull resets the mirror onto the new stream —
// unless the mirror has held nothing yet, which takes the frame's. No
// origin streams incarnation 0, so such a frame is malformed and refused
// before it can create a mirror. A frame for a mirror the node's ring
// does not place here (the origin streamed under an older ring) is
// refused too: the origin counts a gap NAK, and catch-up heals it should
// this node become a mirror again.
func (n *Node) handleReplicaIngest(m wire.ReplicaIngest) wire.Message {
	r := n.repl
	if r == nil {
		return replicaMiss("node does not replicate")
	}
	origin := int(m.Origin)
	if origin == n.self || origin >= n.Ring().Nodes() {
		return wire.ErrorResponse{Msg: fmt.Sprintf("replica: bad origin node %d", m.Origin)}
	}
	if m.Incarnation == 0 {
		return wire.ErrorResponse{Msg: "replica: frame of incarnation 0"}
	}
	mir := r.getMirror(origin, m.Pollutant)
	if mir == nil {
		return wire.ErrorResponse{Msg: fmt.Sprintf("replica: node %d is no mirror of node %d", n.self, origin)}
	}
	defer r.move()
	mir.mu.Lock()
	defer mir.mu.Unlock()
	have, end := mir.log.Next(), m.Seq+uint64(len(m.Tuples))
	if mir.inc == 0 {
		mir.inc = m.Incarnation
	}
	switch {
	case m.Incarnation != mir.inc:
		r.gaps.Add(1)
		r.schedulePullLocked(origin, m.Pollutant, mir)
		return wire.ErrorResponse{Msg: fmt.Sprintf("replica: stream of incarnation %d, mirror holds %d", m.Incarnation, mir.inc)}
	case end <= have:
		return wire.IngestResponse{Ingested: 0} // duplicate delivery
	case m.Seq > have:
		r.gaps.Add(1)
		r.schedulePullLocked(origin, m.Pollutant, mir)
		return wire.ErrorResponse{Msg: fmt.Sprintf("replica: sequence gap (have %d, got %d)", have, m.Seq)}
	}
	if err := mir.appendLocked(m.Tuples[have-m.Seq:]); err != nil {
		return wire.ErrorResponse{Msg: "replica: mirror apply: " + err.Error()}
	}
	r.applied.Add(1)
	return wire.IngestResponse{Ingested: uint32(end - have)}
}

// schedulePullLocked starts (once) a catch-up session for a mirror, or
// has the running one pull again before it ends: the chunks it pulled may
// have been cut before the frames the gap lost. Caller holds mir.mu.
func (r *replicator) schedulePullLocked(origin int, pol tuple.Pollutant, mir *mirror) {
	mir.regap = mir.pulling
	if mir.pulling || r.closed.Load() {
		return
	}
	mir.pulling = true
	r.catchups.Add(1) // here, not when the goroutine first runs: a read of the stats may come first
	r.wg.Add(1)
	go r.catchUp(origin, pol, mir)
}

// catchUp runs one catch-up session: a pull of the origin's stream from
// the sequence the mirror holds, applying suffix chunks (or a snapshot
// reset) until the origin reports Done or the node closes — and another
// pull after it when a gap was refused while it ran.
func (r *replicator) catchUp(origin int, pol tuple.Pollutant, mir *mirror) {
	defer r.wg.Done()
	have := func() streamPos {
		mir.mu.Lock()
		defer mir.mu.Unlock()
		return streamPos{inc: mir.inc, seq: mir.log.Next()}
	}
	apply := func(asked streamPos, cr wire.ReplicaCatchupResponse) (bool, error) {
		return r.applyChunk(mir, asked, cr) || r.closed.Load(), nil
	}
	for again := true; again; {
		//ctxcheck:allow a session ends with the node: apply ends it once close has begun
		if err := r.n.pull(context.Background(), origin, origin, pol, have, apply); err != nil {
			r.streamErrs.Add(1)
		}
		mir.mu.Lock()
		again = mir.regap && !r.closed.Load()
		mir.pulling, mir.regap = again, false
		mir.mu.Unlock()
		r.move()
	}
}

// applyChunk applies one catch-up chunk, the answer to a round that asked
// from asked, to a mirror and reports whether the session is over
// (converged, or the chunk did not line up and the session aborts). A
// mirror that frames moved since the round asked takes nothing from it —
// a snapshot would move it back — and the session asks again. A snapshot
// reset first empties the log and drops the engine, which the next read
// rebuilds from the replayed log, and takes the chunk's incarnation.
func (r *replicator) applyChunk(mir *mirror, asked streamPos, cr wire.ReplicaCatchupResponse) bool {
	var stale Handler
	mir.mu.Lock()
	if (streamPos{inc: mir.inc, seq: mir.log.Next()}) != asked {
		mir.mu.Unlock()
		return false
	}
	if cr.Snapshot {
		stale, mir.h = mir.h, nil
		mir.log.Reset(cr.From)
		mir.keep.reset()
		mir.inc = cr.Incarnation
		r.snapshots.Add(1)
	}
	have, end := mir.log.Next(), cr.From+uint64(len(cr.Tuples))
	done := cr.Done
	switch {
	case cr.Incarnation != mir.inc || cr.From > have:
		done = true // chunk does not line up (log moved); next gap retries
	case end > have && mir.appendLocked(cr.Tuples[have-cr.From:]) != nil:
		done = true // mirror refused; next gap retries
	}
	mir.mu.Unlock()
	closeEngine(stale)
	r.move()
	return done
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

// mirrorAnswer answers one request from an existing mirror, building its
// engine if this is the mirror's first read.
func (r *replicator) mirrorAnswer(origin int, pol tuple.Pollutant, m wire.Message) wire.Message {
	h, miss := r.mirrorEngine(origin, pol)
	if h == nil {
		return miss
	}
	r.reads.Add(1)
	return h.HandleMessage(m)
}

// mirrorEngine returns the engine of this node's mirror of origin's pol
// stream, built on first use, or — when there is no mirror or its engine
// cannot be built — the replica miss to answer instead.
func (r *replicator) mirrorEngine(origin int, pol tuple.Pollutant) (Handler, wire.ErrorResponse) {
	mir := r.lookupMirror(origin, pol)
	if mir == nil {
		return nil, replicaMiss(fmt.Sprintf("no mirror of node %d", origin))
	}
	h, err := r.engine(mir)
	if err != nil {
		return nil, replicaMiss(fmt.Sprintf("mirror of node %d: %v", origin, err))
	}
	return h, wire.ErrorResponse{}
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
