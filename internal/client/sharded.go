package client

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/geo"
	"repro/internal/wire"
)

// Dialer opens a transport to a cluster node's wire address.
type Dialer func(addr string) (Transport, error)

// Hedging tunables.
const (
	// hedgeSamples is the latency ring-buffer size the hedge delay
	// derives from.
	hedgeSamples = 128
	// hedgeMinSamples gates the p99 estimate; with fewer samples the
	// delay falls back to defaultHedgeDelay.
	hedgeMinSamples = 16
	// defaultHedgeDelay is the hedge delay before enough latency
	// samples exist to estimate a p99.
	defaultHedgeDelay = 2 * time.Millisecond
)

// ShardedStats counts a sharded transport's routing work.
type ShardedStats struct {
	// Direct counts exchanges sent straight to the computed shard owner.
	Direct int64
	// Seeded counts exchanges sent to the seed node (non-positional
	// requests, and everything before the ring is known).
	Seeded int64
	// Bounced counts NotOwner bounces (stale ring), each followed by a
	// ring refresh and one retry at the named owner.
	Bounced int64
	// Refreshes counts ring fetches.
	Refreshes int64
	// Failovers counts exchanges answered by a replica or re-homed
	// owner after the computed owner was unreachable.
	Failovers int64
	// Hedged counts hedge probes launched (primary slower than the
	// hedge delay).
	Hedged int64
	// HedgeWins counts exchanges answered by the hedge probe.
	HedgeWins int64
}

// ShardedTransport is a cluster-aware Transport: it fetches the shard
// ring once (from its seed node), then sends every positional request
// straight to the shard owner — no router hop on the hot path. A
// NotOwner bounce (the ring changed) refreshes the ring and retries
// once at the node the bounce named. Non-positional requests (model
// covers, heatmaps, mixed batches) go to the seed node, whose
// router/scatter logic answers them cluster-wide. It is safe for
// concurrent use.
type ShardedTransport struct {
	seed Transport
	dial Dialer

	// ringTTL re-fetches the cached ring once it is older than the TTL
	// (0 = never; the ring then refreshes only on a NotOwner bounce). A
	// TTL lets clients converge on a resharded cluster even when their
	// request mix never hits a moved shard — e.g. a client pinned to a
	// shard whose owner silently left the ring would otherwise keep
	// dialing it forever.
	ringTTL time.Duration
	now     func() time.Time // injectable clock for tests

	mu        sync.Mutex
	ring      *cluster.Ring
	fetchedAt time.Time // when ring was fetched (TTL basis)
	// stale forces a refresh before the next positional exchange (set by
	// a NotOwner bounce or an epoch-mismatch rejection). The cached ring
	// is kept as the fallback: an unreachable seed must not take down a
	// working shard map, and epoch monotonicity below guarantees the
	// refresh never replaces it with something older.
	stale    bool
	conns    map[string]Transport // keyed by address: correct even under a stale ring
	hedgeOn  bool
	hedgeMin time.Duration // floor under the p99-derived hedge delay

	stats ShardedStats

	latMu sync.Mutex
	lats  [hedgeSamples]time.Duration // owner-exchange latency ring buffer
	latN  int                         // total samples recorded
}

// NewSharded builds a sharded transport over a seed node connection and
// a dialer for the owner connections.
func NewSharded(seed Transport, dial Dialer) *ShardedTransport {
	return &ShardedTransport{seed: seed, dial: dial, conns: make(map[string]Transport), now: time.Now}
}

// SetRingTTL bounds the cached ring's age: a positional exchange
// finding the ring older than ttl re-fetches it from the seed node
// first (keeping the stale ring if the fetch fails — a degraded seed
// must not take down a working shard map). ttl <= 0 restores the
// default: refresh only on NotOwner bounces.
func (s *ShardedTransport) SetRingTTL(ttl time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ringTTL = ttl
}

// SetHedging enables (or disables) hedged reads: on a replicated ring,
// a single-shard query whose owner has not answered within the hedge
// delay — the p99 of recent owner latencies, floored by SetHedgeFloor —
// is also sent to the shard's first replica, and the first usable
// answer wins. The loser's answer is discarded. Off by default: hedging
// trades duplicate work for tail latency, which is an operator call.
func (s *ShardedTransport) SetHedging(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hedgeOn = on
}

// SetHedgeFloor bounds the hedge delay from below, so a very fast p99
// cannot turn hedging into "always query two nodes".
func (s *ShardedTransport) SetHedgeFloor(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hedgeMin = d
}

// Stats returns a snapshot of the routing counters.
func (s *ShardedTransport) Stats() ShardedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// recordLatency feeds one successful owner-exchange latency into the
// hedge-delay estimate.
func (s *ShardedTransport) recordLatency(d time.Duration) {
	s.latMu.Lock()
	s.lats[s.latN%hedgeSamples] = d
	s.latN++
	s.latMu.Unlock()
}

// hedgeDelay derives the hedge delay: the p99 of the recorded owner
// latencies (defaultHedgeDelay until enough samples exist), floored by
// SetHedgeFloor.
func (s *ShardedTransport) hedgeDelay() time.Duration {
	s.latMu.Lock()
	n := s.latN
	if n > hedgeSamples {
		n = hedgeSamples
	}
	buf := append([]time.Duration(nil), s.lats[:n]...)
	s.latMu.Unlock()
	d := defaultHedgeDelay
	if n >= hedgeMinSamples {
		sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
		d = buf[n*99/100]
	}
	s.mu.Lock()
	floor := s.hedgeMin
	s.mu.Unlock()
	if d < floor {
		d = floor
	}
	return d
}

// Ring returns the cached shard ring (fetching it on first use).
func (s *ShardedTransport) Ring() (*cluster.Ring, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ringLocked()
}

func (s *ShardedTransport) ringLocked() (*cluster.Ring, error) {
	if s.ring != nil {
		//lockcheck:allow s.now is an injected clock (time.Now); it cannot block
		if !s.stale && (s.ringTTL <= 0 || s.now().Sub(s.fetchedAt) < s.ringTTL) {
			return s.ring, nil
		}
		// Stale or TTL expired: re-fetch, but keep serving the cached
		// ring if the seed is unreachable — shards that did not move
		// still answer.
		if ring, err := s.refreshLocked(); err == nil {
			return ring, nil
		}
		s.stale = false
		s.fetchedAt = s.now() //lockcheck:allow s.now is an injected clock (time.Now); it cannot block
		return s.ring, nil
	}
	return s.refreshLocked()
}

// refreshLocked fetches the ring from the seed. Adoption is epoch-
// monotonic: during a membership transition different nodes serve
// different epochs for a moment, and a client that already routed at
// epoch E must never fall back to E-1 — a refresh landing on a
// behind node keeps the cached (newer) ring instead.
func (s *ShardedTransport) refreshLocked() (*cluster.Ring, error) {
	s.stats.Refreshes++
	resp, err := s.seed.Exchange(wire.RingRequest{})
	if err != nil {
		return nil, fmt.Errorf("client: fetch ring: %w", err)
	}
	rr, ok := resp.(wire.RingResponse)
	if !ok {
		if er, isErr := resp.(wire.ErrorResponse); isErr {
			return nil, fmt.Errorf("client: fetch ring: %s", er.Msg)
		}
		return nil, fmt.Errorf("client: fetch ring: unexpected response %T", resp)
	}
	ring, err := cluster.RingFromWire(rr)
	if err != nil {
		return nil, fmt.Errorf("client: fetch ring: %w", err)
	}
	if s.ring == nil || ring.Epoch() >= s.ring.Epoch() {
		s.ring = ring
	}
	s.stale = false
	s.fetchedAt = s.now() //lockcheck:allow s.now is an injected clock (time.Now); it cannot block
	return s.ring, nil
}

// RingEpoch returns the membership epoch of the cached ring (0 when no
// ring is cached yet).
func (s *ShardedTransport) RingEpoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ring == nil {
		return 0
	}
	return s.ring.Epoch()
}

// conn returns (dialing if needed) the transport to addr. The dial
// happens OUTSIDE the transport mutex: one unreachable owner must not
// stall concurrent exchanges to healthy owners for a dial timeout.
func (s *ShardedTransport) conn(addr string) (Transport, error) {
	s.mu.Lock()
	if t, ok := s.conns[addr]; ok {
		s.mu.Unlock()
		return t, nil
	}
	s.mu.Unlock()
	t, err := s.dial(addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	s.mu.Lock()
	if existing, ok := s.conns[addr]; ok {
		// A concurrent exchange dialed the same owner; keep theirs.
		s.mu.Unlock()
		if c, isCloser := t.(interface{ Close() error }); isCloser {
			_ = c.Close()
		}
		return existing, nil
	}
	s.conns[addr] = t
	s.mu.Unlock()
	return t, nil
}

// dropConn forgets an address's connection (after a transport error,
// so the next exchange redials).
func (s *ShardedTransport) dropConn(addr string) {
	s.mu.Lock()
	t, ok := s.conns[addr]
	delete(s.conns, addr)
	s.mu.Unlock()
	if ok {
		if c, isCloser := t.(interface{ Close() error }); isCloser {
			_ = c.Close()
		}
	}
}

// Exchange implements Transport with shard-map awareness.
func (s *ShardedTransport) Exchange(req wire.Message) (wire.Message, error) {
	q, ok := req.(wire.QueryRequest)
	if !ok {
		// Non-positional requests: the seed node routes or
		// scatter-gathers them server-side.
		s.mu.Lock()
		s.stats.Seeded++
		s.mu.Unlock()
		return s.seed.Exchange(req)
	}

	s.mu.Lock()
	ring, err := s.ringLocked()
	if err != nil {
		// No ring (peer not clustered, or unreachable): degrade to the
		// seed node, which answers single-node deployments directly.
		s.stats.Seeded++
		s.mu.Unlock()
		return s.seed.Exchange(req)
	}
	reps := ring.ReplicasFor(shardOf(ring, q))
	addr := ring.Addr(reps[0])
	s.stats.Direct++
	hedge := s.hedgeOn && len(reps) > 1
	s.mu.Unlock()

	resp, err := s.ownerExchange(ring, reps, addr, q, hedge)
	if err != nil {
		// The owner is unreachable — a transport failure, not an answer.
		// Treat it exactly like a NotOwner bounce: refresh the ring and
		// retry at the re-homed owner or a replica, instead of failing
		// the query on a node the cluster may already have healed around.
		return s.failoverExchange(q, reps[0], err)
	}
	bounce, isBounce := resp.(wire.NotOwnerResponse)
	if !isBounce {
		return resp, nil
	}
	if bounce.Addr == "" {
		return nil, fmt.Errorf("client: shard owned by unreachable node %d", bounce.Owner)
	}

	// Stale ring: mark it for the next exchange to refresh (the cached
	// ring stays as the epoch floor and the fallback), and retry once at
	// the address the bounce named — the bouncing node knows the current
	// owner even when our refresh source is itself stale.
	s.mu.Lock()
	s.stats.Bounced++
	s.stats.Direct++
	s.stale = true
	s.mu.Unlock()
	t, err := s.conn(bounce.Addr)
	if err != nil {
		return nil, err
	}
	resp, err = t.Exchange(req)
	if err != nil {
		return nil, err
	}
	if b2, still := resp.(wire.NotOwnerResponse); still {
		return nil, fmt.Errorf("client: shard still owned elsewhere after retry (node %d %s)", b2.Owner, b2.Addr)
	}
	return resp, nil
}

// shardOf computes a positional query's shard key on a ring.
func shardOf(ring *cluster.Ring, q wire.QueryRequest) cluster.ShardKey {
	return cluster.ShardKey{Pollutant: q.Pollutant, Cell: ring.CellOf(geo.Point{X: q.X, Y: q.Y})}
}

// usableReplicaAnswer reports whether a replica's response answers the
// query: a mirror miss (an error coded wire.CodeReplicaMiss) or an owner
// bounce does not, and the caller keeps waiting on (or fails over past)
// it.
func usableReplicaAnswer(m wire.Message) bool {
	if m == nil {
		return false
	}
	if _, isBounce := m.(wire.NotOwnerResponse); isBounce {
		return false
	}
	if er, isErr := m.(wire.ErrorResponse); isErr && er.Code == wire.CodeReplicaMiss {
		return false
	}
	return true
}

// ownerExchange sends one query to its shard owner, optionally hedging
// it at the shard's first replica once the owner exceeds the hedge
// delay. The first usable answer wins; the loser's answer is discarded
// (the Transport interface has no cancellation, so the losing exchange
// drains in the background).
func (s *ShardedTransport) ownerExchange(ring *cluster.Ring, reps []int, addr string, q wire.QueryRequest, hedge bool) (wire.Message, error) {
	t, err := s.conn(addr)
	if err != nil {
		return nil, err
	}
	if !hedge {
		start := s.now()
		resp, err := t.Exchange(q)
		if err != nil {
			s.dropConn(addr)
			return nil, err
		}
		s.recordLatency(s.now().Sub(start))
		return resp, nil
	}

	type result struct {
		resp wire.Message
		err  error
	}
	prim := make(chan result, 1) //bounded: one-shot result; the exchange goroutine sends exactly once
	start := s.now()
	go func() { // one goroutine per hedged exchange, result channel buffered
		r, e := t.Exchange(q)
		prim <- result{r, e}
	}()
	timer := time.NewTimer(s.hedgeDelay())
	defer timer.Stop()
	select {
	case r := <-prim:
		if r.err != nil {
			s.dropConn(addr)
			return nil, r.err
		}
		s.recordLatency(s.now().Sub(start))
		return r.resp, nil
	case <-timer.C:
	}

	// Owner slower than the hedge delay: probe the shard's first replica
	// with a replica read. The probe target is re-resolved from the ring
	// cached NOW — not the snapshot the primary exchange routed with — so
	// a membership transition that re-homed the shard while the owner was
	// stalling hedges at the current epoch's replica instead of a node
	// that may no longer mirror (or even hold) the shard.
	s.mu.Lock()
	s.stats.Hedged++
	if s.ring != nil && s.ring.Epoch() >= ring.Epoch() {
		ring = s.ring
	}
	s.mu.Unlock()
	reps = ring.ReplicasFor(shardOf(ring, q))
	if len(reps) < 2 {
		// The current ring no longer replicates this shard (a promotion
		// clamped R, or a transition un-replicated it): there is nowhere
		// to hedge — wait out the owner.
		r := <-prim
		if r.err != nil {
			s.dropConn(addr)
			return nil, r.err
		}
		s.recordLatency(s.now().Sub(start))
		return r.resp, nil
	}
	hch := make(chan result, 1) //bounded: one-shot result; the probe goroutine sends exactly once
	repAddr := ring.Addr(reps[1])
	origin := uint16(reps[0])
	go func() { // one goroutine per hedge probe, result channel buffered
		rt, err := s.conn(repAddr)
		if err != nil {
			hch <- result{nil, err}
			return
		}
		r, e := rt.Exchange(wire.ReplicaRead{Origin: origin, Inner: q})
		hch <- result{r, e}
	}()
	hedgeDone := false
	for {
		select {
		case r := <-prim:
			if r.err == nil {
				s.recordLatency(s.now().Sub(start))
				return r.resp, nil
			}
			s.dropConn(addr)
			if !hedgeDone {
				// The owner died mid-exchange; the in-flight hedge is now
				// the cheapest failover, so give it a chance first.
				if hr := <-hch; hr.err == nil && usableReplicaAnswer(hr.resp) {
					s.mu.Lock()
					s.stats.HedgeWins++
					s.mu.Unlock()
					return hr.resp, nil
				}
			}
			return nil, r.err
		case hr := <-hch:
			if hr.err == nil && usableReplicaAnswer(hr.resp) {
				s.mu.Lock()
				s.stats.HedgeWins++
				s.mu.Unlock()
				return hr.resp, nil
			}
			// Hedge missed (dead replica, no mirror): the owner remains
			// the only source; keep waiting on it.
			hedgeDone = true
			hch = nil
		}
	}
}

// failoverExchange heals a query whose owner was unreachable: refresh
// the ring (the cluster may have resharded away from the dead node),
// retry once at a re-homed owner, then walk the shard's replicas with
// replica reads. Only when nobody answers does the owner's original
// error surface.
func (s *ShardedTransport) failoverExchange(q wire.QueryRequest, deadOwner int, origErr error) (wire.Message, error) {
	s.mu.Lock()
	ring, err := s.refreshLocked()
	if err != nil {
		// The seed is unreachable too; nothing to re-route with.
		s.mu.Unlock()
		return nil, origErr
	}
	reps := ring.ReplicasFor(shardOf(ring, q))
	s.mu.Unlock()

	countWin := func() {
		s.mu.Lock()
		s.stats.Failovers++
		s.mu.Unlock()
	}
	if reps[0] != deadOwner {
		// The refreshed ring re-homed the shard: retry at the new owner,
		// exactly like a bounce retry.
		if t, err := s.conn(ring.Addr(reps[0])); err == nil {
			resp, err := t.Exchange(q)
			switch {
			case err != nil:
				s.dropConn(ring.Addr(reps[0]))
			case usableReplicaAnswer(resp):
				countWin()
				return resp, nil
			}
		}
	}
	for _, rep := range reps {
		if rep == deadOwner {
			continue
		}
		t, err := s.conn(ring.Addr(rep))
		if err != nil {
			continue
		}
		resp, err := t.Exchange(wire.ReplicaRead{Origin: uint16(deadOwner), Inner: q})
		if err != nil {
			s.dropConn(ring.Addr(rep))
			continue
		}
		if usableReplicaAnswer(resp) {
			countWin()
			return resp, nil
		}
	}
	return nil, fmt.Errorf("client: shard owner and replicas unreachable: %w", origErr)
}

// Close closes every owner connection (and the seed, if closable).
func (s *ShardedTransport) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var errs []error
	for n, t := range s.conns {
		if c, ok := t.(interface{ Close() error }); ok {
			if err := c.Close(); err != nil {
				errs = append(errs, err)
			}
		}
		delete(s.conns, n)
	}
	if c, ok := s.seed.(interface{ Close() error }); ok {
		if err := c.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// FetchRingHTTP fetches the shard ring from a node's HTTP API
// (GET <baseURL>/v1/cluster) — the bootstrap a web client uses instead
// of the wire RingRequest.
func FetchRingHTTP(baseURL string) (*cluster.Ring, error) {
	resp, err := http.Get(baseURL + "/v1/cluster")
	if err != nil {
		return nil, fmt.Errorf("client: fetch ring: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("client: fetch ring: %s", resp.Status)
	}
	var doc struct {
		Ring wire.RingResponse `json:"ring"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("client: fetch ring: %w", err)
	}
	return cluster.RingFromWire(doc.Ring)
}
