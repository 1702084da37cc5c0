package cluster_test

// Epoch-versioned membership tests: live join under write load, drain
// with shard handoff, dead-primary promotion, and a deterministic
// rebalance fault-injection matrix that kills a party (or abandons the
// coordinator) at every handoff phase boundary via HandoffHook — one
// fault per run. The oracles throughout: no acked tuple is lost, no
// shard is served by two primaries at the same epoch, and queries
// answer byte-equal before and after a rebalance. Data-presence checks
// use the naive radius processor — its answer is determined by a
// shard's own tuples alone, so it is byte-equal wherever the tuples
// moved — while routed cover queries check routing consistency. The
// whole file runs under -race.

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// memFixture is a growable replicated cluster over simulated links:
// unlike the static fixture, nodes join and leave, so transports
// resolve targets by address through a dialer, every node gets a kill
// switch, and fault hooks are settable after a node is built.
type memFixture struct {
	link *netsim.Link
	base uint64 // the epoch the ring booted at

	mu      sync.Mutex
	engines []*server.Engine
	nodes   []*cluster.Node
	addrs   []string
	dead    []*atomic.Bool
	hooks   []func(string)
}

// memTransport carries frames to the fixture node at index `to`
// through the full binary codec, honoring the kill switch.
type memTransport struct {
	f  *memFixture
	to int
}

func (t *memTransport) Exchange(req wire.Message) (wire.Message, error) {
	t.f.mu.Lock()
	var node *cluster.Node
	var deadFlag *atomic.Bool
	if t.to < len(t.f.nodes) {
		node, deadFlag = t.f.nodes[t.to], t.f.dead[t.to]
	}
	t.f.mu.Unlock()
	if node == nil {
		return nil, fmt.Errorf("node %d is not running", t.to)
	}
	if deadFlag.Load() {
		return nil, fmt.Errorf("node %d is down", t.to)
	}
	reqB, err := wire.Binary.Encode(req)
	if err != nil {
		return nil, err
	}
	decoded, err := wire.Binary.Decode(reqB)
	if err != nil {
		return nil, err
	}
	resp := node.HandleMessage(decoded)
	respB, err := wire.Binary.Encode(resp)
	if err != nil {
		return nil, err
	}
	if deadFlag.Load() {
		// Killed mid-exchange: the answer never makes it back.
		return nil, fmt.Errorf("node %d is down", t.to)
	}
	if _, err := t.f.link.Exchange(len(reqB), len(respB)); err != nil {
		return nil, err
	}
	return wire.Binary.Decode(respB)
}

// dialer resolves wire addresses to fixture transports, including
// addresses of nodes that join after a peer booted.
func (f *memFixture) dialer() cluster.Dialer {
	return func(addr string) (cluster.Transport, error) {
		f.mu.Lock()
		defer f.mu.Unlock()
		for i, a := range f.addrs {
			if a == addr {
				return &memTransport{f: f, to: i}, nil
			}
		}
		return nil, fmt.Errorf("no node at %s", addr)
	}
}

// setHook installs (or clears) node i's handoff fault hook.
func (f *memFixture) setHook(i int, h func(string)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hooks[i] = h
}

func (f *memFixture) firePhase(i int, phase string) {
	f.mu.Lock()
	var h func(string)
	if i < len(f.hooks) {
		h = f.hooks[i]
	}
	f.mu.Unlock()
	if h != nil {
		h(phase)
	}
}

// addNode registers an engine+node pair as fixture index `self`,
// serving ring. The node's HandoffHook dispatches to the settable
// fixture hook so faults can be armed per test, per node.
func (f *memFixture) addNode(t *testing.T, ring *cluster.Ring, self int) *cluster.Node {
	t.Helper()
	engine := newEngine(t)
	transports := make([]cluster.Transport, ring.Nodes())
	for j := range transports {
		if j != self {
			transports[j] = &memTransport{f: f, to: j}
		}
	}
	node, err := cluster.NewNode(cluster.NodeConfig{
		Ring:        ring,
		Self:        self,
		Local:       engine,
		Transports:  transports,
		Dial:        f.dialer(),
		Default:     tuple.CO2,
		HandoffHook: func(phase string) { f.firePhase(self, phase) },
		Replication: cluster.ReplicationConfig{NewMirror: newMirrorEngine},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	f.mu.Lock()
	f.engines = append(f.engines, engine)
	f.nodes = append(f.nodes, node)
	f.dead = append(f.dead, &atomic.Bool{})
	f.hooks = append(f.hooks, nil)
	f.mu.Unlock()
	return node
}

// memBaseEpochs are the epochs the fault matrix boots its fixture at: 0,
// where every facade and envirometer-server ring boots, and 1, a cluster
// with a transition in its history.
var memBaseEpochs = []uint64{0, 1}

// newMemFixture builds an n-node replicated membership fixture whose
// ring boots at epoch base.
func newMemFixture(t *testing.T, n, replicas int, base uint64) *memFixture {
	t.Helper()
	cells, err := cluster.Cells(clusterRegion, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("node-%d:8081", i)
	}
	ring, err := cluster.NewRing(cluster.Desc{Nodes: addrs, Cells: cells, Replicas: replicas, Epoch: base})
	if err != nil {
		t.Fatal(err)
	}
	link, err := netsim.NewLink(netsim.ThreeG())
	if err != nil {
		t.Fatal(err)
	}
	f := &memFixture{link: link, addrs: addrs, base: base}
	for i := 0; i < n; i++ {
		f.addNode(t, ring, i)
	}
	return f
}

// addJoiner announces a new member through node `seed`, builds its
// node on the pending ring, and returns it — the caller runs
// CompleteJoin (and may arm a fault hook first).
func (f *memFixture) addJoiner(t *testing.T, seed int) *cluster.Node {
	t.Helper()
	f.mu.Lock()
	id := len(f.addrs)
	addr := fmt.Sprintf("node-%d:8081", id)
	f.addrs = append(f.addrs, addr)
	f.mu.Unlock()
	before := f.currentRing().Epoch()
	pending, err := cluster.JoinCluster(&memTransport{f: f, to: seed}, addr)
	if err != nil {
		t.Fatal(err)
	}
	if pending.Nodes()-1 != id || pending.Epoch() != before+1 {
		t.Fatalf("pending ring: %d nodes epoch %d, want joiner as node %d at epoch %d",
			pending.Nodes(), pending.Epoch(), id, before+1)
	}
	return f.addNode(t, pending, id)
}

func (f *memFixture) kill(i int)   { f.deadFlag(i).Store(true) }
func (f *memFixture) revive(i int) { f.deadFlag(i).Store(false) }

func (f *memFixture) deadFlag(i int) *atomic.Bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dead[i]
}

func (f *memFixture) node(i int) *cluster.Node {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nodes[i]
}

func (f *memFixture) engine(i int) *server.Engine {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.engines[i]
}

// liveIDs returns the IDs of every fixture node not currently killed.
func (f *memFixture) liveIDs() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	var ids []int
	for i := range f.nodes {
		if !f.dead[i].Load() {
			ids = append(ids, i)
		}
	}
	return ids
}

// currentRing returns the highest-epoch ring any live node serves —
// the cluster's real shape once transitions settle.
func (f *memFixture) currentRing() *cluster.Ring {
	var best *cluster.Ring
	for _, i := range f.liveIDs() {
		if r := f.node(i).Ring(); best == nil || r.Epoch() > best.Epoch() {
			best = r
		}
	}
	return best
}

// --- deterministic test data -----------------------------------------

// memLattice lays tuples on a 400 m lattice shifted `off` meters from
// the -1900 base on both axes, with values from the deterministic
// field and times inside the query window. Distinct offsets (0, 100,
// 200) keep independent tuple populations >= 100√2 m apart, so a 60 m
// radius query centered on a tuple sees exactly its own population.
func memLattice(off float64) tuple.Batch {
	var b tuple.Batch
	i := 0
	for x := -1900 + off; x <= 1900; x += 400 {
		for y := -1900 + off; y <= 1900; y += 400 {
			tm := 100 + float64(i%160)*10
			b = append(b, tuple.Raw{T: tm, X: x, Y: y, S: fieldVal(x, y)})
			i++
		}
	}
	return b
}

// loadVia routes a batch through node `via` and requires every tuple
// to be acked.
func (f *memFixture) loadVia(t *testing.T, via int, data tuple.Batch) {
	t.Helper()
	resp := f.node(via).HandleMessage(wire.IngestRequest{Pollutant: tuple.CO2, Tuples: data})
	ir, ok := resp.(wire.IngestResponse)
	if !ok {
		t.Fatalf("routed ingest failed: %#v", resp)
	}
	if int(ir.Ingested) != len(data) {
		t.Fatalf("acked %d of %d tuples", ir.Ingested, len(data))
	}
}

// naiveAt reads node `owner`'s raw window holding stream time t from its
// store directly and averages it within 60 m of p: present tuples at p
// (all carrying the same field value) answer exactly that value; a
// missing shard answers an error or a foreign value.
func (f *memFixture) naiveAt(owner int, t float64, p geo.Point) (float64, error) {
	st, err := f.engine(owner).StoreFor(tuple.CO2)
	if err != nil {
		return 0, err
	}
	nv, err := query.NewNaive(st.Window(tuple.WindowIndex(t, st.WindowLength())), 60)
	if err != nil {
		return 0, err
	}
	return nv.Interpolate(query.Q{T: t, X: p.X, Y: p.Y})
}

// checkPresence verifies the no-lost-acked-tuple oracle: every
// position answers its exact field value from the engine of the node
// that owns it under the cluster's current ring. Byte-equal by
// construction — these are the same float64s the writer committed.
func (f *memFixture) checkPresence(t *testing.T, positions []geo.Point) {
	t.Helper()
	ring := f.currentRing()
	for _, p := range positions {
		owner := ring.Owner(tuple.CO2, p)
		if !ring.IsLive(owner) {
			t.Errorf("position %v owned by non-live node %d", p, owner)
			continue
		}
		got, err := f.naiveAt(owner, queryT, p)
		if err != nil {
			t.Errorf("acked tuple at %v lost: owner %d holds no data there (%v)", p, owner, err)
			continue
		}
		if want := fieldVal(p.X, p.Y); got != want {
			t.Errorf("acked tuple at %v corrupted on owner %d: got %v want %v", p, owner, got, want)
		}
	}
}

// checkRoutedConsistency verifies that a cover query routed through
// `via` answers byte-equal to the current owner's own engine — after
// the rebalance, routing lands on the node that really holds the shard.
func (f *memFixture) checkRoutedConsistency(t *testing.T, via int, positions []geo.Point) {
	t.Helper()
	// The read-after-ack barrier: a background rebuild landing between
	// the two reads below would make them answer from different covers.
	for _, i := range f.liveIDs() {
		f.engine(i).Scheduler().Wait()
	}
	ring := f.currentRing()
	ctx := context.Background()
	for _, p := range positions {
		owner := ring.Owner(tuple.CO2, p)
		want, err := f.engine(owner).Query(ctx, query.Request{T: queryT, X: p.X, Y: p.Y, Pollutant: tuple.CO2})
		if err != nil {
			t.Fatalf("owner %d cover query at %v: %v", owner, p, err)
		}
		resp := f.node(via).HandleMessage(wire.QueryRequest{T: queryT, X: p.X, Y: p.Y, Pollutant: tuple.CO2})
		qr, ok := resp.(wire.QueryResponse)
		if !ok {
			t.Fatalf("routed query via %d at %v: %#v", via, p, resp)
		}
		if qr.Value != want {
			t.Errorf("routed query via %d at %v: %v, owner %d answers %v", via, p, qr.Value, owner, want)
		}
	}
}

// checkSinglePrimary verifies the dual-primary oracle mid-transition:
// any two live nodes serving the SAME epoch must serve the identical
// ring — ownership is a pure function of the ring, so ring agreement
// is agreement on every shard's single primary. Nodes on different
// epochs are kept apart by the frame-epoch fence instead.
func (f *memFixture) checkSinglePrimary(t *testing.T) {
	t.Helper()
	byEpoch := map[uint64]wire.RingResponse{}
	who := map[uint64]int{}
	for _, i := range f.liveIDs() {
		w := f.node(i).Ring().Wire()
		if prev, ok := byEpoch[w.Epoch]; ok {
			if !reflect.DeepEqual(prev, w) {
				t.Fatalf("nodes %d and %d serve different rings at the same epoch %d:\n%#v\n%#v",
					who[w.Epoch], i, w.Epoch, prev, w)
			}
			continue
		}
		byEpoch[w.Epoch] = w
		who[w.Epoch] = i
	}
}

// positionsOf projects a batch onto its positions.
func positionsOf(b tuple.Batch) []geo.Point {
	out := make([]geo.Point, len(b))
	for i, r := range b {
		out[i] = r.Pos()
	}
	return out
}

// waitMirrors blocks until every sampled position's replicas answer
// byte-equal to its owner's engine — the replication streams have
// drained, so killing a primary afterwards loses nothing. It checks
// again each time a mirror moves, with the owners' cover rebuilds done.
func (f *memFixture) waitMirrors(t *testing.T, positions []geo.Point) {
	t.Helper()
	ring := f.currentRing()
	var live []*cluster.Node
	for _, i := range f.liveIDs() {
		live = append(live, f.node(i))
	}
	waitMoves(t, live, func() string {
		for _, i := range f.liveIDs() {
			f.engine(i).Scheduler().Wait()
		}
		for _, p := range positions {
			reps := ring.ReplicasFor(cluster.ShardKey{Pollutant: tuple.CO2, Cell: ring.CellOf(p)})
			want, err := f.engine(reps[0]).Query(context.Background(), query.Request{T: queryT, X: p.X, Y: p.Y, Pollutant: tuple.CO2})
			if err != nil {
				t.Fatalf("owner %d query: %v", reps[0], err)
			}
			for _, rep := range reps[1:] {
				tr := &memTransport{f: f, to: rep}
				resp, err := tr.Exchange(wire.ReplicaRead{Origin: uint16(reps[0]),
					Inner: wire.QueryRequest{T: queryT, X: p.X, Y: p.Y, Pollutant: tuple.CO2}})
				if err != nil {
					t.Fatal(err)
				}
				if qr, isQ := resp.(wire.QueryResponse); !isQ || qr.Value != want {
					return fmt.Sprintf("mirrors never converged: replica %d of %d answers %#v, owner %v", rep, reps[0], resp, want)
				}
			}
		}
		return ""
	})
}

// --- live transitions -------------------------------------------------

// TestJoinUnderWriteLoad is the live-rebalance acceptance demo: a
// 3-node replicated cluster joins a 4th node while a writer commits
// tuples and a reader queries — zero query errors, zero lost acked
// tuples, and the joiner ends up owning (and serving) real shards at
// epoch 1 on every node.
func TestJoinUnderWriteLoad(t *testing.T) {
	f := newMemFixture(t, 3, 2, 0)
	base := memLattice(0)
	f.loadVia(t, 0, base)

	var (
		wg         sync.WaitGroup
		stop       = make(chan struct{}) // close-only signal channel
		phase      atomic.Int32          // bumped while the loops run to lap them again
		laps       sync.WaitGroup        // each loop's first iteration begun in the current phase
		ackedMu    sync.Mutex
		acked      []geo.Point
		queryErrs  atomic.Int64
		queryTotal atomic.Int64
	)
	// Background writer: single-tuple acked commits on the 100 m-offset
	// band, rotating the entry node. Only acked tuples join the oracle.
	writerPool := memLattice(100)
	wg.Add(2)
	laps.Add(2)
	go func() {
		defer wg.Done()
		for i, lapped := 0, int32(-1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p := phase.Load()
			tp := writerPool[i%len(writerPool)]
			resp := f.node(i % 3).HandleMessage(wire.IngestRequest{Pollutant: tuple.CO2, Tuples: tuple.Batch{tp}})
			if ir, ok := resp.(wire.IngestResponse); ok && ir.Ingested == 1 {
				ackedMu.Lock()
				acked = append(acked, tp.Pos())
				ackedMu.Unlock()
			}
			if p > lapped {
				lapped = p
				laps.Done()
			}
			time.Sleep(time.Millisecond) // yield: a spinning loop starves the join on one CPU
		}
	}()
	// Background reader: routed cover queries; any non-answer is an
	// availability failure.
	samples := positionsOf(base)
	go func() {
		defer wg.Done()
		for i, lapped := 0, int32(-1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ph, p := phase.Load(), samples[i%len(samples)]
			queryTotal.Add(1)
			resp := f.node(i % 3).HandleMessage(wire.QueryRequest{T: queryT, X: p.X, Y: p.Y, Pollutant: tuple.CO2})
			if _, ok := resp.(wire.QueryResponse); !ok {
				queryErrs.Add(1)
				t.Errorf("query during join answered %#v", resp)
			}
			if ph > lapped {
				lapped = ph
				laps.Done()
			}
			time.Sleep(time.Millisecond) // yield: a spinning loop starves the join on one CPU
		}
	}()
	// On a single-CPU box the spinning writer can starve the reader (or
	// vice versa) for the whole join window; gate the join on both loops
	// having completed an iteration so "the load ran" is deterministic.
	laps.Wait()

	joiner := f.addJoiner(t, 0)
	if err := joiner.CompleteJoin(context.Background()); err != nil {
		t.Fatalf("join: %v", err)
	}
	// Keep the load running until both loops have completed an iteration
	// on the committed topology too.
	laps.Add(2)
	phase.Add(1)
	laps.Wait()
	close(stop)
	wg.Wait()

	if n := queryErrs.Load(); n != 0 {
		t.Fatalf("%d of %d queries errored during the live join", n, queryTotal.Load())
	}
	if queryTotal.Load() == 0 {
		t.Fatal("reader never ran")
	}
	for _, i := range f.liveIDs() {
		if e := f.node(i).Ring().Epoch(); e != f.base+1 {
			t.Fatalf("node %d at epoch %d after the join, want %d", i, e, f.base+1)
		}
	}
	ring := f.currentRing()
	if cells := ring.OwnedCells(3, tuple.CO2); len(cells) == 0 {
		t.Fatal("joiner owns no shards")
	}
	f.checkPresence(t, positionsOf(base))
	ackedMu.Lock()
	got := append([]geo.Point(nil), acked...)
	ackedMu.Unlock()
	if len(got) == 0 {
		t.Fatal("writer acked nothing — the load never ran")
	}
	f.checkPresence(t, got)
	f.checkRoutedConsistency(t, 0, positionsOf(base))
	f.checkRoutedConsistency(t, 3, positionsOf(base)[:8])
}

// TestDrainHandsOffShards: an operator drain moves the drained node's
// shards to the survivors before the epoch commits — afterwards every
// acked tuple answers from a survivor, routing through any survivor
// works, and the drained node is fenced out of the membership.
func TestDrainHandsOffShards(t *testing.T) {
	f := newMemFixture(t, 3, 2, 0)
	base := memLattice(0)
	f.loadVia(t, 1, base)

	const drained = 2
	if err := f.node(drained).Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ring := f.currentRing()
	if ring.Epoch() != f.base+1 || ring.IsLive(drained) {
		t.Fatalf("epoch %d, drained live %v — want epoch %d with node %d tombstoned",
			ring.Epoch(), ring.IsLive(drained), f.base+1, drained)
	}
	for _, i := range []int{0, 1} {
		if e := f.node(i).Ring().Epoch(); e != f.base+1 {
			t.Fatalf("survivor %d at epoch %d, want %d", i, e, f.base+1)
		}
	}
	f.checkPresence(t, positionsOf(base))
	f.checkRoutedConsistency(t, 0, positionsOf(base))
	// Writes routed through a survivor land on the new owners.
	extra := memLattice(100)
	f.loadVia(t, 0, extra)
	f.checkPresence(t, positionsOf(extra))
	f.checkSinglePrimary(t)
}

// TestPromoteReplicaAfterPrimaryDeath: kill a primary outright; a
// surviving replica tombstones it at the next epoch, recovers the dead
// node's shards from the mirrors, and writes resume — within exactly
// one epoch bump.
func TestPromoteReplicaAfterPrimaryDeath(t *testing.T) {
	f := newMemFixture(t, 3, 2, 0)
	base := memLattice(0)
	f.loadVia(t, 0, base)
	f.waitMirrors(t, positionsOf(base))

	const dead = 1
	f.kill(dead)
	if err := f.node(2).Promote(context.Background(), dead); err != nil {
		t.Fatalf("promote: %v", err)
	}
	ring := f.currentRing()
	if ring.Epoch() != f.base+1 {
		t.Fatalf("promotion took the cluster to epoch %d, want exactly one bump from %d", ring.Epoch(), f.base)
	}
	if ring.IsLive(dead) {
		t.Fatal("dead primary still a live member")
	}
	// The mirrors held everything the dead primary had streamed: no
	// acked tuple is lost, and writes to the re-homed shards resume.
	f.checkPresence(t, positionsOf(base))
	f.checkRoutedConsistency(t, 0, positionsOf(base))
	extra := memLattice(100)
	f.loadVia(t, 2, extra)
	f.checkPresence(t, positionsOf(extra))
	f.checkSinglePrimary(t)
}

// TestPromoteLargestPrimaryPullsOverTheWire kills the node that owns the
// most cells. Its shards fall to their hash successors, and at least one
// of those holds no mirror of it: a node mirrors only its R-1 ID
// predecessors. That node recovers its gained shards by pulling the
// dead node's stream from a mirror over the wire, so presence and
// byte-equal routed answers hold as they do for a gainer that replays
// its own mirror.
func TestPromoteLargestPrimaryPullsOverTheWire(t *testing.T) {
	f := newMemFixture(t, 3, 2, 0)
	base := memLattice(0)
	f.loadVia(t, 0, base)
	f.waitMirrors(t, positionsOf(base))

	old := f.currentRing()
	dead := 0
	for n := 1; n < old.Nodes(); n++ {
		if len(old.OwnedCells(n, tuple.CO2)) > len(old.OwnedCells(dead, tuple.CO2)) {
			dead = n
		}
	}
	d, err := old.TombstoneDesc(dead)
	if err != nil {
		t.Fatal(err)
	}
	next, err := cluster.NewRing(d)
	if err != nil {
		t.Fatal(err)
	}
	pullers := map[int]bool{}
	for _, c := range old.OwnedCells(dead, tuple.CO2) {
		gainer := next.OwnerKey(cluster.ShardKey{Pollutant: tuple.CO2, Cell: c})
		if _, held := cluster.MirrorAt(f.node(gainer), dead, tuple.CO2, nil); !held {
			pullers[gainer] = true
		}
	}
	if len(pullers) == 0 {
		t.Fatalf("every shard of node %d falls to a node mirroring it; the case needs one that does not", dead)
	}
	t.Logf("node %d owns %d cells; gainers without its mirror: %v", dead, len(old.OwnedCells(dead, tuple.CO2)), pullers)

	f.kill(dead)
	promoter := (dead + 1) % old.Nodes()
	if err := f.node(promoter).Promote(context.Background(), dead); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if ring := f.currentRing(); ring.IsLive(dead) || ring.Epoch() != f.base+1 {
		t.Fatalf("after promotion: node %d live %v at epoch %d", dead, ring.IsLive(dead), ring.Epoch())
	}
	for p := range pullers {
		if _, held := cluster.MirrorAt(f.node(p), dead, tuple.CO2, nil); held {
			t.Fatalf("node %d took a mirror of node %d; its shards must come from a pull", p, dead)
		}
	}
	f.checkPresence(t, positionsOf(base))
	f.checkRoutedConsistency(t, promoter, positionsOf(base))
	extra := memLattice(100)
	f.loadVia(t, promoter, extra)
	f.checkPresence(t, positionsOf(extra))
	f.checkSinglePrimary(t)
}

// TestBootRingFramesAreFenced: a ring's first epoch fences like any other.
// Every facade and envirometer-server ring boots at epoch 0, so its first
// join must fence frames routed under epoch 0: after the join, the old
// owner of a shard the joiner gained refuses a stale ingest and a stale
// query for it with CodeStaleEpoch, and stores nothing. A stale scatter
// leg is not fenced: it still gets the old owner's answer.
func TestBootRingFramesAreFenced(t *testing.T) {
	for _, epoch := range memBaseEpochs {
		t.Run(fmt.Sprintf("epoch%d", epoch), func(t *testing.T) {
			f := newMemFixture(t, 3, 2, epoch)
			f.loadVia(t, 0, memLattice(0))
			old := f.currentRing()
			joiner := f.addJoiner(t, 0)
			if err := joiner.CompleteJoin(context.Background()); err != nil {
				t.Fatalf("join: %v", err)
			}
			next := f.currentRing()
			var p geo.Point
			from := -1
			for _, r := range memLattice(0) {
				k := cluster.ShardKey{Pollutant: tuple.CO2, Cell: next.CellOf(r.Pos())}
				if next.OwnerKey(k) == 3 && old.OwnerKey(k) != 3 {
					p, from = r.Pos(), old.OwnerKey(k)
					break
				}
			}
			if from < 0 {
				t.Fatal("the joiner gained no shard holding a lattice point")
			}
			st, err := f.engine(from).StoreFor(tuple.CO2)
			if err != nil {
				t.Fatal(err)
			}
			win := tuple.WindowIndex(queryT, st.WindowLength())
			held := st.WindowLen(win)
			tr := &memTransport{f: f, to: from}
			for _, inner := range []wire.Message{
				wire.IngestRequest{Pollutant: tuple.CO2, Tuples: tuple.Batch{{T: queryT, X: p.X, Y: p.Y, S: fieldVal(p.X, p.Y)}}},
				wire.QueryRequest{T: queryT, X: p.X, Y: p.Y, Pollutant: tuple.CO2},
			} {
				resp, err := tr.Exchange(wire.Forwarded{Inner: inner, Epoch: epoch})
				if err != nil {
					t.Fatal(err)
				}
				if er, ok := resp.(wire.ErrorResponse); !ok || er.Code != wire.CodeStaleEpoch {
					t.Errorf("old owner %d answered a %T routed at epoch %d with %#v, want CodeStaleEpoch",
						from, inner, epoch, resp)
				}
			}
			if n := st.WindowLen(win); n != held {
				t.Errorf("old owner %d holds %d tuples after a fenced ingest, %d before", from, n, held)
			}
			for inner, want := range map[wire.Message]wire.MsgType{
				wire.HeatmapRequest{T: queryT, Pollutant: tuple.CO2, Cols: 4, Rows: 4}: wire.TypeHeatmapResponse,
				wire.ModelRequest{T: queryT, Pollutant: tuple.CO2}:                     wire.TypeModelResponse,
			} {
				resp, err := tr.Exchange(wire.Forwarded{Inner: inner, Epoch: epoch})
				if err != nil {
					t.Fatal(err)
				}
				if resp.Type() != want {
					t.Errorf("old owner %d answered a %T scatter leg at epoch %d with %#v", from, inner, epoch, resp)
				}
			}
		})
	}
}

// --- deterministic rebalance fault injection --------------------------

// faultAbort is the sentinel a fault hook panics with to simulate the
// coordinator dying at an exact phase boundary.
type faultAbort struct{ phase string }

// phaseFault arms a one-shot fault at a phase boundary: kill fixture
// node `kill` (-1 for none), then optionally abandon the coordinator
// by panicking. CompareAndSwap guarantees exactly one fault per run
// even when the phase label fires again during recovery.
type phaseFault struct {
	phase string
	kill  int
	abort bool
	fired atomic.Bool
}

func (pf *phaseFault) hook(f *memFixture) func(string) {
	return func(phase string) {
		if phase != pf.phase || !pf.fired.CompareAndSwap(false, true) {
			return
		}
		if pf.kill >= 0 {
			f.kill(pf.kill)
		}
		if pf.abort {
			panic(faultAbort{phase: phase})
		}
	}
}

// runAborting runs one coordinator step, turning a faultAbort panic
// into a normal "the coordinator died here" outcome.
func runAborting(fn func() error) (err error, aborted bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(faultAbort); ok {
				aborted = true
				return
			}
			panic(r)
		}
	}()
	return fn(), false
}

// healTraffic drives single-tuple writes through every live node until
// all of them serve the same ring — the epoch fence plus
// refresh-and-retry propagating a half-committed transition that has
// no coordinator left to finish it. The tuples ride the 200 m-offset
// band so they never perturb the other bands' presence oracles; only
// acked ones join the oracle set.
func (f *memFixture) healTraffic(t *testing.T) []geo.Point {
	t.Helper()
	pool := memLattice(200)
	var acked []geo.Point
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; ; i++ {
		live := f.liveIDs()
		converged := true
		first := f.node(live[0]).Ring().Wire()
		for _, n := range live[1:] {
			if !reflect.DeepEqual(f.node(n).Ring().Wire(), first) {
				converged = false
				break
			}
		}
		if converged {
			return acked
		}
		if time.Now().After(deadline) {
			for _, n := range live {
				t.Logf("node %d at epoch %d", n, f.node(n).Ring().Epoch())
			}
			t.Fatal("cluster never converged on one ring through fence-driven healing")
		}
		tp := pool[i%len(pool)]
		via := live[i%len(live)]
		resp := f.node(via).HandleMessage(wire.IngestRequest{Pollutant: tuple.CO2, Tuples: tuple.Batch{tp}})
		if ir, ok := resp.(wire.IngestResponse); ok && ir.Ingested == 1 {
			acked = append(acked, tp.Pos())
		}
	}
}

// TestRebalanceFaultMatrix kills a transfer source, a broadcast
// receiver, or the coordinator itself at every phase boundary of every
// transition — exactly one fault per run — and requires the cluster
// to come back: by coordinator retry where the protocol is retryable,
// by fence-driven healing (plus operator re-promotion) where the
// coordinator is gone past the point of no return. After recovery: no
// acked tuple lost, one ring on every live node, queries byte-equal.
func TestRebalanceFaultMatrix(t *testing.T) {
	type scenario struct {
		kind  string // join | drain | promote
		phase string
		fault string // kill-source | kill-receiver | abort
	}
	var scenarios []scenario
	for _, ph := range []string{"join:pending", "join:bootstrapped", "join:committing", "join:committed"} {
		scenarios = append(scenarios,
			scenario{"join", ph, "kill-source"},
			scenario{"join", ph, "abort"},
		)
	}
	for _, ph := range []string{"drain:pending", "drain:prepared", "drain:fenced"} {
		scenarios = append(scenarios,
			scenario{"drain", ph, "kill-receiver"},
			scenario{"drain", ph, "abort"},
		)
	}
	for _, ph := range []string{"promote:adopted", "promote:recovered"} {
		scenarios = append(scenarios, scenario{"promote", ph, "abort"})
	}

	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.kind+"/"+sc.phase+"/"+sc.fault, func(t *testing.T) {
			for _, epoch := range memBaseEpochs {
				t.Run(fmt.Sprintf("epoch%d", epoch), func(t *testing.T) {
					f := newMemFixture(t, 3, 2, epoch)
					base := memLattice(0)
					f.loadVia(t, 0, base)
					oracle := positionsOf(base)
					ctx := context.Background()

					pf := &phaseFault{phase: sc.phase, kill: -1, abort: sc.fault == "abort"}
					const drainer, promoter, victim = 2, 2, 1
					var attempt func() error
					postFence := false
					switch sc.kind {
					case "join":
						old := f.currentRing()
						if sc.fault == "kill-source" {
							// A dead transfer source is survivable only because its
							// replica mirrors the stream; let the mirrors drain
							// before the joiner enters the ring.
							f.waitMirrors(t, oracle)
						}
						joiner := f.addJoiner(t, 0)
						next := joiner.Ring()
						if sc.fault == "kill-source" {
							// The kill target: whichever old member owns the first
							// shard the joiner gains — it serves the bootstrap pull,
							// which must fall over to the shard's mirror.
							for c := 0; c < next.Cells() && pf.kill < 0; c++ {
								k := cluster.ShardKey{Pollutant: tuple.CO2, Cell: c}
								if next.OwnerKey(k) == 3 && old.OwnerKey(k) != 3 {
									pf.kill = old.OwnerKey(k)
								}
							}
							if pf.kill < 0 {
								t.Skip("joiner gains no shards (placement fluke)")
							}
						}
						f.setHook(3, pf.hook(f))
						attempt = func() error { return joiner.CompleteJoin(ctx) }
					case "drain":
						if sc.fault == "kill-receiver" {
							pf.kill = victim
						}
						f.setHook(drainer, pf.hook(f))
						attempt = func() error { return f.node(drainer).Drain(ctx) }
						// Past the self-fence the drainer cannot re-run Drain (it is
						// no longer a live member of its own ring); recovery is
						// fence-driven healing. A receiver killed at drain:prepared
						// also leaves the drain to fail at commit, after the fence.
						postFence = sc.phase == "drain:fenced" ||
							(sc.phase == "drain:prepared" && sc.fault == "kill-receiver")
					case "promote":
						f.waitMirrors(t, oracle)
						f.kill(victim)
						f.setHook(promoter, pf.hook(f))
						attempt = func() error { return f.node(promoter).Promote(ctx, victim) }
					}

					err, aborted := runAborting(attempt)
					t.Logf("first attempt: err=%v aborted=%v", err, aborted)
					// The dangerous window: whatever the fault left behind, no two
					// same-epoch live nodes may disagree on the ring.
					f.checkSinglePrimary(t)

					// Recovery. Revive the transiently killed party first.
					if pf.kill >= 0 {
						f.revive(pf.kill)
					}
					deadline := time.Now().Add(30 * time.Second)
					switch sc.kind {
					case "join":
						// CompleteJoin is retryable at every abort point: pull
						// progress is deduplicated and the commit broadcast accepts
						// already-committed acks.
						for err != nil || aborted {
							if time.Now().After(deadline) {
								t.Fatalf("join never recovered: %v", err)
							}
							err, aborted = runAborting(attempt)
						}
					case "drain":
						// Retryable only before the self-fence; past it, recovery is
						// the fence-driven healing below.
						for (err != nil || aborted) && !postFence {
							if time.Now().After(deadline) {
								t.Fatalf("drain never recovered: %v", err)
							}
							err, aborted = runAborting(attempt)
							if err != nil && strings.Contains(err.Error(), "not a live member") {
								postFence = true
							}
						}
					case "promote":
						// The operator re-issues the promotion on every surviving
						// replica: the already-tombstoned path re-runs the recovery
						// pull, so each survivor replays its own mirror of the dead
						// primary even though the abandoned coordinator never told
						// it to.
						for _, n := range f.liveIDs() {
							for {
								if time.Now().After(deadline) {
									t.Fatal("promotion never recovered")
								}
								if e := f.node(n).Promote(ctx, victim); e == nil {
									break
								}
							}
						}
					}
					healed := f.healTraffic(t)

					ring := f.currentRing()
					if ring.Epoch() <= f.base {
						t.Fatal("transition recovered but the epoch never moved")
					}
					f.checkPresence(t, oracle)
					f.checkPresence(t, healed)
					f.checkRoutedConsistency(t, 0, oracle)
					f.checkSinglePrimary(t)
				})
			}
		})
	}
}
