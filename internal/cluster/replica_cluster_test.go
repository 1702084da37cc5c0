package cluster_test

// Replication tests: the 3-node netsim cluster from cluster_test.go
// with Replicas: 2 — every shard's owner streams its committed ingests
// to the next ring successor, which holds a full mirror and answers the
// owner's shards when it dies. The acceptance properties: replica
// answers are byte-equal to the owner's, killing one node yields ZERO
// errors on the query path (reads fail over), killing a shard's whole
// replica set degrades scatter-gather to a marked partial result
// instead of an all-or-nothing 502, a severed replication stream heals
// through pull catch-up, and routed subscriptions re-home their dead leg
// at a replica. Runs under -race.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/query"
	"repro/internal/subs"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// newMirrorEngine is the test mirror factory: the product's lazy mirror
// engine with the same configuration as newEngine (window, k-means
// seed), so a mirror that replayed the primary's commits answers
// byte-equal.
func newMirrorEngine() cluster.Handler { return propEngine(0) }

// newReplicatedFixture is newFixture with Replicas: 2 and a replication
// config on every node. Nodes are Closed on cleanup (stopping the
// stream workers and the mirror engines they hold).
func newReplicatedFixture(t *testing.T) *fixture {
	t.Helper()
	return newReplicatedFixtureWith(t, 2, func(int) func() cluster.Handler { return newMirrorEngine })
}

// newReplicatedFixtureWith is newReplicatedFixture with replicas copies
// of every shard, and node i's mirror engines built by mirrors(i).
func newReplicatedFixtureWith(t *testing.T, replicas int, mirrors func(node int) func() cluster.Handler) *fixture {
	t.Helper()
	cells, err := cluster.Cells(clusterRegion, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := cluster.NewRing(cluster.Desc{
		Nodes:    []string{"node-0:8081", "node-1:8081", "node-2:8081"},
		Cells:    cells,
		Replicas: replicas,
	})
	if err != nil {
		t.Fatal(err)
	}
	link, err := netsim.NewLink(netsim.ThreeG())
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{ring: ring, link: link, dead: make([]atomic.Bool, 3), streams: make(map[int][]*fakeStream)}
	for i := 0; i < 3; i++ {
		f.engines = append(f.engines, newEngine(t))
	}
	for i := 0; i < 3; i++ {
		transports := make([]cluster.Transport, 3)
		for j := 0; j < 3; j++ {
			if j != i {
				transports[j] = &nodeTransport{f: f, to: j}
			}
		}
		node, err := cluster.NewNode(cluster.NodeConfig{
			Ring:        ring,
			Self:        i,
			Local:       f.engines[i],
			Transports:  transports,
			Default:     tuple.CO2,
			Streams:     f.openStream,
			Replication: cluster.ReplicationConfig{NewMirror: mirrors(i)},
		})
		if err != nil {
			t.Fatal(err)
		}
		f.nodes = append(f.nodes, node)
		t.Cleanup(func() { node.Close() })
	}
	return f
}

// replicaRead asks node rep for origin's answer to req from its mirror,
// over the wire codec (an error coded replica-miss is a miss).
func (f *fixture) replicaRead(t *testing.T, rep, origin int, req wire.Message) (wire.Message, bool) {
	t.Helper()
	tr := &nodeTransport{f: f, to: rep}
	resp, err := tr.Exchange(wire.ReplicaRead{Origin: uint16(origin), Inner: req})
	if err != nil {
		return nil, false
	}
	if er, isErr := resp.(wire.ErrorResponse); isErr && er.Code == wire.CodeReplicaMiss {
		return resp, false
	}
	return resp, true
}

// waitConverged blocks until every sample's replicas answer exactly the
// owner engine's value — the replication streams (and any catch-up
// pulls) have drained. It checks again each time a mirror moves, with
// the owners' cover rebuilds done, so a lag it sees is replication's.
func waitConverged(t *testing.T, f *fixture, reqs []query.Request) {
	t.Helper()
	waitMoves(t, f.nodes, func() string {
		for _, e := range f.engines {
			e.Scheduler().Wait()
		}
		for _, req := range reqs {
			pt := geo.Point{X: req.X, Y: req.Y}
			owner := f.ring.Owner(tuple.CO2, pt)
			want, err := f.engines[owner].Query(context.Background(), req)
			if err != nil {
				t.Fatalf("owner %d query: %v", owner, err)
			}
			k := cluster.ShardKey{Pollutant: tuple.CO2, Cell: f.ring.CellOf(pt)}
			for _, rep := range f.ring.ReplicasFor(k)[1:] {
				resp, ok := f.replicaRead(t, rep, owner, wire.QueryRequest{T: req.T, X: req.X, Y: req.Y, Pollutant: req.Pollutant})
				if qr, isQ := resp.(wire.QueryResponse); !ok || !isQ || qr.Value != want {
					return fmt.Sprintf("replicas never converged: replica %d of %d answers %#v, owner answers %v", rep, owner, resp, want)
				}
			}
		}
		return ""
	})
}

// TestReplicaStreamsBuildMirrors: a routed ingest reaches every shard
// owner AND its replica, and the mirrors answer byte-equal to the
// owner's engine.
func TestReplicaStreamsBuildMirrors(t *testing.T) {
	f := newReplicatedFixture(t)
	data := makeData()
	f.load(t, data)
	waitConverged(t, f, sampleRequests(data))

	streamed, applied, mirrors := int64(0), int64(0), 0
	for i, n := range f.nodes {
		rs, ok := n.ReplicationStats()
		if !ok {
			t.Fatalf("node %d reports no replication stats on a replicated ring", i)
		}
		streamed += rs.Streamed
		applied += rs.Applied
		mirrors += rs.Mirrors
	}
	if streamed == 0 {
		t.Error("no ingest frame was streamed to a replica")
	}
	if applied == 0 {
		t.Error("no streamed frame was applied to a mirror")
	}
	if mirrors == 0 {
		t.Error("no node holds a mirror")
	}
}

// TestReplicaFailoverZeroQueryErrors is the headline acceptance: with
// Replicas: 2, killing one node produces ZERO errors on the query path
// — every sample owned by the dead node answers from a replica,
// byte-equal to the answer the owner gave before dying.
func TestReplicaFailoverZeroQueryErrors(t *testing.T) {
	f := newReplicatedFixture(t)
	data := makeData()
	f.load(t, data)
	samples := sampleRequests(data)
	waitConverged(t, f, samples)
	ctx := context.Background()

	// Record the owners' answers (and the full heatmap) before the kill.
	want := make([]float64, len(samples))
	for i, req := range samples {
		owner := f.ring.Owner(tuple.CO2, geo.Point{X: req.X, Y: req.Y})
		v, err := f.engines[owner].Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	preGrid, err := f.nodes[0].Heatmap(ctx, tuple.CO2, queryT, 16, 16)
	if err != nil {
		t.Fatalf("pre-kill heatmap: %v", err)
	}

	const victim = 2
	f.kill(victim)

	victimShards := 0
	for i, req := range samples {
		owner := f.ring.Owner(tuple.CO2, geo.Point{X: req.X, Y: req.Y})
		if owner == victim {
			victimShards++
		}
		for n := 0; n < 2; n++ { // query through the survivors
			resp := f.nodes[n].HandleMessage(wire.QueryRequest{T: req.T, X: req.X, Y: req.Y, Pollutant: req.Pollutant})
			qr, ok := resp.(wire.QueryResponse)
			if !ok {
				t.Fatalf("node %d errored on (%v,%v) owned by %d: %#v", n, req.X, req.Y, owner, resp)
			}
			if qr.Value != want[i] {
				t.Fatalf("node %d answers %v at (%v,%v), owner %d answered %v before dying",
					n, qr.Value, req.X, req.Y, owner, want[i])
			}
		}
	}
	if victimShards == 0 {
		t.Fatal("no sample hit the dead node's shards — broaden the samples")
	}
	failedOver := int64(0)
	for n := 0; n < 2; n++ {
		failedOver += f.nodes[n].Stats().FailedOver
	}
	if failedOver == 0 {
		t.Error("no request failed over — the dead node's shards answered without replicas?")
	}

	// Scatter-gather heals too: the post-kill heatmap is byte-equal to
	// the pre-kill one (mirrors replayed the exact commit stream), with
	// no partial marker.
	postGrid, err := f.nodes[0].Heatmap(ctx, tuple.CO2, queryT, 16, 16)
	if err != nil {
		t.Fatalf("post-kill heatmap: %v", err)
	}
	if !reflect.DeepEqual(preGrid, postGrid) {
		t.Fatal("post-kill heatmap differs from pre-kill — replica shards are not byte-equal")
	}
	if _, err := f.nodes[0].Model(ctx, tuple.CO2, queryT); err != nil {
		t.Fatalf("post-kill model: %v", err)
	}

	// Writes never fail over, but mid-outage the survivors' shards keep
	// taking them: a tuple node 1 owns still acks through node 0 (its
	// stream to the dead replica fails, the commit does not), and the
	// victim's frozen shards answer as before.
	var live tuple.Batch
	for _, r := range data {
		if f.ring.Owner(tuple.CO2, r.Pos()) == 1 {
			live = tuple.Batch{r}
			break
		}
	}
	resp := f.nodes[0].HandleMessage(wire.IngestRequest{Pollutant: tuple.CO2, Tuples: live})
	if ir, ok := resp.(wire.IngestResponse); !ok || ir.Ingested != 1 {
		t.Fatalf("survivor-owned ingest of %v after the kill: %#v", live, resp)
	}
	for i, req := range samples {
		if f.ring.Owner(tuple.CO2, geo.Point{X: req.X, Y: req.Y}) != victim {
			continue
		}
		v, err := f.nodes[0].Query(ctx, req)
		if err != nil || v != want[i] {
			t.Fatalf("victim-shard answer at (%v,%v) after the write: %v (%v), want %v", req.X, req.Y, v, err, want[i])
		}
	}
}

// TestReplicaBatchFailover: a batch spanning the dead node's shards
// answers every item (no per-item unreachable errors).
func TestReplicaBatchFailover(t *testing.T) {
	f := newReplicatedFixture(t)
	data := makeData()
	f.load(t, data)
	samples := sampleRequests(data)
	waitConverged(t, f, samples)
	ctx := context.Background()

	want := make([]float64, len(samples))
	for i, req := range samples {
		owner := f.ring.Owner(tuple.CO2, geo.Point{X: req.X, Y: req.Y})
		v, err := f.engines[owner].Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	const victim = 1
	f.kill(victim)

	results, err := f.nodes[0].QueryBatch(ctx, samples)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("batch item %d failed after node loss: %v", i, res.Err)
		}
		if res.Value != want[i] {
			t.Fatalf("batch item %d answers %v, owner answered %v", i, res.Value, want[i])
		}
	}
}

// TestReplicaPartialResultWhenReplicaSetDead: killing a shard's owner
// AND its only replica degrades scatter-gather to a partial result —
// the grid still comes back, marked with the dead node and a stale
// shard count — instead of the all-or-nothing 502.
func TestReplicaPartialResultWhenReplicaSetDead(t *testing.T) {
	f := newReplicatedFixture(t)
	data := makeData()
	f.load(t, data)
	waitConverged(t, f, sampleRequests(data))
	ctx := context.Background()

	// Pick a victim shard and kill its entire replica set: with R=2 and
	// 3 nodes that is the owner plus one peer, leaving one survivor.
	const victim = 0
	cells := f.ring.OwnedCells(victim, tuple.CO2)
	if len(cells) == 0 {
		t.Fatal("victim owns no shards")
	}
	reps := f.ring.ReplicasFor(cluster.ShardKey{Pollutant: tuple.CO2, Cell: cells[0]})
	if len(reps) != 2 || reps[0] != victim {
		t.Fatalf("unexpected replica set %v", reps)
	}
	peer := reps[1]
	survivor := 3 - victim - peer
	f.kill(victim)
	f.kill(peer)

	g, err := f.nodes[survivor].Heatmap(ctx, tuple.CO2, queryT, 16, 16)
	if err == nil {
		t.Fatal("heatmap with a whole replica set dead returned no partial marker")
	}
	if !errors.Is(err, cluster.ErrPartialResult) {
		t.Fatalf("heatmap error is %v, want ErrPartialResult", err)
	}
	var pe *cluster.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v does not unwrap to *PartialError", err)
	}
	if len(pe.Dead) == 0 || pe.StaleShards == 0 {
		t.Fatalf("partial marker is empty: %+v", pe.Partial)
	}
	if g == nil || len(g.Values) == 0 {
		t.Fatal("partial heatmap carried no grid — availability lost with the marker")
	}
	if _, err := f.nodes[survivor].Model(ctx, tuple.CO2, queryT); !errors.Is(err, cluster.ErrPartialResult) {
		t.Fatalf("model error is %v, want ErrPartialResult", err)
	}

	// A point query on the dead replica set still fails loudly — partial
	// results are a scatter-gather contract, not a silent wrong answer.
	deadCellPt := func() geo.Point {
		for _, r := range data {
			p := r.Pos()
			k := cluster.ShardKey{Pollutant: tuple.CO2, Cell: f.ring.CellOf(p)}
			rr := f.ring.ReplicasFor(k)
			if rr[0] == victim && rr[1] == peer {
				return p
			}
		}
		t.Fatal("no lattice point on the dead replica set")
		return geo.Point{}
	}()
	resp := f.nodes[survivor].HandleMessage(wire.QueryRequest{T: queryT, X: deadCellPt.X, Y: deadCellPt.Y, Pollutant: tuple.CO2})
	er, isErr := resp.(wire.ErrorResponse)
	if !isErr {
		t.Fatalf("dead-replica-set query answered: %#v", resp)
	}
	if er.Code != wire.CodeNodeUnreachable {
		t.Fatalf("dead-replica-set query error %#v is not coded unreachable", er)
	}
}

// TestReplicaCatchupHealsSeveredStream: a replica that missed streamed
// frames while its stream was severed detects the sequence gap on the
// next frame and pulls checkpoint-or-suffix catch-up from the primary
// until byte-equal again — including surviving a crashed catch-up pull
// (primary dead mid-pull). It is the one catch-up check over the real
// stream workers; TestMirrorEquivalenceProperty drives the protocol's
// orderings.
func TestReplicaCatchupHealsSeveredStream(t *testing.T) {
	f := newReplicatedFixture(t)
	data := makeData()
	// Three waves, every third tuple each, so that each wave spans every
	// cell and streams to every mirror.
	var waves [3]tuple.Batch
	for i, r := range data {
		waves[i%3] = append(waves[i%3], r)
	}

	origin := slices.IndexFunc([]int{0, 1}, func(n int) bool { return slices.Contains(f.ring.ReplicaPeers(n, tuple.CO2), 2) })
	if origin < 0 {
		t.Skip("node 2 backs no primary — ring layout changed")
	}
	f.load(t, waves[0])
	waitConverged(t, f, sampleRequests(waves[0]))
	// The mirror the sever will gap has a stream position to resume from.
	if pos, ok := cluster.MirrorAt(f.nodes[2], origin, tuple.CO2, nil); !ok || pos.Next == 0 {
		t.Fatalf("node 2 applied no streamed frame of node %d before the sever (mirror %v, %+v)", origin, ok, pos)
	}

	// Sever: frames streamed to node 2 are lost until its origin has lost
	// one, while everything else reaches it.
	lost := make(chan struct{}, 1)
	f.severed[2].Store(&lost)
	f.load(t, waves[1])
	<-lost

	// Crash injection on the catch-up path: restore the stream, then feed
	// node 2 a frame of its origin's stream far ahead of its mirror while
	// the origin is dead — the gap NAK schedules a pull that must fail
	// cleanly, not wedge the node.
	f.severed[2].Store(nil)
	f.dead[origin].Store(true)
	forged := wire.ReplicaIngest{Origin: uint16(origin), Pollutant: tuple.CO2, Seq: 1 << 40,
		Tuples: tuple.Batch{{T: 100, X: 0, Y: 0, S: 1}}, Incarnation: cluster.Incarnation(f.nodes[origin])}
	resp := f.nodes[2].HandleMessage(forged)
	if _, isErr := resp.(wire.ErrorResponse); !isErr {
		t.Fatalf("forged gap frame was not NAKed: %#v", resp)
	}
	// The origin stays dead until that pull is over.
	waitMoves(t, f.nodes[2:], func() string {
		if pos, _ := cluster.MirrorAt(f.nodes[2], origin, tuple.CO2, nil); pos.Pulling {
			return "the pull from the dead origin never ended"
		}
		return ""
	})
	if rs, _ := f.nodes[2].ReplicationStats(); rs.StreamErrors == 0 {
		t.Fatal("the pull from the dead origin did not fail")
	}
	// The failed pull must not poison the mirror: revive the origin and
	// stream the rest; gap detection pulls the real suffix.
	f.dead[origin].Store(false)
	f.load(t, waves[2])

	samples := sampleRequests(data)
	waitConverged(t, f, samples)

	// The frame the sever lost reaches node 2 only through a catch-up
	// session besides the one that failed.
	if rs, _ := f.nodes[2].ReplicationStats(); rs.Catchups < 2 {
		t.Errorf("node 2 ran %d catch-up sessions: the severed stream healed without one", rs.Catchups)
	}

	// And the healed mirrors actually serve: kill a primary, every one
	// of its samples answers byte-equal through a survivor.
	ctx := context.Background()
	want := make([]float64, len(samples))
	for i, req := range samples {
		owner := f.ring.Owner(tuple.CO2, geo.Point{X: req.X, Y: req.Y})
		v, err := f.engines[owner].Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	f.kill(origin)
	survivors := []int{0, 1, 2}
	for i, req := range samples {
		for _, n := range survivors {
			if n == origin {
				continue
			}
			resp := f.nodes[n].HandleMessage(wire.QueryRequest{T: req.T, X: req.X, Y: req.Y, Pollutant: req.Pollutant})
			qr, ok := resp.(wire.QueryResponse)
			if !ok {
				t.Fatalf("node %d errored at (%v,%v): %#v", n, req.X, req.Y, resp)
			}
			if qr.Value != want[i] {
				t.Fatalf("node %d answers %v at (%v,%v), owner answered %v", n, qr.Value, req.X, req.Y, want[i])
			}
		}
	}
}

// TestReplicaSubscriptionRehome: killing the owner of a routed
// subscription leg re-homes that leg at the owner's replica instead of
// failing the feed. The heal is silent — the mirror's resync is
// byte-equal to the last pushed values, so the delta filter suppresses
// it — and the re-homed leg proves itself live by delivering deltas
// again once the revived owner streams new commits to its mirror.
func TestReplicaSubscriptionRehome(t *testing.T) {
	f := newReplicatedFixture(t)
	data := makeData()
	f.load(t, data)
	waitConverged(t, f, sampleRequests(data))
	ctx := context.Background()

	pts, owners := routeAcrossShards(t, f, data)
	h, err := f.nodes[0].Subscribe(ctx, tuple.CO2, pts)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	// Drain the prime events; record every point's primed value.
	values := make(map[int]float64)
	for len(values) < len(pts) {
		ev := recvSub(t, h)
		if ev.Err != "" {
			t.Fatalf("subscription error during priming: %s", ev.Err)
		}
		for _, p := range ev.Points {
			values[p.Index] = p.Value
		}
	}

	// Kill a remote owner: the leg must swap to a replica mirror with
	// no terminal unreachable event on the feed.
	victim := -1
	for _, o := range owners {
		if o != 0 {
			victim = o
			break
		}
	}
	if victim < 0 {
		t.Fatal("route has no remote leg")
	}
	f.kill(victim)
	deadline := time.Now().Add(15 * time.Second)
	for f.nodes[0].Stats().Rehomed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leg never re-homed after killing its owner")
		}
		select {
		case ev, ok := <-h.Events():
			if ok && strings.Contains(ev.Err, "unreachable") {
				t.Fatalf("leg died instead of re-homing: %s", ev.Err)
			}
		case <-time.After(20 * time.Millisecond):
		}
	}

	// The re-homed leg is live: when the owner returns and commits new
	// data, the replication stream updates the mirror, whose
	// invalidation re-pushes the leg's points through the merged feed.
	f.dead[victim].Store(false)
	var bumped tuple.Batch
	for _, r := range data {
		if f.ring.Owner(tuple.CO2, r.Pos()) == victim {
			bumped = append(bumped, tuple.Raw{T: r.T, X: r.X, Y: r.Y, S: r.S + 170})
		}
	}
	if len(bumped) == 0 {
		t.Fatal("victim owns no lattice tuples")
	}
	if err := f.nodes[0].Ingest(ctx, tuple.CO2, bumped); err != nil {
		t.Fatalf("post-revival ingest: %v", err)
	}

	updated := make(map[int]bool)
	wantUpdated := 0
	for _, o := range owners {
		if o == victim {
			wantUpdated++
		}
	}
	evDeadline := time.After(20 * time.Second)
	for len(updated) < wantUpdated {
		var ev subs.Event
		select {
		case e, ok := <-h.Events():
			if !ok {
				t.Fatal("feed closed while waiting for re-homed deltas")
			}
			ev = e
		case <-evDeadline:
			t.Fatalf("re-homed leg delivered %d of %d updated points", len(updated), wantUpdated)
		}
		if ev.Err != "" {
			if strings.Contains(ev.Err, "unreachable") {
				t.Fatalf("feed failed after re-home: %s", ev.Err)
			}
			continue
		}
		for _, p := range ev.Points {
			if owners[p.Index] != victim {
				t.Fatalf("delta carried point %d (owner %d) after a victim-only ingest", p.Index, owners[p.Index])
			}
			if p.Err != "" {
				t.Fatalf("re-homed point %d failed: %s", p.Index, p.Err)
			}
			if p.Value == values[p.Index] {
				t.Fatalf("re-homed point %d pushed the pre-bump value %v", p.Index, p.Value)
			}
			updated[p.Index] = true
		}
	}
}
