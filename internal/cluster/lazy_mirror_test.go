package cluster_test

// Replica mirrors are lazy twice over. A mirror is its replication log
// until it is first read: streamed frames only extend the log, and the
// mirror engine is built on the first read by replaying it. That engine
// runs no background cover builders either, so a window's cover is built
// when the window is first read — or never, when promotion replays the
// mirror's log into the node's own engine. These tests never read a
// mirror while waiting for replication to drain, so the reads they then
// make are first touches.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/tuple"
	"repro/internal/wire"
)

const lazyWindows = 3

// overWindows repeats a one-window batch in each of the first
// lazyWindows windows.
func overWindows(one tuple.Batch) tuple.Batch {
	var out tuple.Batch
	for w := 0; w < lazyWindows; w++ {
		for _, r := range one {
			r.T += float64(w) * windowLen
			out = append(out, r)
		}
	}
	return out
}

// waitMoves blocks until lag reports nothing, checking again each time a
// mirror of ns moves, and fails with the last lag after 30 s.
func waitMoves(t *testing.T, ns []*cluster.Node, lag func() string) {
	t.Helper()
	timeout := reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(time.After(30 * time.Second))}
	for {
		cases := []reflect.SelectCase{timeout}
		for _, n := range ns {
			cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(cluster.NextMove(n))})
		}
		l := lag()
		if l == "" {
			return
		}
		if chosen, _, _ := reflect.Select(cases); chosen == 0 {
			t.Fatal(l)
		}
	}
}

// waitApplied blocks until every frame the nodes ns streamed has been
// applied to a mirror, reading replication counters only, and fails if
// any mirror was read meanwhile.
func waitApplied(t *testing.T, ns []*cluster.Node) {
	t.Helper()
	waitMoves(t, ns, func() string {
		var streamed, applied, reads int64
		for _, n := range ns {
			rs, _ := n.ReplicationStats()
			streamed += rs.Streamed
			applied += rs.Applied
			reads += rs.MirrorReads
		}
		if reads != 0 {
			t.Fatalf("%d mirror reads before the first touch", reads)
		}
		if streamed > 0 && applied == streamed {
			return ""
		}
		return fmt.Sprintf("replication never drained: %d frames streamed, %d applied", streamed, applied)
	})
}

// TestLazyMirrorFirstTouchEqualsPrimary: the first ReplicaRead of each
// window — point queries and the whole model cover — answers byte-equal
// to the quiesced primary, although the mirror built nothing until then.
func TestLazyMirrorFirstTouchEqualsPrimary(t *testing.T) {
	f := newReplicatedFixture(t)
	data := overWindows(makeData())
	f.load(t, data) // returns with the primaries quiesced
	waitApplied(t, f.nodes)

	ctx := context.Background()
	modelsChecked := 0
	for w := 0; w < lazyWindows; w++ {
		tm := queryT + float64(w)*windowLen
		checkedModel := make(map[[2]int]bool)
		for _, req := range sampleRequests(data[:len(data)/lazyWindows]) {
			req.T = tm
			pt := geo.Point{X: req.X, Y: req.Y}
			owner := f.ring.Owner(tuple.CO2, pt)
			want, err := f.engines[owner].Query(ctx, req)
			if err != nil {
				t.Fatalf("owner %d query: %v", owner, err)
			}
			k := cluster.ShardKey{Pollutant: tuple.CO2, Cell: f.ring.CellOf(pt)}
			for _, rep := range f.ring.ReplicasFor(k)[1:] {
				resp, ok := f.replicaRead(t, rep, owner, wire.QueryRequest{T: req.T, X: req.X, Y: req.Y, Pollutant: tuple.CO2})
				if qr, isQ := resp.(wire.QueryResponse); !ok || !isQ || qr.Value != want {
					t.Fatalf("window %d: replica %d of %d answers %#v on first touch, primary answers %v", w, rep, owner, resp, want)
				}
				if checkedModel[[2]int{rep, owner}] {
					continue
				}
				checkedModel[[2]int{rep, owner}] = true
				cv, err := f.engines[owner].CoverAt(ctx, tuple.CO2, tm)
				if err != nil {
					t.Fatal(err)
				}
				wantModel, err := wire.ModelResponseFromCover(cv)
				if err != nil {
					t.Fatal(err)
				}
				got, ok := f.replicaRead(t, rep, owner, wire.ModelRequest{T: tm, Pollutant: tuple.CO2})
				if !ok || !reflect.DeepEqual(got, wire.Message(wantModel)) {
					t.Fatalf("window %d: replica %d's model cover of %d differs from the primary's", w, rep, owner)
				}
				modelsChecked++
			}
		}
	}
	if modelsChecked < lazyWindows {
		t.Fatalf("only %d mirror covers compared", modelsChecked)
	}
}

// TestPromotionOfNeverReadMirror: a primary dies before anyone read its
// mirror; promotion replays the mirror's log into the promoter's own
// engine, and every window the dead node held is served — routed reads
// answer, byte-equal to the new owner, and no acked tuple is missing.
func TestPromotionOfNeverReadMirror(t *testing.T) {
	f := newMemFixture(t, 3, 2, 0)
	data := overWindows(memLattice(0))
	f.loadVia(t, 0, data)
	var live []*cluster.Node
	for _, i := range f.liveIDs() {
		live = append(live, f.node(i))
	}
	waitApplied(t, live)

	const dead = 1
	f.kill(dead)
	if err := f.node(2).Promote(context.Background(), dead); err != nil {
		t.Fatalf("promote: %v", err)
	}
	ring := f.currentRing()
	for _, i := range f.liveIDs() {
		if i != dead {
			f.engine(i).Scheduler().Wait()
		}
	}
	ctx := context.Background()
	for w := 0; w < lazyWindows; w++ {
		tm := queryT + float64(w)*windowLen
		for _, p := range positionsOf(data[:len(data)/lazyWindows]) {
			owner := ring.Owner(tuple.CO2, p)
			if owner == dead || !ring.IsLive(owner) {
				t.Fatalf("position %v still owned by node %d after its promotion away", p, owner)
			}
			held, err := f.naiveAt(owner, tm, p)
			if err != nil || held != fieldVal(p.X, p.Y) {
				t.Fatalf("window %d: acked tuple at %v missing on owner %d after promotion: %v (err %v)", w, p, owner, held, err)
			}
			want, err := f.engine(owner).Query(ctx, query.Request{T: tm, X: p.X, Y: p.Y, Pollutant: tuple.CO2})
			if err != nil {
				t.Fatalf("window %d: owner %d cover query at %v: %v", w, owner, p, err)
			}
			resp := f.node(0).HandleMessage(wire.QueryRequest{T: tm, X: p.X, Y: p.Y, Pollutant: tuple.CO2})
			if qr, ok := resp.(wire.QueryResponse); !ok || qr.Value != want {
				t.Fatalf("window %d: routed query at %v answers %#v, owner %d answers %v", w, p, resp, owner, want)
			}
		}
	}
	f.checkSinglePrimary(t)
}

// TestPromotionReplaysMirrorInChunks is TestPromotionOfNeverReadMirror
// with 7-tuple chunks, so the promoter's own mirror log replays in
// several chunks, each advancing the shared transfer progress.
func TestPromotionReplaysMirrorInChunks(t *testing.T) {
	defer cluster.SetCatchupChunk(7)()
	TestPromotionOfNeverReadMirror(t)
}

// mirrorPairs lists the (replica, origin) pairs of a loaded fixture: every
// node holds a mirror of each origin whose replica peers it is among.
func mirrorPairs(f *fixture) [][2]int {
	var pairs [][2]int
	for origin := range f.nodes {
		for _, rep := range f.ring.ReplicaPeers(origin, tuple.CO2) {
			pairs = append(pairs, [2]int{rep, origin})
		}
	}
	return pairs
}

// brokenMirror stands in for a mirror engine that could not be built: it
// answers everything, its log's replay included, with a replica miss —
// what the facade's factory returns when an engine fails to open.
type brokenMirror struct{}

func (brokenMirror) HandleMessage(wire.Message) wire.Message {
	return cluster.WireError(fmt.Errorf("%w: mirror engine unavailable", cluster.ErrReplicaMiss))
}

// TestMirrorEngineBuiltOnFirstRead: while a primary streams to its
// replicas, no mirror engine exists — the factory is not called while the
// fixture loads and replication drains — and each (origin, pollutant)
// mirror builds exactly one, on its first ReplicaRead.
func TestMirrorEngineBuiltOnFirstRead(t *testing.T) {
	counts := make([]*countingMirrors, 3)
	f := newReplicatedFixtureWith(t, 2, func(i int) func() cluster.Handler {
		counts[i] = &countingMirrors{}
		return counts[i].factory
	})
	f.load(t, overWindows(makeData()))
	waitApplied(t, f.nodes)
	for i, c := range counts {
		if b := c.builds.Load(); b != 0 {
			t.Fatalf("node %d built %d mirror engines before any read", i, b)
		}
	}
	want := make([]int64, 3)
	for _, p := range mirrorPairs(f) {
		rep, origin := p[0], p[1]
		want[rep]++
		for read := 0; read < 3; read++ {
			tm := queryT + float64(read)*windowLen
			if resp, ok := f.replicaRead(t, rep, origin, wire.ModelRequest{T: tm, Pollutant: tuple.CO2}); !ok {
				t.Fatalf("replica %d's mirror of %d misses read %d: %#v", rep, origin, read, resp)
			}
			if b := counts[rep].builds.Load(); b != want[rep] {
				t.Fatalf("node %d built %d mirror engines after read %d of origin %d, want %d", rep, b, read, origin, want[rep])
			}
		}
	}
	if len(mirrorPairs(f)) == 0 {
		t.Fatal("no node mirrors another")
	}
}

// TestFailedMirrorBuildKeepsNothing: a mirror whose engine cannot be
// built answers ErrReplicaMiss and keeps no engine, so the next read
// builds again and answers byte-equal to the primary.
func TestFailedMirrorBuildKeepsNothing(t *testing.T) {
	var calls atomic.Int64
	f := newReplicatedFixtureWith(t, 2, func(i int) func() cluster.Handler {
		if i != 1 {
			return newMirrorEngine
		}
		return func() cluster.Handler {
			if calls.Add(1) == 1 {
				return brokenMirror{}
			}
			return newMirrorEngine()
		}
	})
	data := makeData()
	f.load(t, data)
	waitApplied(t, f.nodes)
	origin := -1
	for _, p := range mirrorPairs(f) {
		if p[0] == 1 {
			origin = p[1]
		}
	}
	if origin < 0 {
		t.Fatal("node 1 mirrors no origin")
	}
	var req query.Request
	for _, r := range sampleRequests(data) {
		if f.ring.Owner(tuple.CO2, geo.Point{X: r.X, Y: r.Y}) == origin {
			req = r
			break
		}
	}
	want, err := f.engines[origin].Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	wreq := wire.QueryRequest{T: req.T, X: req.X, Y: req.Y, Pollutant: tuple.CO2}
	resp, ok := f.replicaRead(t, 1, origin, wreq)
	if er, isErr := resp.(wire.ErrorResponse); ok || !isErr || !errors.Is(cluster.ErrorFromWire(er.Code, er.Msg), cluster.ErrReplicaMiss) {
		t.Fatalf("read through a failed build answers %#v, want ErrReplicaMiss", resp)
	}
	resp, ok = f.replicaRead(t, 1, origin, wreq)
	if qr, isQ := resp.(wire.QueryResponse); !ok || !isQ || qr.Value != want {
		t.Fatalf("read after a failed build answers %#v, primary answers %v", resp, want)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("factory called %d times for one failed and one good build", n)
	}
}

// TestFailedMirrorBuildHealsOrIsPartial: with the origin dead, a replica
// whose mirror engine cannot be built is a miss the router routes around
// — at the next replica when there is one (R = 3), as a marked partial
// result when there is none (R = 2).
func TestFailedMirrorBuildHealsOrIsPartial(t *testing.T) {
	ctx := context.Background()
	t.Run("next replica", func(t *testing.T) {
		const broken = 1
		f := newReplicatedFixtureWith(t, 3, func(i int) func() cluster.Handler {
			if i == broken {
				return func() cluster.Handler { return brokenMirror{} }
			}
			return newMirrorEngine
		})
		data := makeData()
		f.load(t, data)
		waitApplied(t, f.nodes)
		var req query.Request
		victim := -1
		for _, r := range sampleRequests(data) {
			reps := f.ring.ReplicasFor(cluster.ShardKey{Pollutant: tuple.CO2, Cell: f.ring.CellOf(geo.Point{X: r.X, Y: r.Y})})
			if len(reps) == 3 && reps[1] == broken {
				req, victim = r, reps[0]
				break
			}
		}
		if victim < 0 {
			t.Fatal("no sample's first replica is the broken node")
		}
		want, err := f.engines[victim].Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		f.kill(victim)
		for _, via := range []int{broken, 3 - broken - victim} {
			v, err := f.nodes[via].Query(ctx, req)
			if err != nil || v != want {
				t.Fatalf("node %d answers %v (%v) for dead node %d's shard, owner answered %v", via, v, err, victim, want)
			}
		}
	})
	t.Run("no replica left", func(t *testing.T) {
		var calls atomic.Int64
		f := newReplicatedFixtureWith(t, 2, func(int) func() cluster.Handler {
			return func() cluster.Handler { calls.Add(1); return brokenMirror{} }
		})
		f.load(t, makeData())
		waitApplied(t, f.nodes)
		const victim = 0
		f.kill(victim)
		var prev int64
		for read := 0; read < 2; read++ {
			if _, err := f.nodes[1].Model(ctx, tuple.CO2, queryT); !errors.Is(err, cluster.ErrPartialResult) {
				t.Fatalf("model with every mirror of node %d broken: %v, want ErrPartialResult", victim, err)
			}
			n := calls.Load()
			if n == prev {
				t.Fatalf("read %d built no mirror engine: a failed build was kept", read)
			}
			prev = n
		}
	})
}

// TestFrameRacingFirstReadAppliesOnce: frames keep arriving while the
// first read builds the engine; each lands exactly once — in the log the
// build replays, or in the built engine — and the mirror ends byte-equal
// to an engine fed every frame. Run under -race.
func TestFrameRacingFirstReadAppliesOnce(t *testing.T) {
	var c countingMirrors
	node := newMirrorNode(t, 0, c.factory, nil)
	data := makeData()
	const per = 8
	frames := len(data) / per
	send := func(i int) {
		resp := node.HandleMessage(wire.ReplicaIngest{Origin: mirrorOrigin, Pollutant: tuple.CO2,
			Seq: uint64(i * per), Tuples: slices.Clone(data[i*per : (i+1)*per]), Incarnation: mirrorInc})
		if _, ok := resp.(wire.IngestResponse); !ok {
			t.Errorf("frame %d refused: %#v", i, resp)
		}
	}
	send(0)
	var wg sync.WaitGroup
	halfway := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i < frames; i++ {
			if i == frames/4 {
				close(halfway)
			}
			send(i)
		}
	}()
	<-halfway
	model := wire.ReplicaRead{Origin: mirrorOrigin, Inner: wire.ModelRequest{T: queryT, Pollutant: tuple.CO2}}
	node.HandleMessage(model)
	wg.Wait()
	if b := c.builds.Load(); b != 1 {
		t.Fatalf("%d mirror engines built, want 1", b)
	}
	if got, want := c.tuples.Load(), int64(frames*per); got != want {
		t.Fatalf("mirror engine ingested %d tuples of %d streamed", got, want)
	}
	ref := propEngine(0)
	defer ref.Close()
	ref.HandleMessage(wire.IngestRequest{Pollutant: tuple.CO2, Tuples: data[:frames*per]})
	if got, want := node.HandleMessage(model), ref.HandleMessage(model.Inner); !reflect.DeepEqual(got, want) {
		t.Fatalf("mirror model after the race differs from an engine fed every frame")
	}
}
