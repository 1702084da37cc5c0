package cluster_test

// Replica mirrors are lazy: a mirror engine applies the streamed frames
// but runs no background cover builders, so a window's cover is built
// when the mirror is first read — or never, when promotion replays the
// mirror's log into the node's own engine. These tests never read a
// mirror while waiting for replication to drain, so the reads they then
// make are first touches.

import (
	"context"
	"reflect"
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

// waitApplied blocks until every streamed replica frame has been applied
// to a mirror, reading replication counters only, and fails if any
// mirror was read meanwhile.
func waitApplied(t *testing.T, stats func() []cluster.ReplicationStats) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var streamed, applied, reads int64
		for _, rs := range stats() {
			streamed += rs.Streamed
			applied += rs.Applied
			reads += rs.MirrorReads
		}
		if reads != 0 {
			t.Fatalf("%d mirror reads before the first touch", reads)
		}
		if streamed > 0 && applied == streamed {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replication never drained: %d frames streamed, %d applied", streamed, applied)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLazyMirrorFirstTouchEqualsPrimary: the first ReplicaRead of each
// window — point queries and the whole model cover — answers byte-equal
// to the quiesced primary, although the mirror built nothing until then.
func TestLazyMirrorFirstTouchEqualsPrimary(t *testing.T) {
	f := newReplicatedFixture(t)
	data := overWindows(makeData())
	f.load(t, data) // returns with the primaries quiesced
	waitApplied(t, func() []cluster.ReplicationStats {
		var out []cluster.ReplicationStats
		for _, n := range f.nodes {
			rs, _ := n.ReplicationStats()
			out = append(out, rs)
		}
		return out
	})

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
	f := newMemFixture(t, 3, 2)
	data := overWindows(memLattice(0))
	f.loadVia(t, 0, data)
	waitApplied(t, func() []cluster.ReplicationStats {
		var out []cluster.ReplicationStats
		for _, i := range f.liveIDs() {
			rs, _ := f.node(i).ReplicationStats()
			out = append(out, rs)
		}
		return out
	})

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
