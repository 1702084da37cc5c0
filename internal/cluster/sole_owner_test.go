package cluster_test

// A batch one owner answers alone crosses the router whole, in the box it
// arrived in, and the owner's answer is the node's. These tests hold that
// pass-through to the split path: for the same items, every answer — a
// value, a fenced share re-routed, a dead owner's share healed at its
// replica, an owner's error or short answer — must be bit for bit what the
// split path answers. A batch with one refused item always takes the split
// path, so its other items are the reference.

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/query"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// soleOwnerBatch is the points of data owned by node owner under ring,
// asked at queryT.
func soleOwnerBatch(t *testing.T, ring *cluster.Ring, owner int, data tuple.Batch) wire.BatchQueryRequest {
	t.Helper()
	var m wire.BatchQueryRequest
	for _, r := range data {
		if ring.Owner(tuple.CO2, r.Pos()) == owner {
			m.Items = append(m.Items, wire.QueryRequest{T: queryT, X: r.X, Y: r.Y, Pollutant: tuple.CO2})
		}
	}
	if len(m.Items) < 2 {
		t.Fatalf("node %d owns %d of the data's points, want several", owner, len(m.Items))
	}
	return m
}

// withRefused is m and one more item, whose pollutant no ring places: it
// takes m down the split path.
func withRefused(m wire.BatchQueryRequest) wire.BatchQueryRequest {
	return wire.BatchQueryRequest{Items: append(slices.Clone(m.Items), wire.QueryRequest{T: queryT, Pollutant: tuple.Pollutant(200)})}
}

// sameItems reports how got's first len(want's) items differ from want's,
// bit for bit; "" when they do not.
func sameItems(got, want wire.Message) string {
	g, ok := got.(wire.BatchQueryResponse)
	w, wok := want.(wire.BatchQueryResponse)
	if !ok || !wok || len(g.Items) < len(w.Items) {
		return fmt.Sprintf("got %#v, want %#v", got, want)
	}
	for i, it := range w.Items {
		if math.Float64bits(g.Items[i].Value) != math.Float64bits(it.Value) || g.Items[i].Err != it.Err {
			return fmt.Sprintf("item %d = %+v, want %+v", i, g.Items[i], it)
		}
	}
	return ""
}

// passThrough routes m through via, and the split path's m (withRefused)
// through splitVia, and requires the answers to m's items to be the
// same bit for bit. It returns the pass-through's answer.
func passThrough(t *testing.T, via, splitVia *cluster.Node, m wire.BatchQueryRequest) wire.BatchQueryResponse {
	t.Helper()
	got := via.HandleMessage(m)
	split := splitVia.HandleMessage(withRefused(m))
	if diff := sameItems(split, got); diff != "" {
		t.Fatalf("the split path answers otherwise: %s", diff)
	}
	if br := got.(wire.BatchQueryResponse); len(br.Items) != len(m.Items) {
		t.Fatalf("%d answers to %d items", len(br.Items), len(m.Items))
	}
	if code := split.(wire.BatchQueryResponse).Items[len(m.Items)].Code(); code != wire.CodeUnknownPollutant {
		t.Fatalf("the refused item answered code %d", code)
	}
	return got.(wire.BatchQueryResponse)
}

// requireValues fails t unless every item of br carries a value.
func requireValues(t *testing.T, br wire.BatchQueryResponse) {
	t.Helper()
	for i, it := range br.Items {
		if it.Err != "" {
			t.Fatalf("item %d failed: %s", i, it.Err)
		}
	}
}

// TestSoleOwnerBatchAnswersAsTheSplitPath: a one-owner batch answers bit
// for bit as the split path answers the same items — with the owner live,
// dead, on a newer ring, or answering an error or a short answer — and
// an owner that did not answer the batch whole is asked no second time.
func TestSoleOwnerBatchAnswersAsTheSplitPath(t *testing.T) {
	t.Run("live-and-dead", soleOwnerLiveAndDead)
	t.Run("stale-ring", soleOwnerStaleRing)
	t.Run("failing-owner", soleOwnerFailing)
}

// soleOwnerLiveAndDead: with the owner local and remote, and when the
// owner is dead, where the batch is healed at the replica after one
// failed exchange — the answer in hand settles the split path's leg.
func soleOwnerLiveAndDead(t *testing.T) {
	f := newReplicatedFixture(t)
	data := makeData()
	f.load(t, data)
	waitConverged(t, f, sampleRequests(data))
	via := f.nodes[0]
	live := make(map[int]wire.BatchQueryResponse)
	for owner, name := range []string{"local", "remote"} { // node 0 routes
		t.Run(name, func(t *testing.T) {
			m := soleOwnerBatch(t, f.ring, owner, data)
			got := passThrough(t, via, via, m)
			requireValues(t, got)
			for i, it := range got.Items {
				q := m.Items[i]
				want, err := f.engines[owner].Query(context.Background(), query.Request{T: q.T, X: q.X, Y: q.Y, Pollutant: q.Pollutant})
				if err != nil || math.Float64bits(it.Value) != math.Float64bits(want) {
					t.Fatalf("item %d = %v, the owner's engine answers %v (%v)", i, it.Value, want, err)
				}
			}
			live[owner] = got
		})
	}
	t.Run("dead-owner", func(t *testing.T) {
		const victim = 1
		m := soleOwnerBatch(t, f.ring, victim, data)
		f.kill(victim)
		before := via.Stats()
		got := via.HandleMessage(m)
		after := via.Stats()
		if n := after.Errors - before.Errors; n != 1 {
			t.Errorf("the dead owner was asked %d times, want once", n)
		}
		if after.FailedOver == before.FailedOver {
			t.Error("no read failed over")
		}
		if diff := sameItems(got, live[victim]); diff != "" {
			t.Errorf("the replica answers otherwise than the owner did: %s", diff)
		}
		passThrough(t, via, via, m)
	})
}

// soleOwnerStaleRing: a one-owner batch routed under a ring a join has
// superseded is fenced by the old owner once, and the fence in hand
// re-routes it under the refreshed ring, as the split path re-routes a
// fenced share; at a boot ring's epoch 0 as at epoch 1.
func soleOwnerStaleRing(t *testing.T) {
	for _, epoch := range memBaseEpochs {
		t.Run(fmt.Sprintf("epoch%d", epoch), func(t *testing.T) {
			f := newMemFixture(t, 3, 2, epoch)
			data := memLattice(0)
			f.loadVia(t, 0, data)
			old := f.currentRing()
			joiner := f.addJoiner(t, 0)
			if err := joiner.CompleteJoin(context.Background()); err != nil {
				t.Fatalf("join: %v", err)
			}
			next := f.currentRing()
			// The points of one shard the joiner took from its old owner.
			var m wire.BatchQueryRequest
			gained, from := cluster.ShardKey{}, -1
			for _, r := range data {
				k := cluster.ShardKey{Pollutant: tuple.CO2, Cell: next.CellOf(r.Pos())}
				if from < 0 && next.OwnerKey(k) == 3 && old.OwnerKey(k) != 3 {
					gained, from = k, old.OwnerKey(k)
				}
				if from >= 0 && k == gained {
					m.Items = append(m.Items, wire.QueryRequest{T: queryT, X: r.X, Y: r.Y, Pollutant: tuple.CO2})
				}
			}
			if from < 0 {
				t.Fatal("the joiner gained no shard holding a lattice point")
			}
			// A router that still holds the boot ring, and another for the
			// split path (the first adopts the new ring as it re-routes).
			stale := func() *cluster.Node {
				transports := make([]cluster.Transport, old.Nodes())
				for i := range transports {
					transports[i] = &memTransport{f: f, to: i}
				}
				n, err := cluster.NewNode(cluster.NodeConfig{Ring: old, Self: -1, Transports: transports, Dial: f.dialer(), Default: tuple.CO2})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { n.Close() })
				return n
			}
			via, splitVia := stale(), stale()
			before := f.node(from).Stats().EpochMismatches
			got := passThrough(t, via, splitVia, m)
			if n := f.node(from).Stats().EpochMismatches - before; n != 2 {
				t.Errorf("the old owner fenced %d frames of the two routes, want one each", n)
			}
			if e := via.Ring().Epoch(); e != next.Epoch() {
				t.Errorf("the router holds epoch %d after the fence, want %d", e, next.Epoch())
			}
			requireValues(t, got)
			if diff := sameItems(got, f.node(3).HandleMessage(m)); diff != "" {
				t.Errorf("the new owner answers otherwise: %s", diff)
			}
		})
	}
}

// failingOwner answers every batch it is asked, as a node's Local or as a
// peer's transport, with what answer makes of the batch's item count.
type failingOwner struct {
	answer func(items int) wire.Message
}

func (o failingOwner) HandleMessage(req wire.Message) wire.Message {
	if fw, ok := req.(wire.Forwarded); ok {
		req = fw.Inner
	}
	return o.answer(len(req.(wire.BatchQueryRequest).Items))
}

// Exchange answers as HandleMessage does, in memory nothing else holds.
func (o failingOwner) Exchange(req wire.Message) (wire.Message, error) {
	b, err := wire.Binary.Encode(o.HandleMessage(req))
	if err != nil {
		return nil, err
	}
	return wire.Binary.Decode(b)
}

// soleOwnerFailing: an owner that answers a one-owner batch with an
// error, or with fewer items than it was asked, fails every item of it
// with what the split path gives that owner's share — local and remote
// alike.
func soleOwnerFailing(t *testing.T) {
	cells, err := cluster.Cells(clusterRegion, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := cluster.NewRing(cluster.Desc{Nodes: []string{"node-0:8081", "node-1:8081"}, Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	for name, answer := range map[string]func(int) wire.Message{
		"error": func(int) wire.Message { return wire.ErrorResponse{Code: wire.CodeSaturated, Msg: "owner: saturated"} },
		"short": func(k int) wire.Message { return wire.BatchQueryResponse{Items: make([]wire.BatchQueryItem, k-1)} },
	} {
		owner := failingOwner{answer}
		via, err := cluster.NewNode(cluster.NodeConfig{Ring: ring, Self: 0, Local: owner, Transports: []cluster.Transport{nil, owner}, Default: tuple.CO2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { via.Close() })
		for o, where := range []string{"local", "remote"} {
			t.Run(name+"/"+where, func(t *testing.T) {
				m := soleOwnerBatch(t, ring, o, makeData())
				got := passThrough(t, via, via, m)
				for i, it := range got.Items {
					if it.Err == "" || it != got.Items[0] {
						t.Fatalf("item %d = %+v, want item 0's failure %+v", i, it, got.Items[0])
					}
				}
				if name == "error" && got.Items[0] != wire.FailedItem(wire.CodeSaturated, "owner: saturated") {
					t.Errorf("the owner's error reads %+v", got.Items[0])
				}
			})
		}
	}
}
