package cluster_test

// The cost of replication in memory: on a 3-node R = 2 ring over
// loopback TCP, each primary streams to its R-1 mirrors only, so the
// mirror logs of the whole cluster hold R-1 copies of every committed
// tuple — not one copy per node that succeeds some shard of the primary
// — and still do after a fourth node joins and moves the mirror sets. A
// primary's own replication log points into its store and holds no
// copy, save of the late tuples its store may evict first.

import (
	"context"
	"fmt"
	"net"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kmeans"
	"repro/internal/proto"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tuple"
)

// loopbackDial dials a cluster peer over TCP.
func loopbackDial(addr string) (cluster.Transport, error) {
	return proto.Dial(addr, proto.ServerConfig{})
}

// listen opens one loopback listener per node.
func listen(t *testing.T, nodes int) ([]net.Listener, []string) {
	t.Helper()
	var lns []net.Listener
	var addrs []string
	for range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return lns, addrs
}

// serveLoopback builds node self of ring and serves it on ln until the
// test ends.
func serveLoopback(t *testing.T, ring *cluster.Ring, self int, ln net.Listener) *cluster.Node {
	t.Helper()
	return serveLoopbackWith(t, ring, self, ln, newEngine(t), cluster.ReplicationConfig{NewMirror: newMirrorEngine})
}

// serveLoopbackWith is serveLoopback with the node's engine and
// replication config given.
func serveLoopbackWith(t *testing.T, ring *cluster.Ring, self int, ln net.Listener, local cluster.Handler, repl cluster.ReplicationConfig) *cluster.Node {
	t.Helper()
	node, err := cluster.NewNode(cluster.NodeConfig{
		Ring: ring, Self: self, Local: local,
		Transports:  cluster.LazyTransports(ring, self, loopbackDial),
		Dial:        loopbackDial,
		Replication: repl,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := proto.Serve(ln, node, proto.ServerConfig{})
	t.Cleanup(func() { srv.Close(); node.Close() })
	return node
}

// newLoopbackRing serves a nodes-node ring of R copies over loopback TCP.
func newLoopbackRing(t *testing.T, nodes, R int) []*cluster.Node {
	t.Helper()
	ring, lns := loopbackRing(t, nodes, R)
	var ns []*cluster.Node
	for i, ln := range lns {
		ns = append(ns, serveLoopback(t, ring, i, ln))
	}
	return ns
}

// loopbackRing is a nodes-node ring of R copies, and a loopback listener
// for each node.
func loopbackRing(t *testing.T, nodes, R int) (*cluster.Ring, []net.Listener) {
	t.Helper()
	lns, addrs := listen(t, nodes)
	cells, err := cluster.Cells(clusterRegion, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := cluster.NewRing(cluster.Desc{Nodes: addrs, Cells: cells, Replicas: R})
	if err != nil {
		t.Fatal(err)
	}
	return ring, lns
}

// ingestAndDrain writes data through ns[0] and waits until every frame
// streamed has been applied.
func ingestAndDrain(t *testing.T, ns []*cluster.Node, data tuple.Batch) {
	t.Helper()
	if err := ns[0].Ingest(context.Background(), tuple.CO2, data); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, ns)
}

// mirrorCopies sums the tuples held in the mirror logs of ns.
func mirrorCopies(ns []*cluster.Node) int {
	held := 0
	for _, n := range ns {
		for origin := range n.Ring().Nodes() {
			if pos, ok := cluster.MirrorAt(n, origin, tuple.CO2, nil); ok {
				held += int(pos.Next - pos.Start)
			}
		}
	}
	return held
}

func TestMirrorLogsHoldRMinusOneCopies(t *testing.T) {
	const nodes, R = 3, 2
	ns := newLoopbackRing(t, nodes, R)
	data := overWindows(makeData())
	ingestAndDrain(t, ns, data)
	if held, want := mirrorCopies(ns), (R-1)*len(data); held != want {
		t.Fatalf("mirror logs hold %d tuples (%.2f copies of %d committed), want %d", held, float64(held)/float64(len(data)), len(data), want)
	}
}

// TestMirrorLogsHoldRMinusOneCopiesAfterJoin: a join moves mirror sets
// (on 3 nodes node 0 mirrors node 2; on 4, node 3 does), and the node
// that left an origin's set drops its mirror of it, so the cluster still
// holds R-1 copies of every tuple its primaries committed — a handed-off
// tuple counts at its old owner and at the joiner, whose logs both hold
// it.
func TestMirrorLogsHoldRMinusOneCopiesAfterJoin(t *testing.T) {
	const nodes, R = 3, 2
	ns := newLoopbackRing(t, nodes, R)
	data := overWindows(makeData())
	ingestAndDrain(t, ns, data)
	if _, held := cluster.MirrorAt(ns[0], 2, tuple.CO2, nil); !held {
		t.Fatal("node 0 does not mirror node 2 on the 3-node ring")
	}

	lns, addrs := listen(t, 1)
	seed, err := proto.Dial(ns[0].Ring().Addr(0), proto.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	pending, err := cluster.JoinCluster(seed, addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	joiner := serveLoopback(t, pending, nodes, lns[0])
	if err := joiner.CompleteJoin(context.Background()); err != nil {
		t.Fatalf("join: %v", err)
	}
	ns = append(ns, joiner)
	// A write to every node's shards: each new mirror catches up on its
	// origin's first frame under the new ring. Frames the mirrors refused
	// while the ring moved never count as applied, so the wait is for the
	// copies themselves.
	if err := ns[0].Ingest(context.Background(), tuple.CO2, data); err != nil {
		t.Fatal(err)
	}

	waitMoves(t, ns, func() string {
		committed := 0
		for _, n := range ns {
			committed += cluster.LogTuples(n)
		}
		held := mirrorCopies(ns)
		if _, stale := cluster.MirrorAt(ns[0], 2, tuple.CO2, nil); held != (R-1)*committed || stale {
			return fmt.Sprintf("after the join the mirror logs hold %d tuples for %d committed (want %d); node 0 still mirrors node 2: %v",
				held, committed, (R-1)*committed, stale)
		}
		return ""
	})
}

// newStoredRing is newLoopbackRing with each node's replication logs
// over the store its engine commits into, which retains retain windows
// (0: all).
func newStoredRing(t *testing.T, nodes, R, retain int) []*cluster.Node {
	t.Helper()
	ring, lns := loopbackRing(t, nodes, R)
	var ns []*cluster.Node
	for i, ln := range lns {
		st, err := store.Open(store.Config{WindowLength: windowLen, Retain: retain})
		if err != nil {
			t.Fatal(err)
		}
		e, err := server.NewMultiEngineOpts(map[tuple.Pollutant]*store.Store{tuple.CO2: st},
			core.Config{Cluster: kmeans.Config{Seed: 7}}, server.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		ns = append(ns, serveLoopbackWith(t, ring, i, ln, e, cluster.ReplicationConfig{
			NewMirror: newMirrorEngine, WindowLength: windowLen, Retain: retain,
			Stores: map[tuple.Pollutant]cluster.LocalStore{tuple.CO2: st},
		}))
	}
	return ns
}

// valueCopies sums the tuples the primary logs of ns hold by value.
func valueCopies(ns []*cluster.Node) int {
	held := 0
	for _, n := range ns {
		held += cluster.LogValueTuples(n)
	}
	return held
}

// TestPrimaryLogsHoldNoCopies: on a loopback R = 2 ring whose nodes'
// logs index their stores, an in-order stream leaves no tuple by value in
// the primary logs, which still hold (by reference) every tuple their
// primaries committed. Under bounded retention a late commit — into a
// retained window older than the newest — is held by value, exactly its
// own tuples, until its window is evicted and, as a mirror's log sheds
// its head, so is every window committed before it.
func TestPrimaryLogsHoldNoCopies(t *testing.T) {
	const nodes, R = 3, 2
	t.Run("in-order", func(t *testing.T) {
		ns := newStoredRing(t, nodes, R, 0)
		data := overWindows(makeData())
		ingestAndDrain(t, ns, data)
		committed := 0
		for _, n := range ns {
			committed += cluster.LogTuples(n)
		}
		if committed != len(data) {
			t.Fatalf("primary logs index %d tuples, %d committed", committed, len(data))
		}
		if held := valueCopies(ns); held != 0 {
			t.Fatalf("primary logs hold %d tuples by value after an in-order stream, want 0", held)
		}
	})
	t.Run("late", func(t *testing.T) {
		const retain = 3
		ns := newStoredRing(t, nodes, R, retain)
		one := makeData()
		at := func(w int) tuple.Batch {
			out := slices.Clone(one)
			for i := range out {
				out[i].T += float64(w) * windowLen
			}
			return out
		}
		for w := range 4 {
			ingestAndDrain(t, ns, at(w))
		}
		if held := valueCopies(ns); held != 0 {
			t.Fatalf("primary logs hold %d tuples by value after an in-order stream, want 0", held)
		}
		late := at(2)[:len(one)/3]
		ingestAndDrain(t, ns, late)
		if held := valueCopies(ns); held != len(late) {
			t.Fatalf("primary logs hold %d tuples by value after a late commit of %d", held, len(late))
		}
		// Window 5 evicts window 2, the late commit's; window 6 evicts
		// window 3, committed before it.
		for w := 4; w <= 5; w++ {
			ingestAndDrain(t, ns, at(w))
			if held := valueCopies(ns); held != len(late) {
				t.Fatalf("after window %d the primary logs hold %d tuples by value, want the late %d", w, held, len(late))
			}
		}
		ingestAndDrain(t, ns, at(6))
		if held := valueCopies(ns); held != 0 {
			t.Fatalf("primary logs hold %d tuples by value once the windows up to the late commit are evicted, want 0", held)
		}
	})
}
