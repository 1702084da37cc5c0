package cluster_test

// The cost of replication in memory: on a 3-node R = 2 ring over
// loopback TCP, each primary streams to its R-1 mirrors only, so the
// mirror logs of the whole cluster hold R-1 copies of every committed
// tuple — not one copy per node that succeeds some shard of the primary.

import (
	"context"
	"net"
	"testing"

	"repro/internal/cluster"
	"repro/internal/proto"
	"repro/internal/tuple"
)

func TestMirrorLogsHoldRMinusOneCopies(t *testing.T) {
	const nodes, R = 3, 2
	var lns [nodes]net.Listener
	var addrs []string
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs = append(addrs, ln.Addr().String())
	}
	cells, err := cluster.Cells(clusterRegion, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := cluster.NewRing(cluster.Desc{Nodes: addrs, Cells: cells, Replicas: R})
	if err != nil {
		t.Fatal(err)
	}
	dial := func(addr string) (cluster.Transport, error) { return proto.Dial(addr, proto.ServerConfig{}) }
	var ns []*cluster.Node
	for i := range lns {
		node, err := cluster.NewNode(cluster.NodeConfig{
			Ring: ring, Self: i, Local: newEngine(t),
			Transports:  cluster.LazyTransports(ring, i, dial),
			Dial:        dial,
			Replication: cluster.ReplicationConfig{NewMirror: newMirrorEngine},
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := proto.Serve(lns[i], node, proto.ServerConfig{})
		t.Cleanup(func() { srv.Close(); node.Close() })
		ns = append(ns, node)
	}
	data := overWindows(makeData())
	if err := ns[0].Ingest(context.Background(), tuple.CO2, data); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, func() []cluster.ReplicationStats {
		var out []cluster.ReplicationStats
		for _, n := range ns {
			rs, _ := n.ReplicationStats()
			out = append(out, rs)
		}
		return out
	})
	held := 0
	for _, n := range ns {
		held += cluster.MirrorTuples(n)
	}
	if want := (R - 1) * len(data); held != want {
		t.Fatalf("mirror logs hold %d tuples (%.2f copies of %d committed), want %d", held, float64(held)/float64(len(data)), len(data), want)
	}
}
