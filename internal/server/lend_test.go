package server

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/kmeans"
	"repro/internal/proto"
	"repro/internal/store"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// loopbackCluster is three engines behind cluster nodes of one R = 2 ring,
// each served by proto.Serve on loopback and dialing its peers over TCP,
// as a deployment's nodes are — the nodes lend their answers. It holds
// testData, ingested through node 0, with every cover built.
type loopbackCluster struct {
	nodes []*cluster.Node
	addrs []string
}

func newLoopbackCluster(tb testing.TB) *loopbackCluster {
	tb.Helper()
	const nodes = 3
	cells, err := cluster.Cells(geo.Rect{Max: geo.Point{X: 2000, Y: 2000}}, 8, 1)
	if err != nil {
		tb.Fatal(err)
	}
	lns := make([]net.Listener, nodes)
	addrs := make([]string, nodes)
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			tb.Fatal(err)
		}
		addrs[i] = lns[i].Addr().String()
	}
	ring, err := cluster.NewRing(cluster.Desc{Nodes: addrs, Cells: cells, Replicas: 2})
	if err != nil {
		tb.Fatal(err)
	}
	cfg := core.Config{Cluster: kmeans.Config{Seed: 7}}
	dial := func(addr string) (cluster.Transport, error) { return proto.Dial(addr, proto.ServerConfig{}) }
	c := &loopbackCluster{addrs: addrs}
	var engines []*Engine
	for i := 0; i < nodes; i++ {
		e, err := NewMultiEngineOpts(map[tuple.Pollutant]*store.Store{tuple.CO2: store.MustOpenMemory(600)}, cfg, Options{})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { e.Close() })
		node, err := cluster.NewNode(cluster.NodeConfig{
			Ring:       ring,
			Self:       i,
			Local:      e,
			Transports: cluster.LazyTransports(ring, i, dial),
			Dial:       dial,
			Default:    tuple.CO2,
			Replication: cluster.ReplicationConfig{NewMirror: func() cluster.Handler {
				m, err := NewMirrorEngine([]tuple.Pollutant{tuple.CO2}, 600, 0, cfg)
				if err != nil {
					tb.Error(err)
				}
				return m
			}},
		})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { node.Close() })
		srv := proto.Serve(lns[i], node, proto.ServerConfig{})
		tb.Cleanup(func() { srv.Close() })
		c.nodes = append(c.nodes, node)
		engines = append(engines, e)
	}
	ctx := context.Background()
	if err := c.nodes[0].Ingest(ctx, tuple.CO2, testData()); err != nil {
		tb.Fatal(err)
	}
	for _, e := range engines {
		e.Scheduler().Wait()
	}
	for _, tm := range []float64{300, 900} {
		if _, err := c.nodes[0].Model(ctx, tuple.CO2, tm); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// route100 is a 100-point route through both windows of testData, over
// the whole region, so it crosses every shard owner. With miss > 0 every
// miss-th point lies after the data and fails on its own.
func route100(miss int) wire.BatchQueryRequest {
	m := wire.BatchQueryRequest{Items: make([]wire.QueryRequest, 100)}
	for i := range m.Items {
		m.Items[i] = wire.QueryRequest{T: 100 + 10*float64(i), X: 20 * float64(i), Y: 2000 - 19*float64(i)}
		if miss > 0 && i%miss == miss-1 {
			m.Items[i].T = 1e7
		}
	}
	return m
}

func heatmap64(tm float64) wire.HeatmapRequest {
	return wire.HeatmapRequest{T: tm, Pollutant: tuple.CO2, Cols: 64, Rows: 64}
}

// sameAnswer reports how got differs from want, bit for bit; "" when it
// does not.
func sameAnswer(got, want wire.Message) string {
	switch w := want.(type) {
	case wire.BatchQueryResponse:
		g, ok := got.(wire.BatchQueryResponse)
		if !ok || len(g.Items) != len(w.Items) {
			return fmt.Sprintf("got %T, want %d items", got, len(w.Items))
		}
		for i := range w.Items {
			if math.Float64bits(g.Items[i].Value) != math.Float64bits(w.Items[i].Value) || g.Items[i].Err != w.Items[i].Err {
				return fmt.Sprintf("item %d = %+v, want %+v", i, g.Items[i], w.Items[i])
			}
		}
	case wire.HeatmapResponse:
		g, ok := got.(wire.HeatmapResponse)
		if !ok || g.Region != w.Region || g.Cols != w.Cols || g.Rows != w.Rows || len(g.Values) != len(w.Values) {
			return fmt.Sprintf("got %T with another shape", got)
		}
		for i := range w.Values {
			if math.Float64bits(g.Values[i]) != math.Float64bits(w.Values[i]) {
				return fmt.Sprintf("cell %d = %v, want %v", i, g.Values[i], w.Values[i])
			}
		}
	}
	return ""
}

// TestLentAnswersUnderConcurrency: clients on every node of a loopback
// R = 2 cluster send 100-point routes and 64×64 heatmaps at once, so lent
// items and rasters pass between requests on every node while others are
// still being encoded. Every answer equals the in-process answer taken
// after the maintenance barrier, bit for bit; run under -race, a buffer
// reused before its frame was written is also a reported race.
func TestLentAnswersUnderConcurrency(t *testing.T) {
	c := newLoopbackCluster(t)
	reqs := []wire.Message{route100(0), route100(7), heatmap64(300), heatmap64(900)}
	want := make([]wire.Message, len(reqs))
	for i, req := range reqs {
		// The reference is kept, so it is never released.
		want[i] = c.nodes[0].HandleMessage(req)
		if _, failed := want[i].(wire.ErrorResponse); failed {
			t.Fatalf("reference %T: %+v", req, want[i])
		}
	}
	const clientsPerNode, rounds = 3, 15
	var wg sync.WaitGroup
	for n, addr := range c.addrs {
		for k := 0; k < clientsPerNode; k++ {
			wg.Add(1)
			go func(n, k int, addr string) {
				defer wg.Done()
				cl, err := proto.Dial(addr, proto.ServerConfig{})
				if err != nil {
					t.Error(err)
					return
				}
				defer cl.Close()
				for r := 0; r < rounds; r++ {
					i := (n + k + r) % len(reqs)
					got, err := cl.Exchange(reqs[i])
					if err != nil {
						t.Error(err)
						return
					}
					if diff := sameAnswer(got, want[i]); diff != "" {
						t.Errorf("node %d, client %d, round %d, %T: %s", n, k, r, reqs[i], diff)
						return
					}
				}
			}(n, k, addr)
		}
	}
	wg.Wait()
}

// rawConn exchanges pre-encoded frames and reads each response frame into
// one reused buffer without decoding it, so a measurement around it sees
// the server's allocations and not a client's.
type rawConn struct {
	conn  net.Conn
	frame []byte
	buf   []byte
}

func dialRaw(tb testing.TB, addr string, req wire.Message) *rawConn {
	tb.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { conn.Close() })
	payload, err := wire.Binary.Encode(req)
	if err != nil {
		tb.Fatal(err)
	}
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	return &rawConn{conn: conn, frame: append(frame, payload...), buf: make([]byte, 64<<10)}
}

// exchange sends the request and returns the response's payload.
func (c *rawConn) exchange(tb testing.TB) []byte {
	if err := c.conn.SetDeadline(time.Now().Add(time.Minute)); err != nil {
		tb.Fatal(err)
	}
	if _, err := c.conn.Write(c.frame); err != nil {
		tb.Fatal(err)
	}
	if _, err := io.ReadFull(c.conn, c.buf[:4]); err != nil {
		tb.Fatal(err)
	}
	n := binary.LittleEndian.Uint32(c.buf)
	if int(n) > len(c.buf) {
		tb.Fatalf("a %d-byte response", n)
	}
	if _, err := io.ReadFull(c.conn, c.buf[:n]); err != nil {
		tb.Fatal(err)
	}
	return c.buf[:n]
}

// TestTCPBatchAllocs: a warm single node answers a 100-point route over
// TCP into lent items, reading the decoded request in place; what it
// allocates is the decoded request (3.2 KiB) and a few small objects, not
// the copies of requests, results and items it made before (≈ 8 KiB).
func TestTCPBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := proto.Serve(ln, newTestEngine(t), proto.ServerConfig{})
	defer srv.Close()
	c := dialRaw(t, ln.Addr().String(), route100(0))
	if m, err := wire.Binary.Decode(c.exchange(t)); err != nil {
		t.Fatal(err)
	} else if br, ok := m.(wire.BatchQueryResponse); !ok || len(br.Items) != 100 {
		t.Fatalf("route answered %#v", m)
	}
	b := bytesPerOp(func() { c.exchange(t) })
	t.Logf("100-point TCP batch = %d B/op on the server", b)
	if b > 4<<10 {
		t.Errorf("100-point TCP batch = %d B/op on the server, want ≤ 4 KiB", b)
	}
}

// TestTCPClusterHeatmapAllocs: a warm cluster answers a 64×64 heatmap over
// TCP with every raster it makes lent — the three renders and the merge.
// What its nodes allocate is the two rasters decoded from the peers' legs
// (32 KiB each) and a few small objects.
func TestTCPClusterHeatmapAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	c := newLoopbackCluster(t)
	raw := dialRaw(t, c.addrs[0], heatmap64(300))
	if m, err := wire.Binary.Decode(raw.exchange(t)); err != nil {
		t.Fatal(err)
	} else if _, ok := m.(wire.HeatmapResponse); !ok {
		t.Fatalf("heatmap answered %#v", m)
	}
	const raster = 64 * 64 * 8
	b := bytesPerOp(func() { raw.exchange(t) })
	t.Logf("clustered 64x64 TCP heatmap = %d B/op over the three nodes", b)
	if b > 2*raster+4<<10 {
		t.Errorf("clustered 64x64 TCP heatmap = %d B/op over the three nodes, want ≤ two decoded peer rasters (%d B) + 4 KiB",
			b, 2*raster)
	}
}

// BenchmarkClusterHeatmap64 is the Fig. 5b heatmap from a loopback R = 2
// cluster: a 64×64 raster requested from node 0 by proto.Client, which
// scatters it to every node over TCP and merges the legs. B/op covers the
// three nodes and the client, which share the process.
func BenchmarkClusterHeatmap64(b *testing.B) {
	c := newLoopbackCluster(b)
	cl, err := proto.Dial(c.addrs[0], proto.ServerConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	req := heatmap64(300)
	exchange := func() {
		resp, err := cl.Exchange(req)
		if hr, ok := resp.(wire.HeatmapResponse); err != nil || !ok || len(hr.Values) != 64*64 {
			b.Fatalf("heatmap: %v, %#v", err, resp)
		}
	}
	exchange()
	b.ReportAllocs()
	for b.Loop() {
		exchange()
	}
}
