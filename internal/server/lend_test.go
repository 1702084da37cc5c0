package server

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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
	ring    *cluster.Ring
	engines []*Engine
	nodes   []*cluster.Node
	addrs   []string
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
	c := &loopbackCluster{ring: ring, addrs: addrs}
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
		c.engines = append(c.engines, e)
	}
	ctx := context.Background()
	if err := c.nodes[0].Ingest(ctx, tuple.CO2, testData()); err != nil {
		tb.Fatal(err)
	}
	for _, e := range c.engines {
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
// still being encoded. Two of the routes lie in shards one node owns, so
// their answers are the owner engine's or the peer client's lent items,
// passed through whole. Every answer equals the in-process answer taken
// after the maintenance barrier, bit for bit; run under -race, a buffer
// reused before its frame was written is also a reported race.
func TestLentAnswersUnderConcurrency(t *testing.T) {
	c := newLoopbackCluster(t)
	reqs := []wire.Message{route100(0), route100(7), heatmap64(300), heatmap64(900),
		soleOwnerRoute(t, c.ring, 0), soleOwnerRoute(t, c.ring, 1)}
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

// upload256 is upload id: 256 tuples spread over the whole region, so every
// owner gets a share, timed after testData's two windows (from 1 200 s on)
// so the routes' windows do not change. Each tuple's value names it.
func upload256(id int) wire.IngestRequest {
	m := wire.IngestRequest{Pollutant: tuple.CO2, Tuples: make([]tuple.Raw, 256)}
	for j := range m.Tuples {
		m.Tuples[j] = tuple.Raw{
			T: 1200 + float64(id) + float64(j)/256,
			X: float64((j*37 + id*11) % 2000), Y: float64((j*91 + id*7) % 2000),
			S: 400 + float64(id*256+j)/1e4,
		}
	}
	return m
}

// sortTuples orders tuples by every field, so two stores' contents compare
// as multisets.
func sortTuples(b []tuple.Raw) {
	slices.SortFunc(b, func(x, y tuple.Raw) int {
		return cmp.Or(cmp.Compare(x.T, y.T), cmp.Compare(x.X, y.X), cmp.Compare(x.Y, y.Y), cmp.Compare(x.S, y.S))
	})
}

// sameTuples reports how got differs from want, bit for bit; "" when it
// does not.
func sameTuples(got, want []tuple.Raw) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d tuples, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g.T) != math.Float64bits(w.T) || math.Float64bits(g.X) != math.Float64bits(w.X) ||
			math.Float64bits(g.Y) != math.Float64bits(w.Y) || math.Float64bits(g.S) != math.Float64bits(w.S) {
			return fmt.Sprintf("tuple %d = %+v, want %+v", i, g, w)
		}
	}
	return ""
}

// waitReplicated waits until every frame the primaries streamed has been
// applied by its replica, and fails if any was dropped or refused.
func (c *loopbackCluster) waitReplicated(tb testing.TB) {
	tb.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var streamed, applied, lost int64
		for _, n := range c.nodes {
			s, _ := n.ReplicationStats()
			streamed, applied = streamed+s.Streamed, applied+s.Applied
			lost += s.StreamDrops + s.StreamErrors + s.GapNaks
		}
		switch {
		case lost > 0:
			tb.Fatalf("%d replica frames dropped, failed or refused", lost)
		case applied == streamed:
			return
		case time.Now().After(deadline):
			tb.Fatalf("replicas applied %d of %d streamed frames", applied, streamed)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLentRequestsUnderConcurrency: clients on every node of a loopback
// R = 2 cluster send 100-point routes and 256-tuple uploads spanning every
// owner at once, so route points, forwarded uploads and replica frames are
// decoded into lent memory on every node while other requests are still
// being answered, and every node streams the slices it commits. Every
// route answer equals the in-process answer taken before, bit for bit;
// after the maintenance barrier each primary holds exactly its share of
// the acknowledged tuples, and every replica mirror answers a route
// through the uploads bit-equal to its primary. Run under -race, a request
// buffer read after it went back to the pool is also a reported race.
func TestLentRequestsUnderConcurrency(t *testing.T) {
	c := newLoopbackCluster(t)
	routes := []wire.Message{route100(0), route100(7)}
	want := make([]wire.Message, len(routes))
	for i, req := range routes {
		want[i] = c.nodes[0].HandleMessage(req) // kept, so never released
	}
	const clientsPerNode, rounds = 3, 6
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		uploaded = testData()
	)
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
					if r%2 == 0 {
						i := (n + k + r/2) % len(routes)
						got, err := cl.Exchange(routes[i])
						if err != nil {
							t.Error(err)
							return
						}
						if diff := sameAnswer(got, want[i]); diff != "" {
							t.Errorf("node %d, client %d, round %d, route %d: %s", n, k, r, i, diff)
							return
						}
						continue
					}
					up := upload256((n*clientsPerNode+k)*rounds + r)
					got, err := cl.Exchange(up)
					if err != nil {
						t.Error(err)
						return
					}
					if ack, ok := got.(wire.IngestResponse); !ok || ack.Ingested != uint32(len(up.Tuples)) {
						t.Errorf("node %d, client %d, round %d: upload answered %#v", n, k, r, got)
						return
					}
					mu.Lock()
					uploaded = append(uploaded, up.Tuples...)
					mu.Unlock()
				}
			}(n, k, addr)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, e := range c.engines {
		e.Scheduler().Wait()
	}
	c.waitReplicated(t)
	for i, n := range c.nodes {
		if rs, _ := n.ReplicationStats(); n.Stats().ForwardedIn == 0 || rs.Applied == 0 {
			t.Fatalf("node %d decoded no forwarded or no replica frame: %+v, %+v", i, n.Stats(), rs)
		}
	}

	// Each primary holds exactly the acknowledged tuples it owns.
	shares := make([][]tuple.Raw, len(c.engines))
	for _, r := range uploaded {
		o := c.ring.Owner(tuple.CO2, r.Pos())
		shares[o] = append(shares[o], r)
	}
	for i, e := range c.engines {
		st, err := e.StoreFor(tuple.CO2)
		if err != nil {
			t.Fatal(err)
		}
		var held []tuple.Raw
		for w := 0; w < 3; w++ {
			held = append(held, st.Window(w)...)
		}
		sortTuples(held)
		sortTuples(shares[i])
		if diff := sameTuples(held, shares[i]); diff != "" {
			t.Errorf("primary %d: %s", i, diff)
		}
	}

	// Every mirror answers a route through the uploads' window as its
	// primary does.
	route := route100(0)
	for i := range route.Items {
		route.Items[i].T = 1200 + float64(i)
	}
	for origin, e := range c.engines {
		primary := e.HandleMessage(route)
		if _, failed := primary.(wire.ErrorResponse); failed {
			t.Fatalf("primary %d: %+v", origin, primary)
		}
		for _, rep := range c.ring.ReplicaPeers(origin, tuple.CO2) {
			mirror := c.nodes[rep].HandleMessage(wire.ReplicaRead{Origin: uint16(origin), Inner: route})
			if diff := sameAnswer(mirror, primary); diff != "" {
				t.Errorf("node %d's mirror of %d: %s", rep, origin, diff)
			}
		}
	}
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

// releaseLog is an engine behind proto.Serve that passes on every request
// it releases.
type releaseLog struct {
	*Engine
	released chan wire.Message
}

func (h releaseLog) Release(req, resp wire.Message) {
	h.Engine.Release(req, resp)
	h.released <- req
}

// TestAbandonedUploadKeepsItsMemory: an upload whose wait is cancelled —
// here by the server shutting down while the ingest queue holds it — is
// answered with an error, but the queue still applies it later, from the
// tuples the serve loop decoded. Release must not give those back: the
// next lend of their size does not return them, and once the queue moves
// on the store holds the upload bit for bit. An acknowledged upload's
// tuples, by contrast, do go back.
func TestAbandonedUploadKeepsItsMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	// One P: a slice given back to a pool is the next one lent, whichever
	// goroutine gave it back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	st := store.MustOpenMemory(600)
	e := NewEngine(st, core.Config{Cluster: kmeans.Config{Seed: 7}})
	defer e.Close()
	var holding atomic.Bool
	entered, hold := make(chan struct{}, 1), make(chan struct{})
	e.ingestTestGate = func(tuple.Pollutant) {
		if holding.Load() {
			entered <- struct{}{}
			<-hold
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := releaseLog{Engine: e, released: make(chan wire.Message, 2)}
	srv := proto.Serve(ln, h, proto.ServerConfig{})
	defer srv.Close()
	cl, err := proto.Dial(ln.Addr().String(), proto.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	upload := func(t0 float64) wire.IngestRequest {
		m := upload256(0)
		for j := range m.Tuples {
			m.Tuples[j].T = t0 + float64(j)
		}
		return m
	}
	lentTuples := func(m wire.Message) *tuple.Raw { return &m.(wire.IngestRequest).Tuples[0] }

	acked := upload(0) // window 0
	if resp, err := cl.Exchange(acked); err != nil {
		t.Fatal(err)
	} else if _, ok := resp.(wire.IngestResponse); !ok {
		t.Fatalf("upload answered %#v", resp)
	}
	if req := <-h.released; &wire.LendTuples(256)[0] != lentTuples(req) {
		t.Fatal("an acknowledged upload's tuples did not go back to the pool")
	}

	abandoned := upload(600) // window 1
	holding.Store(true)
	done := make(chan error, 1)
	go func() {
		_, err := cl.Exchange(abandoned)
		done <- err
	}()
	<-entered // the queue holds the upload
	srv.Close()
	if err := <-done; err == nil {
		t.Error("the abandoned upload's exchange succeeded")
	}
	req := <-h.released
	next := wire.LendTuples(256)
	if &next[0] == lentTuples(req) {
		t.Error("an upload still in the ingest queue went back to the pool")
	}
	for j := range next {
		next[j] = tuple.Raw{T: 599, X: 1, Y: 1, S: 1} // what the next borrower writes
	}
	close(hold)
	if err := e.Close(); err != nil { // drains the queue
		t.Fatal(err)
	}
	for w, want := range []wire.IngestRequest{acked, abandoned} {
		if diff := sameTuples(st.Window(w), want.Tuples); diff != "" {
			t.Errorf("window %d: %s", w, diff)
		}
	}
}

// ackPeer is a peer node that acknowledges every forwarded upload without
// keeping it.
type ackPeer struct{}

func (ackPeer) Exchange(req wire.Message) (wire.Message, error) {
	if f, ok := req.(wire.Forwarded); ok {
		if ing, ok := f.Inner.(wire.IngestRequest); ok {
			return wire.IngestResponse{Ingested: uint32(len(ing.Tuples))}, nil
		}
	}
	return wire.ErrorResponse{Msg: "ackPeer: not a forwarded upload"}, nil
}

// TestAbandonedSplitKeepsItsMemory: a cluster node splits a routed upload
// into lent memory and applies its own slice from there. When the wait for
// that slice is cancelled while the ingest queue holds it, the node
// answers an error, but the queue still applies the slice later, from the
// split. The split must not go back to the pool then: the next lend of its
// size does not return it, and once the queue moves on the store holds the
// node's share bit for bit. An upload every owner acknowledged, by
// contrast, gives its split back.
func TestAbandonedSplitKeepsItsMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	// One P: a slice given back to a pool is the next one lent, whichever
	// goroutine gave it back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cells, err := cluster.Cells(geo.Rect{Max: geo.Point{X: 2000, Y: 2000}}, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := cluster.NewRing(cluster.Desc{Nodes: []string{"a:1", "b:2", "c:3"}, Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	st := store.MustOpenMemory(600)
	e := NewEngine(st, core.Config{Cluster: kmeans.Config{Seed: 7}})
	defer e.Close()
	var holding atomic.Bool
	entered, hold := make(chan struct{}, 1), make(chan struct{})
	e.ingestTestGate = func(tuple.Pollutant) {
		if holding.Load() {
			entered <- struct{}{}
			<-hold
		}
	}
	node, err := cluster.NewNode(cluster.NodeConfig{Ring: ring, Self: 0, Local: e, Default: tuple.CO2,
		Transports: []cluster.Transport{nil, ackPeer{}, ackPeer{}}})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	upload := func(t0 float64) (m wire.IngestRequest, share []tuple.Raw) {
		m = upload256(0)
		for j := range m.Tuples {
			m.Tuples[j].T = t0 + float64(j)
			if ring.Owner(tuple.CO2, m.Tuples[j].Pos()) == 0 {
				share = append(share, m.Tuples[j])
			}
		}
		if len(share) == 0 || len(share) == len(m.Tuples) {
			t.Fatalf("node 0 owns %d of %d tuples, want a share", len(share), len(m.Tuples))
		}
		return m, share
	}
	// The split is the next 256-tuple lend: put a known one in its place.
	split := wire.LendTuples(256)
	wire.ReturnTuples(split)

	acked, ackedShare := upload(0) // window 0
	if resp := node.HandleMessage(acked); resp != (wire.IngestResponse{Ingested: 256}) {
		t.Fatalf("upload answered %#v", resp)
	}
	if next := wire.LendTuples(256); &next[0] != &split[0] {
		t.Fatal("an acknowledged upload's split did not go back to the pool")
	} else {
		wire.ReturnTuples(next)
	}

	abandoned, abandonedShare := upload(600) // window 1
	holding.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan wire.Message, 1)
	go func() { done <- node.HandleMessageCtx(ctx, abandoned) }()
	<-entered // the queue holds node 0's slice
	cancel()
	if resp := <-done; resp == (wire.IngestResponse{Ingested: 256}) {
		t.Error("the abandoned upload was acknowledged")
	}
	next := wire.LendTuples(256)
	if &next[0] == &split[0] {
		t.Error("a split whose slice is still in the ingest queue went back to the pool")
	}
	for j := range next {
		next[j] = tuple.Raw{T: 599, X: 1, Y: 1, S: 1} // what the next borrower writes
	}
	close(hold)
	if err := e.Close(); err != nil { // drains the queue
		t.Fatal(err)
	}
	for w, want := range [][]tuple.Raw{ackedShare, abandonedShare} {
		if diff := sameTuples(st.Window(w), want); diff != "" {
			t.Errorf("window %d: %s", w, diff)
		}
	}
}

// TestTCPBatchAllocs: a warm single node answers a 100-point route over
// TCP from lent memory both ways — the route's points decoded into a lent
// array, the answer written into lent items, both taken back after the
// write with the boxes they travelled in — so it allocates nothing, not
// the decoded request (3.2 KiB) it allocated before, nor the request and
// answer boxed (48 B, 2 allocations) it allocated since.
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
	if b > 1<<10 {
		t.Errorf("100-point TCP batch = %d B/op on the server, want ≤ 1 KiB", b)
	}
	allocs := allocsPerOp(func() { c.exchange(t) })
	t.Logf("100-point TCP batch = %.2f allocs on the server", allocs)
	if allocs > 0 {
		t.Errorf("100-point TCP batch = %.2f allocs on the server, want 0", allocs)
	}
}

// goroutineID is the calling goroutine's number, read from its stack
// header ("goroutine 7 [running]:").
func goroutineID() string {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	return f[1]
}

// onGoroutineCtx is a context that notes whether it was consulted from a
// goroutine other than the one that made it.
type onGoroutineCtx struct {
	context.Context
	id    string
	other atomic.Bool
}

func (c *onGoroutineCtx) Err() error {
	if goroutineID() != c.id {
		c.other.Store(true)
	}
	return c.Context.Err()
}

// TestWireBatchAllocs: a warm engine answers a 100-point wire batch on
// the goroutine that hands it the batch, without starting a worker, and
// into lent items that come back in the box they were released in — so
// what it allocates is the request boxed into wire.Message. A worker pool
// cost three more allocations, and boxing each answer one more.
func TestWireBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	e := newTestEngine(t)
	req := route100(0)
	batch := func(ctx context.Context) {
		resp := e.HandleMessageCtx(ctx, req)
		br, ok := resp.(wire.BatchQueryResponse)
		if !ok || len(br.Items) != 100 || br.Items[0].Err != "" {
			t.Fatalf("route answered %#v", resp)
		}
		e.Release(nil, resp)
	}
	ctx := &onGoroutineCtx{Context: context.Background(), id: goroutineID()}
	batch(ctx)
	if ctx.other.Load() {
		t.Error("a batch item was answered on another goroutine")
	}
	const ceiling = 1 // the boxed request
	allocs := testing.AllocsPerRun(50, func() { batch(context.Background()) })
	t.Logf("100-point wire batch = %.1f allocs", allocs)
	if allocs > ceiling {
		t.Errorf("100-point wire batch = %.1f allocs, want ≤ %d", allocs, ceiling)
	}
}

// TestTCPClusterHeatmapAllocs: a warm cluster answers a 64×64 heatmap over
// TCP with every raster lent — the three renders, the two peer legs node 0
// decodes (recycled once merged) and the merge — so what its nodes
// allocate is a few small objects, not the two 32 KiB peer rasters they
// once decoded into new memory; and few of them, counted.
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
	b := bytesPerOp(func() { raw.exchange(t) })
	t.Logf("clustered 64x64 TCP heatmap = %d B/op over the three nodes", b)
	if b > 4<<10 {
		t.Errorf("clustered 64x64 TCP heatmap = %d B/op over the three nodes, want ≤ 4 KiB", b)
	}
	// Node 0 merges the legs' rasters from its pooled fan: a leg's answer
	// moved to the heap, and a per-heatmap table of them, cost ≈ 4 more.
	const ceiling = 16 // ≈ 15, and room for a background allocation
	allocs := allocsPerOp(func() { raw.exchange(t) })
	t.Logf("clustered 64x64 TCP heatmap = %.2f allocs over the three nodes", allocs)
	if allocs > ceiling {
		t.Errorf("clustered 64x64 TCP heatmap = %.2f allocs over the three nodes, want ≤ %d", allocs, ceiling)
	}
}

// TestTCPClusterBatchAllocs: a warm cluster answers a 100-point route
// that spans all three owners over TCP with one pooled fan at node 0: node
// 0 answers its own share on the serving goroutine and hands the peers'
// shares to its leg workers, so a route pays no goroutine, closure or
// WaitGroup per leg, and every lent route or answer a node decodes or
// returns comes back in the box its slice was recycled in. What the three
// nodes allocate is counted: ≈ 7 a route (a sub-batch boxed per leg, and
// the two remote legs' Forwarded wrappers, sent and decoded), where boxing
// each lent message cost ≈ 16 and a goroutine per leg ≈ 23.
func TestTCPClusterBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	c := newLoopbackCluster(t)
	req := route100(0)
	owners := make(map[int]bool)
	for _, it := range req.Items {
		owners[c.ring.Owner(it.Pollutant, geo.Point{X: it.X, Y: it.Y})] = true
	}
	if len(owners) != 3 {
		t.Fatalf("the route spans %d owners, want all 3", len(owners))
	}
	raw := dialRaw(t, c.addrs[0], req)
	if m, err := wire.Binary.Decode(raw.exchange(t)); err != nil {
		t.Fatal(err)
	} else if br, ok := m.(wire.BatchQueryResponse); !ok || len(br.Items) != 100 || br.Items[0].Err != "" {
		t.Fatalf("route answered %#v", m)
	}
	const ceiling = 9 // ≈ 7, and room for a background allocation or two
	allocs := allocsPerOp(func() { raw.exchange(t) })
	t.Logf("clustered 100-point TCP route = %.2f allocs over the three nodes", allocs)
	if allocs > ceiling {
		t.Errorf("clustered 100-point TCP route = %.2f allocs over the three nodes, want ≤ %d", allocs, ceiling)
	}
}

// soleOwnerRoute is a 100-point route through both windows of testData
// whose every point lies in a shard node owner owns under ring.
func soleOwnerRoute(tb testing.TB, ring *cluster.Ring, owner int) wire.BatchQueryRequest {
	tb.Helper()
	var m wire.BatchQueryRequest
	for i := 0; len(m.Items) < 100 && i < 100*100; i++ {
		x, y := 20*float64(i%100)+10, 20*float64(i/100)+10
		if ring.Owner(tuple.CO2, geo.Point{X: x, Y: y}) == owner {
			m.Items = append(m.Items, wire.QueryRequest{T: 100 + 10*float64(len(m.Items)), X: x, Y: y})
		}
	}
	if len(m.Items) < 100 {
		tb.Fatalf("node %d owns room for %d route points, want 100", owner, len(m.Items))
	}
	return m
}

// TestTCPClusterSingleOwnerBatchAllocs: a warm cluster answers a
// 100-point route that node 0 owns alone by passing it to its engine in
// the box it arrived in and answering with the engine's own answer: no
// sub-batch is split off and boxed, and no second answer is assembled and
// boxed. The request the serve loop decodes and the engine's answer come
// in the boxes their lent slices were recycled in, so the three nodes
// allocate nothing a route, where boxing those two cost 2 and the split
// path 4.
func TestTCPClusterSingleOwnerBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	c := newLoopbackCluster(t)
	raw := dialRaw(t, c.addrs[0], soleOwnerRoute(t, c.ring, 0))
	if m, err := wire.Binary.Decode(raw.exchange(t)); err != nil {
		t.Fatal(err)
	} else if br, ok := m.(wire.BatchQueryResponse); !ok || len(br.Items) != 100 || br.Items[0].Err != "" {
		t.Fatalf("route answered %#v", m)
	}
	const ceiling = 1 // 0, and room for a background allocation
	allocs := allocsPerOp(func() { raw.exchange(t) })
	t.Logf("clustered one-owner 100-point TCP route = %.2f allocs over the three nodes", allocs)
	if allocs > ceiling {
		t.Errorf("clustered one-owner 100-point TCP route = %.2f allocs over the three nodes, want ≤ %d", allocs, ceiling)
	}
}

// BenchmarkTCPClusterRoute is a warm 100-point route sent to node 0 of a
// loopback R = 2 cluster over TCP, owned by node 0 alone and spread over
// all three owners. allocs/op and B/op cover the three nodes: the
// response frame is read, not decoded.
func BenchmarkTCPClusterRoute(b *testing.B) {
	c := newLoopbackCluster(b)
	for _, route := range []struct {
		name string
		req  wire.BatchQueryRequest
	}{{"one-owner", soleOwnerRoute(b, c.ring, 0)}, {"three-owners", route100(0)}} {
		b.Run(route.name, func(b *testing.B) {
			raw := dialRaw(b, c.addrs[0], route.req)
			if m, err := wire.Binary.Decode(raw.exchange(b)); err != nil {
				b.Fatal(err)
			} else if br, ok := m.(wire.BatchQueryResponse); !ok || len(br.Items) != 100 || br.Items[0].Err != "" {
				b.Fatalf("route answered %#v", m)
			}
			b.ReportAllocs()
			for b.Loop() {
				raw.exchange(b)
			}
		})
	}
}

// allocsPerOp is the median of five rounds' heap allocations per call of
// f, after one warm-up call: every goroutine's, not only the caller's.
func allocsPerOp(f func()) float64 {
	const calls = 20
	f()
	var per []float64
	for range 5 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range calls {
			f()
		}
		runtime.ReadMemStats(&m1)
		per = append(per, float64(m1.Mallocs-m0.Mallocs)/calls)
	}
	slices.Sort(per)
	return per[len(per)/2]
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
