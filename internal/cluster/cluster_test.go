package cluster_test

// Integration tests for the sharded serving layer: a 3-node cluster of
// real engines wired together over simulated cellular links (netsim).
// The acceptance properties: a query routed to a non-owner node returns
// exactly the owner's answer, heatmaps scatter-gather across all
// shards, ingest through any node lands every tuple on its owner, and
// killing one node fails only that node's shards. Runs under -race.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/colblock"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/heatmap"
	"repro/internal/kmeans"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tuple"
	"repro/internal/wire"
)

const (
	windowLen = 3600.0
	queryT    = 1800.0
)

var clusterRegion = geo.Rect{Min: geo.Point{X: -2000, Y: -2000}, Max: geo.Point{X: 2000, Y: 2000}}

// fieldVal is the deterministic scalar field the test data samples, so
// every node's answer is predictable from position alone.
func fieldVal(x, y float64) float64 { return 400 + 0.01*x + 0.02*y }

// makeData lays a lattice of tuples over the region inside window 0.
func makeData() tuple.Batch {
	var b tuple.Batch
	i := 0
	for x := -1900.0; x <= 1900; x += 200 {
		for y := -1900.0; y <= 1900; y += 200 {
			t := 100 + float64(i%330)*10 // spread through the window
			b = append(b, tuple.Raw{T: t, X: x, Y: y, S: fieldVal(x, y)})
			i++
		}
	}
	return b
}

// fixture is a 3-node cluster in one process: engines, routing nodes,
// and netsim links standing in for the data-center network.
type fixture struct {
	ring    *cluster.Ring
	engines []*server.Engine
	nodes   []*cluster.Node
	link    *netsim.Link
	dead    []atomic.Bool
	// severed, by node: while set, the ReplicaIngest frames sent to the
	// node are dropped, each signalled on the channel (of capacity 1).
	severed [3]atomic.Pointer[chan struct{}]

	streamsMu sync.Mutex
	streams   map[int][]*fakeStream // target node -> open push streams
}

// nodeTransport carries frames to fixture node `to` over the shared
// simulated link, with a kill switch per target. Frames are really
// encoded and decoded, so the new cluster messages cross the binary
// codec end to end.
type nodeTransport struct {
	f  *fixture
	to int
}

func (t *nodeTransport) Exchange(req wire.Message) (wire.Message, error) {
	if t.f.dead[t.to].Load() {
		return nil, fmt.Errorf("node %d is down", t.to)
	}
	if lost := t.f.severed[t.to].Load(); lost != nil {
		if _, ok := req.(wire.ReplicaIngest); ok {
			select {
			case *lost <- struct{}{}:
			default:
			}
			return nil, fmt.Errorf("node %d's stream is severed", t.to)
		}
	}
	reqB, err := wire.Binary.Encode(req)
	if err != nil {
		return nil, err
	}
	decoded, err := wire.Binary.Decode(reqB)
	if err != nil {
		return nil, err
	}
	resp := t.f.nodes[t.to].HandleMessage(decoded)
	respB, err := wire.Binary.Encode(resp)
	if err != nil {
		return nil, err
	}
	if _, err := t.f.link.Exchange(len(reqB), len(respB)); err != nil {
		return nil, err
	}
	return wire.Binary.Decode(respB)
}

func newEngine(t *testing.T) *server.Engine {
	t.Helper()
	st := store.MustOpenMemory(windowLen)
	e, err := server.NewMultiEngineOpts(map[tuple.Pollutant]*store.Store{tuple.CO2: st},
		core.Config{Cluster: kmeans.Config{Seed: 7}}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// storeLen is the number of tuples e holds for its default pollutant.
func storeLen(t *testing.T, e *server.Engine) int {
	t.Helper()
	st, err := e.StoreFor(e.Default())
	if err != nil {
		t.Fatal(err)
	}
	return st.Len()
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	cells, err := cluster.Cells(clusterRegion, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := cluster.NewRing(cluster.Desc{
		Nodes: []string{"node-0:8081", "node-1:8081", "node-2:8081"},
		Cells: cells,
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
			Ring:       ring,
			Self:       i,
			Local:      f.engines[i],
			Transports: transports,
			Default:    tuple.CO2,
			Streams:    f.openStream,
		})
		if err != nil {
			t.Fatal(err)
		}
		f.nodes = append(f.nodes, node)
	}
	return f
}

// load ingests the lattice through node 0's router, which must split it
// across shard owners.
func (f *fixture) load(t *testing.T, data tuple.Batch) {
	t.Helper()
	resp := f.nodes[0].HandleMessage(wire.IngestRequest{Pollutant: tuple.CO2, Tuples: data})
	ir, ok := resp.(wire.IngestResponse)
	if !ok {
		t.Fatalf("ingest through router failed: %#v", resp)
	}
	if int(ir.Ingested) != len(data) {
		t.Fatalf("ingested %d of %d tuples", ir.Ingested, len(data))
	}
	f.quiesce()
}

// quiesce is the read-after-ack barrier: once every primary's background
// builders are idle, each answer reflects every acknowledged tuple.
// (Mirrors have no background builders; they rebuild on read.)
func (f *fixture) quiesce() {
	for _, e := range f.engines {
		e.Scheduler().Wait()
	}
}

func TestClusterRoutedIngestShards(t *testing.T) {
	f := newFixture(t)
	data := makeData()
	f.load(t, data)

	total := 0
	for i, e := range f.engines {
		n := storeLen(t, e)
		if n == 0 {
			t.Errorf("node %d holds no tuples — sharding collapsed", i)
		}
		total += n
	}
	if total != len(data) {
		t.Fatalf("cluster holds %d tuples, ingested %d (duplicates or loss)", total, len(data))
	}
	// Every tuple must live exactly on its owner.
	for i, e := range f.engines {
		want := 0
		for _, r := range data {
			if f.ring.Owner(tuple.CO2, r.Pos()) == i {
				want++
			}
		}
		if got := storeLen(t, e); got != want {
			t.Errorf("node %d holds %d tuples, owns %d", i, got, want)
		}
	}
}

// sampleRequests picks lattice positions spread across all shards.
func sampleRequests(data tuple.Batch) []query.Request {
	var reqs []query.Request
	for i := 0; i < len(data); i += 17 {
		reqs = append(reqs, query.Request{T: queryT, X: data[i].X, Y: data[i].Y, Pollutant: tuple.CO2})
	}
	return reqs
}

func TestClusterNonOwnerQueryEqualsOwner(t *testing.T) {
	f := newFixture(t)
	data := makeData()
	f.load(t, data)
	ctx := context.Background()

	for _, req := range sampleRequests(data) {
		owner := f.ring.Owner(tuple.CO2, geo.Point{X: req.X, Y: req.Y})
		want, err := f.engines[owner].Query(ctx, req)
		if err != nil {
			t.Fatalf("owner %d query at (%v,%v): %v", owner, req.X, req.Y, err)
		}
		for n, node := range f.nodes {
			resp := node.HandleMessage(wire.QueryRequest{T: req.T, X: req.X, Y: req.Y, Pollutant: req.Pollutant})
			qr, ok := resp.(wire.QueryResponse)
			if !ok {
				t.Fatalf("node %d at (%v,%v): %#v", n, req.X, req.Y, resp)
			}
			if qr.Value != want {
				t.Fatalf("node %d answers %v at (%v,%v); owner %d answers %v",
					n, qr.Value, req.X, req.Y, owner, want)
			}
		}
	}
	// Forwarding actually happened (the samples span several shards).
	forwarded := int64(0)
	for _, node := range f.nodes {
		forwarded += node.Stats().Forwarded
	}
	if forwarded == 0 {
		t.Error("no request was forwarded — samples all landed on their handling node?")
	}
	if f.link.Stats().Exchanges == 0 {
		t.Error("netsim link saw no exchanges")
	}
}

// isolatedNodes builds nodes over f's engines with no peer transports:
// they cannot forward, so a foreign shard's owner is unreachable to them.
// A shard-aware wire client, routing by a cached ring, sees the same
// contract.
func isolatedNodes(t *testing.T, f *fixture) []*cluster.Node {
	t.Helper()
	iso := make([]*cluster.Node, 3)
	for i := range iso {
		n, err := cluster.NewNode(cluster.NodeConfig{
			Ring: f.ring, Self: i, Local: f.engines[i], Default: tuple.CO2,
		})
		if err != nil {
			t.Fatal(err)
		}
		iso[i] = n
	}
	return iso
}

// nodeByAddr is the index of the ring node listening on addr.
func nodeByAddr(t *testing.T, ring *cluster.Ring, addr string) int {
	t.Helper()
	for i := 0; i < ring.Nodes(); i++ {
		if ring.Addr(i) == addr {
			return i
		}
	}
	t.Fatalf("unknown node address %q", addr)
	return -1
}

// TestShardedClientTalksToOwners checks the contract a shard-aware
// client relies on: the ring fetched once over the wire from any node
// names each shard's owner, and that owner answers directly — no
// forwarding links, no bounce.
func TestShardedClientTalksToOwners(t *testing.T) {
	f := newFixture(t)
	data := makeData()
	f.load(t, data)
	ctx := context.Background()
	iso := isolatedNodes(t, f)

	rr, ok := iso[0].HandleMessage(wire.RingRequest{}).(wire.RingResponse)
	if !ok {
		t.Fatal("node 0 did not answer RingRequest with a RingResponse")
	}
	ring, err := cluster.RingFromWire(rr)
	if err != nil {
		t.Fatal(err)
	}
	reqs := sampleRequests(data)
	for _, req := range reqs {
		owner := ring.Owner(tuple.CO2, geo.Point{X: req.X, Y: req.Y})
		want, err := f.engines[owner].Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		node := iso[nodeByAddr(t, f.ring, ring.Addr(owner))]
		resp := node.HandleMessage(wire.QueryRequest{T: req.T, X: req.X, Y: req.Y, Pollutant: req.Pollutant})
		if qr, ok := resp.(wire.QueryResponse); !ok || qr.Value != want {
			t.Fatalf("owner %d via fetched ring at (%v,%v): %#v, engine answers %v", owner, req.X, req.Y, resp, want)
		}
	}
	local := int64(0)
	for _, node := range iso {
		st := node.Stats()
		local += st.Local
		if st.Forwarded != 0 {
			t.Errorf("fetched ring misrouted: stats %+v", st)
		}
	}
	if local != int64(len(reqs)) {
		t.Errorf("owners answered %d of %d queries locally", local, len(reqs))
	}
}

// TestTransportlessNodeAnswersOwnerUnreachable routes every query by a
// stale ring whose node addresses are rotated: each lands on the wrong
// node, which holds no transport to the true owner and answers
// ErrNodeUnreachable naming it, exactly as when the owner's exchange
// fails; asked directly, the owner answers its value.
func TestTransportlessNodeAnswersOwnerUnreachable(t *testing.T) {
	f := newFixture(t)
	data := makeData()
	f.load(t, data)
	ctx := context.Background()
	iso := isolatedNodes(t, f)

	desc := f.ring.Desc()
	rotated := make([]string, len(desc.Nodes))
	for i := range desc.Nodes {
		rotated[i] = desc.Nodes[(i+1)%len(desc.Nodes)]
	}
	stale, err := cluster.NewRing(cluster.Desc{Nodes: rotated, Cells: desc.Cells, VNodes: desc.VNodes})
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range sampleRequests(data) {
		owner := f.ring.Owner(tuple.CO2, geo.Point{X: req.X, Y: req.Y})
		want, err := f.engines[owner].Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		qreq := wire.QueryRequest{T: req.T, X: req.X, Y: req.Y, Pollutant: req.Pollutant}
		wrong := nodeByAddr(t, f.ring, stale.Addr(stale.Owner(tuple.CO2, geo.Point{X: req.X, Y: req.Y})))
		if wrong == owner {
			t.Fatalf("rotated ring still routes (%v,%v) to its owner %d", req.X, req.Y, owner)
		}
		resp := iso[wrong].HandleMessage(qreq)
		er, ok := resp.(wire.ErrorResponse)
		named := fmt.Sprintf("node %d (%s)", owner, f.ring.Addr(owner))
		if !ok || er.Code != wire.CodeNodeUnreachable || !strings.Contains(er.Msg, named) {
			t.Fatalf("node %d at (%v,%v): %#v, want CodeNodeUnreachable naming %s", wrong, req.X, req.Y, resp, named)
		}
		resp = iso[owner].HandleMessage(qreq)
		if qr, ok := resp.(wire.QueryResponse); !ok || qr.Value != want {
			t.Fatalf("owner %d at (%v,%v): %#v, its engine answers %v", owner, req.X, req.Y, resp, want)
		}
	}
	for i, node := range iso {
		if st := node.Stats(); st.Forwarded != 0 || st.Errors != 0 {
			t.Errorf("node %d reached a peer it holds no transport to: stats %+v", i, st)
		}
	}
}

func TestClusterBatchSplitsAndMatches(t *testing.T) {
	f := newFixture(t)
	data := makeData()
	f.load(t, data)
	ctx := context.Background()

	reqs := sampleRequests(data)
	// Through the Go convenience surface of a non-owner-for-most node.
	results, err := f.nodes[2].QueryBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(reqs) {
		t.Fatalf("%d results for %d requests", len(results), len(reqs))
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("batch item %d: %v", i, res.Err)
		}
		owner := f.ring.Owner(tuple.CO2, geo.Point{X: reqs[i].X, Y: reqs[i].Y})
		want, err := f.engines[owner].Query(ctx, reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != want {
			t.Fatalf("batch item %d: %v, owner answers %v", i, res.Value, want)
		}
	}
	// A batch with one bad item fails only that item.
	bad := append([]query.Request{}, reqs[0])
	bad = append(bad, query.Request{T: 99 * windowLen, X: 0, Y: 0, Pollutant: tuple.CO2})
	results, err = f.nodes[1].QueryBatch(ctx, bad)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Errorf("good item rejected: %v", results[0].Err)
	}
	if results[1].Err == nil {
		t.Error("out-of-window item accepted")
	}
}

func TestClusterHeatmapScatterGathers(t *testing.T) {
	f := newFixture(t)
	data := makeData()
	f.load(t, data)
	ctx := context.Background()

	grids := make([]*heatmap.Grid, 3)
	for n, node := range f.nodes {
		g, err := node.Heatmap(ctx, tuple.CO2, queryT, 24, 24)
		if err != nil {
			t.Fatalf("node %d heatmap: %v", n, err)
		}
		for _, v := range g.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("node %d heatmap holds non-finite values", n)
			}
		}
		grids[n] = g
	}
	// Scatter-gather is deterministic: every node assembles the same map.
	if !reflect.DeepEqual(grids[0], grids[1]) || !reflect.DeepEqual(grids[1], grids[2]) {
		t.Fatal("nodes assembled different cluster heatmaps")
	}
	// The merged region must span every shard's data, i.e. (at least)
	// the union of the per-engine rasters.
	region := grids[0].Region
	for i, e := range f.engines {
		own, err := e.Heatmap(ctx, tuple.CO2, queryT, 8, 8)
		if err != nil {
			t.Fatalf("engine %d local heatmap: %v", i, err)
		}
		if !region.Contains(own.Region.Center()) {
			t.Errorf("merged heatmap region %v misses node %d's data at %v", region, i, own.Region.Center())
		}
	}
	// Every node scattered (peers saw forwarded-in traffic).
	for n, node := range f.nodes {
		if node.Stats().ForwardedIn == 0 {
			t.Errorf("node %d never received a scattered request", n)
		}
	}
}

func TestClusterModelMerge(t *testing.T) {
	f := newFixture(t)
	data := makeData()
	f.load(t, data)
	ctx := context.Background()

	mr, err := f.nodes[0].Model(ctx, tuple.CO2, queryT)
	if err != nil {
		t.Fatal(err)
	}
	wantRegions := 0
	for i, e := range f.engines {
		cv, err := e.CoverAt(ctx, tuple.CO2, queryT)
		if err != nil {
			t.Fatalf("engine %d cover: %v", i, err)
		}
		wantRegions += cv.Size()
	}
	if len(mr.Centroids) != wantRegions {
		t.Fatalf("merged cover has %d regions, shards hold %d", len(mr.Centroids), wantRegions)
	}
	// The merged cover is a usable client-side model cache.
	cv, err := wire.CoverFromModelResponse(mr)
	if err != nil {
		t.Fatal(err)
	}
	v, err := cv.Interpolate(queryT, 500, 500)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("merged cover interpolates to %v", v)
	}
}

func TestClusterNodeLossFailsOnlyItsShards(t *testing.T) {
	f := newFixture(t)
	data := makeData()
	f.load(t, data)
	ctx := context.Background()

	const victim = 2
	f.dead[victim].Store(true)

	lost, kept := 0, 0
	for _, req := range sampleRequests(data) {
		owner := f.ring.Owner(tuple.CO2, geo.Point{X: req.X, Y: req.Y})
		for n := 0; n < 2; n++ { // query through the survivors
			resp := f.nodes[n].HandleMessage(wire.QueryRequest{T: req.T, X: req.X, Y: req.Y, Pollutant: req.Pollutant})
			switch r := resp.(type) {
			case wire.QueryResponse:
				if owner == victim {
					t.Fatalf("node %d answered a dead node's shard at (%v,%v)", n, req.X, req.Y)
				}
				want, err := f.engines[owner].Query(ctx, req)
				if err != nil || r.Value != want {
					t.Fatalf("node %d: %v (want %v, err %v)", n, r.Value, want, err)
				}
				kept++
			case wire.ErrorResponse:
				if owner != victim {
					t.Fatalf("node %d failed a live shard at (%v,%v): %s", n, req.X, req.Y, r.Msg)
				}
				if r.Code != wire.CodeNodeUnreachable {
					t.Fatalf("unexpected error for dead shard: %#v", r)
				}
				lost++
			default:
				t.Fatalf("unexpected response %T", resp)
			}
		}
	}
	if lost == 0 {
		t.Error("no sample hit the dead node's shards — broaden the samples")
	}
	if kept == 0 {
		t.Error("no sample answered — the outage spread past the dead node")
	}
	// Cross-shard operations survive on the remaining nodes.
	g, err := f.nodes[0].Heatmap(ctx, tuple.CO2, queryT, 16, 16)
	if err != nil {
		t.Fatalf("heatmap after node loss: %v", err)
	}
	if len(g.Values) != 256 {
		t.Fatalf("heatmap after node loss has %d cells", len(g.Values))
	}
}

// TestClusterPartialIngestNotRetryable locks the duplicate-prevention
// contract: an ingest where some owners applied and one was down maps
// to ErrPartialIngest (never the retryable ErrSaturated), while an
// ingest where nothing applied keeps a retryable error.
func TestClusterPartialIngestNotRetryable(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	data := makeData()
	f.dead[2].Store(true)

	err := f.nodes[0].Ingest(ctx, tuple.CO2, data)
	if err == nil {
		t.Fatal("ingest spanning a dead node succeeded")
	}
	if !errors.Is(err, cluster.ErrPartialIngest) {
		t.Fatalf("partial ingest maps to %v, want ErrPartialIngest", err)
	}
	// The surviving owners applied their slices exactly once.
	applied := storeLen(t, f.engines[0]) + storeLen(t, f.engines[1])
	want := 0
	for _, r := range data {
		if f.ring.Owner(tuple.CO2, r.Pos()) != 2 {
			want++
		}
	}
	if applied != want {
		t.Fatalf("survivors hold %d tuples, want %d", applied, want)
	}

	// An upload owned entirely by the dead node applies nowhere: the
	// error stays a retryable unreachable, not a partial ingest.
	var deadOnly tuple.Batch
	for _, r := range data {
		if f.ring.Owner(tuple.CO2, r.Pos()) == 2 {
			deadOnly = append(deadOnly, r)
		}
	}
	if len(deadOnly) == 0 {
		t.Fatal("no tuples owned by the dead node")
	}
	err = f.nodes[0].Ingest(ctx, tuple.CO2, deadOnly)
	if err == nil {
		t.Fatal("dead-owner ingest succeeded")
	}
	if errors.Is(err, cluster.ErrPartialIngest) {
		t.Fatalf("all-failed ingest wrongly marked partial: %v", err)
	}
	if !errors.Is(err, cluster.ErrNodeUnreachable) {
		t.Fatalf("all-failed ingest maps to %v, want ErrNodeUnreachable", err)
	}
}

// TestMaxHeatmapCellsFitsOneFrame: the cell cap is derived from the coded
// raster's worst case, 8.5 B a cell, so a raster at the cap fits one frame
// whatever its values, and the cap leaves no more than the 64 bytes of
// slack it was derived with.
func TestMaxHeatmapCellsFitsOneFrame(t *testing.T) {
	if worst := wire.RasterFrameBytes(cluster.MaxHeatmapCells); worst > proto.MaxFrameBytes {
		t.Errorf("a raster of %d cells is up to %d B, over the %d B frame", cluster.MaxHeatmapCells, worst, proto.MaxFrameBytes)
	}
	if next := cluster.MaxHeatmapCells + 8; wire.RasterFrameBytes(next) <= proto.MaxFrameBytes {
		t.Errorf("the cap %d is not derived from the worst case: %d cells still fit one frame", cluster.MaxHeatmapCells, next)
	}
}

// TestMaxBatchShareFitsOneFrame: the share cap is derived from the coded
// batch's worst case, 28 B a point, so a forwarded share at the cap fits
// one frame whatever its points, and the cap leaves no more than the 64
// bytes of slack it was derived with.
func TestMaxBatchShareFitsOneFrame(t *testing.T) {
	share := cluster.MaxBatchShare
	if worst := wire.BatchRequestFrameBytes(share) + 64; worst > proto.MaxFrameBytes {
		t.Errorf("a share of %d points is up to %d B with its slack, over the %d B frame", share, worst, proto.MaxFrameBytes)
	}
	if next := share + 1; wire.BatchRequestFrameBytes(next)+64 <= proto.MaxFrameBytes {
		t.Errorf("the cap %d is not derived from the worst case: %d points still fit one frame with the slack", share, next)
	}
	// The frame a router sends at the cap, with every point at the worst
	// case: random bits, and the pollutant swinging between 0 and 255.
	rng := rand.New(rand.NewSource(1))
	items := make([]wire.QueryRequest, share)
	for i := range items {
		items[i] = wire.QueryRequest{
			T: math.Float64frombits(rng.Uint64()), X: math.Float64frombits(rng.Uint64()), Y: math.Float64frombits(rng.Uint64()),
			Pollutant: tuple.Pollutant(255 * (i & 1)),
		}
	}
	frame, err := wire.Binary.Encode(wire.Forwarded{Inner: wire.BatchQueryRequest{Items: items}, Epoch: math.MaxUint64})
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) > proto.MaxFrameBytes {
		t.Errorf("a forwarded share of %d random points is %d B, over the %d B frame", share, len(frame), proto.MaxFrameBytes)
	}
}

// TestTupleChunksFitOneFrame: the caps on a forwarded upload leg and a
// catch-up chunk are wire.MaxFrameTuples, derived from the packed run's
// worst case, colblock.MaxPackedLen(n) = 52 + 32n bytes, so a chunk at its
// cap of incompressible tuples — random bit patterns, which no column
// packs — fits one frame with every fixed field at its widest: the leg in
// its Forwarded wrapper, the replica frame its owner streams of it, and
// the catch-up chunk. The largest upload a decoder accepts is such a leg,
// so whatever an owner commits it can replicate in one frame. The bound
// leaves no more than the 64 bytes of slack it was derived with.
func TestTupleChunksFitOneFrame(t *testing.T) {
	ingestCap, catchupCap := cluster.ChunkCaps()
	if ingestCap != wire.MaxFrameTuples || catchupCap != wire.MaxFrameTuples {
		t.Errorf("chunk caps %d and %d, want the decoders' %d", ingestCap, catchupCap, wire.MaxFrameTuples)
	}
	if n := wire.MaxFrameTuples; colblock.MaxPackedLen(n)+64 > proto.MaxFrameBytes || colblock.MaxPackedLen(n+1)+64 <= proto.MaxFrameBytes {
		t.Errorf("wire.MaxFrameTuples = %d is not the most tuples whose worst-case run fits a frame with 64 bytes to spare", n)
	}
	rng := rand.New(rand.NewSource(1))
	random := func(n int) []tuple.Raw {
		b := make([]tuple.Raw, n)
		for i := range b {
			b[i] = tuple.Raw{T: math.Float64frombits(rng.Uint64()), X: math.Float64frombits(rng.Uint64()),
				Y: math.Float64frombits(rng.Uint64()), S: math.Float64frombits(rng.Uint64())}
		}
		return b
	}
	// A leg the raw layout fitted, (MaxFrameBytes-64)/32 tuples, would fit
	// a frame packed but not its replica frame: it is never sent.
	rawMost := (proto.MaxFrameBytes - 64) / 32
	if _, err := wire.Binary.Encode(wire.Forwarded{Inner: wire.IngestRequest{Tuples: random(rawMost)}, Epoch: 1}); err == nil {
		t.Errorf("a forwarded upload of %d tuples encoded, over the %d its replica frame fits", rawMost, wire.MaxFrameTuples)
	}
	leg, chunk := random(ingestCap), random(catchupCap)
	for _, c := range []struct {
		m wire.Message
		n int
	}{
		{wire.Forwarded{Inner: wire.IngestRequest{Pollutant: 255, Tuples: leg}, Epoch: math.MaxUint64}, len(leg)},
		{wire.ReplicaIngest{Origin: math.MaxUint16, Pollutant: 255, Seq: math.MaxUint64, Tuples: leg, Incarnation: math.MaxUint64}, len(leg)},
		{wire.ReplicaCatchupResponse{Snapshot: true, Done: true, From: math.MaxUint64, Tuples: chunk, Incarnation: math.MaxUint64}, len(chunk)},
	} {
		frame, err := wire.Binary.Encode(c.m)
		if err != nil {
			t.Fatal(err)
		}
		if len(frame) > proto.MaxFrameBytes {
			t.Errorf("%T of %d random tuples is %d B, over the %d B frame", c.m, c.n, len(frame), proto.MaxFrameBytes)
		}
		if len(frame) > colblock.MaxPackedLen(c.n)+64 {
			t.Errorf("%T of %d random tuples is %d B, over its run's worst case %d B and the slack", c.m, c.n, len(frame), colblock.MaxPackedLen(c.n))
		}
	}
}
