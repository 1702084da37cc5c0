package cluster_test

// The error taxonomy across real sockets: each sentinel the wire carries
// is provoked behind proto.Dial → Node → (peer Node → Engine) on a
// 2-node ring of real engines and TCP servers, and must come back
// matching errors.Is — from its code, never from its text.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/ingest"
	"repro/internal/kmeans"
	"repro/internal/proto"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// tcpPair is a 2-node unreplicated ring (epoch 3) behind loopback TCP.
// Window 0 holds the lattice of makeData. Stores retain one window and
// ingest queues are one deep, so tests can evict and saturate.
type tcpPair struct {
	engines [2]*server.Engine
	stores  [2]*store.Store
	nodes   [2]*cluster.Node
	servers [2]*proto.Server
	// client is dialed to node 0; local and foreign are positions owned
	// by node 0 and node 1.
	client         *proto.Client
	local, foreign geo.Point
}

func newTCPPair(t *testing.T) *tcpPair {
	t.Helper()
	p := &tcpPair{}
	var lns [2]net.Listener
	var addrs []string
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs = append(addrs, ln.Addr().String())
	}
	cells, err := cluster.Cells(clusterRegion, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := cluster.NewRing(cluster.Desc{Nodes: addrs, Cells: cells, Epoch: 3})
	if err != nil {
		t.Fatal(err)
	}
	dial := func(addr string) (cluster.Transport, error) { return proto.Dial(addr, proto.ServerConfig{}) }
	streams := func(addr string, req wire.Message) (cluster.PushStream, error) {
		return proto.DialStream(addr, proto.ServerConfig{}, req)
	}
	for i := range p.nodes {
		st, err := store.Open(store.Config{WindowLength: windowLen, Retain: 1})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := server.NewMultiEngineOpts(map[tuple.Pollutant]*store.Store{tuple.CO2: st},
			core.Config{Cluster: kmeans.Config{Seed: 7}},
			server.Options{Pipeline: ingest.PipelineConfig{QueueDepth: 1}})
		if err != nil {
			t.Fatal(err)
		}
		node, err := cluster.NewNode(cluster.NodeConfig{
			Ring: ring, Self: i, Local: unbuildable{eng},
			Transports: cluster.LazyTransports(ring, i, dial), Dial: dial, Streams: streams,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := proto.Serve(lns[i], node, proto.ServerConfig{})
		p.stores[i], p.engines[i], p.nodes[i], p.servers[i] = st, eng, node, srv
		t.Cleanup(func() { srv.Close(); node.Close(); eng.Close(); st.Close() })
	}
	data := makeData()
	for _, r := range data {
		switch ring.Owner(tuple.CO2, r.Pos()) {
		case 0:
			p.local = r.Pos()
		case 1:
			p.foreign = r.Pos()
		}
	}
	if err := p.nodes[0].Ingest(context.Background(), tuple.CO2, data); err != nil {
		t.Fatal(err)
	}
	if p.client, err = proto.Dial(addrs[0], proto.ServerConfig{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.client.Close() })
	return p
}

// queuedCtx tells when a TryIngest under it has queued its upload: the
// first thing a queued submission does is wait on its context alongside
// its result, and nothing asks for Done before (a try-submit never waits
// for queue space).
type queuedCtx struct {
	context.Context
	once   sync.Once
	queued chan struct{}
}

func (c *queuedCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.queued) })
	return c.Context.Done()
}

// noCoverT is the query time unbuildable fails at.
const noCoverT = queryT + 1

// unbuildable fronts an engine for the one failure a real window cannot
// be driven into: Ad-KMN regularizes every degenerate window (one tuple,
// coincident points, constant values) into a usable cover, so a query
// at noCoverT is answered with the response the engine sends when a
// build does fail. Everything else is the engine's own.
type unbuildable struct{ *server.Engine }

func (u unbuildable) HandleMessageCtx(ctx context.Context, req wire.Message) wire.Message {
	if q, ok := req.(wire.QueryRequest); ok && q.T == noCoverT {
		return cluster.WireError(fmt.Errorf("%w: injected build failure", query.ErrNoCover))
	}
	return u.Engine.HandleMessageCtx(ctx, req)
}

// saturate wedges node 1's ingest pipeline: an eviction hook parks the
// worker inside the store append (a tuple in window 1 evicts window 0),
// and a second upload fills the one-deep queue behind it. The returned
// release lets both finish.
func (p *tcpPair) saturate(t *testing.T) (release func()) {
	t.Helper()
	gate, parked := make(chan struct{}), make(chan struct{}, 2)
	p.stores[1].OnEvict(func([]int) { parked <- struct{}{}; <-gate })
	done := make(chan error, 2)
	upload := func(ctx context.Context, at float64) {
		b := tuple.Batch{{T: at, X: p.foreign.X, Y: p.foreign.Y, S: 400}}
		go func() { done <- p.engines[1].TryIngest(ctx, tuple.CO2, b) }()
	}
	// The second upload must find the worker already parked, or the two
	// would coalesce into one append and leave the queue empty.
	upload(context.Background(), windowLen+10)
	<-parked
	queued := &queuedCtx{Context: context.Background(), queued: make(chan struct{})}
	upload(queued, windowLen+20)
	select {
	case <-queued.queued:
	case err := <-done:
		t.Fatalf("second upload never queued: %v (%+v)", err, p.engines[1].PipelineStats())
	}
	return func() {
		close(gate)
		for range 2 {
			if err := <-done; err != nil {
				t.Errorf("wedged ingest: %v", err)
			}
		}
	}
}

func TestSentinelsSurviveRealTCP(t *testing.T) {
	q := func(pt geo.Point, at float64, pol tuple.Pollutant) wire.QueryRequest {
		return wire.QueryRequest{T: at, X: pt.X, Y: pt.Y, Pollutant: pol}
	}
	at := func(pt geo.Point, s float64) tuple.Raw { return tuple.Raw{T: queryT, X: pt.X, Y: pt.Y, S: s} }
	cases := []struct {
		name string
		want error
		// prepare breaks the pair in the way the case needs; the cleanup
		// it may return runs after the exchange.
		prepare func(t *testing.T, p *tcpPair) (cleanup func())
		request func(p *tcpPair) wire.Message
	}{
		{name: "out of window", want: query.ErrOutOfWindow,
			request: func(p *tcpPair) wire.Message { return q(p.foreign, 1e9, tuple.CO2) }},
		{name: "no cover", want: query.ErrNoCover,
			request: func(p *tcpPair) wire.Message { return q(p.foreign, noCoverT, tuple.CO2) }},
		{name: "unknown pollutant", want: query.ErrUnknownPollutant,
			request: func(p *tcpPair) wire.Message { return q(p.foreign, queryT, tuple.PM) }},
		{name: "saturated", want: ingest.ErrSaturated,
			prepare: func(t *testing.T, p *tcpPair) func() { return p.saturate(t) },
			request: func(p *tcpPair) wire.Message {
				return wire.IngestRequest{Pollutant: tuple.CO2, Tuples: tuple.Batch{at(p.foreign, 400)}}
			}},
		{name: "invalid batch", want: ingest.ErrInvalidBatch,
			request: func(p *tcpPair) wire.Message {
				return wire.IngestRequest{Pollutant: tuple.CO2, Tuples: tuple.Batch{at(p.foreign, math.NaN())}}
			}},
		{name: "pipeline closed", want: ingest.ErrPipelineClosed,
			prepare: func(t *testing.T, p *tcpPair) func() { p.engines[1].Close(); return nil },
			request: func(p *tcpPair) wire.Message {
				return wire.IngestRequest{Pollutant: tuple.CO2, Tuples: tuple.Batch{at(p.foreign, 400)}}
			}},
		{name: "partial ingest", want: cluster.ErrPartialIngest,
			prepare: func(t *testing.T, p *tcpPair) func() { p.engines[1].Close(); return nil },
			request: func(p *tcpPair) wire.Message {
				return wire.IngestRequest{Pollutant: tuple.CO2, Tuples: tuple.Batch{at(p.local, 400), at(p.foreign, 400)}}
			}},
		{name: "too large", want: cluster.ErrTooLarge,
			request: func(p *tcpPair) wire.Message {
				return wire.HeatmapRequest{T: queryT, Pollutant: tuple.CO2, Cols: 400, Rows: 400}
			}},
		{name: "widest grid", want: cluster.ErrTooLarge, // 65 535² cells overflow a 32-bit int
			request: func(p *tcpPair) wire.Message {
				return wire.HeatmapRequest{T: queryT, Pollutant: tuple.CO2, Cols: math.MaxUint16, Rows: math.MaxUint16}
			}},
		{name: "stale epoch", want: cluster.ErrStaleEpoch,
			request: func(p *tcpPair) wire.Message {
				return wire.Forwarded{Inner: q(p.local, queryT, tuple.CO2), Epoch: 1}
			}},
		{name: "node unreachable", want: cluster.ErrNodeUnreachable,
			prepare: func(t *testing.T, p *tcpPair) func() { p.servers[1].Close(); return nil },
			request: func(p *tcpPair) wire.Message { return q(p.foreign, queryT, tuple.CO2) }},
		{name: "replica miss", want: cluster.ErrReplicaMiss,
			request: func(p *tcpPair) wire.Message {
				return wire.ReplicaRead{Origin: 1, Inner: q(p.foreign, queryT, tuple.CO2)}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newTCPPair(t)
			if tc.prepare != nil {
				if cleanup := tc.prepare(t, p); cleanup != nil {
					defer cleanup()
				}
			}
			resp, err := p.client.Exchange(tc.request(p))
			if err != nil {
				t.Fatal(err)
			}
			er, isErr := resp.(wire.ErrorResponse)
			if !isErr {
				t.Fatalf("got %#v, want an ErrorResponse", resp)
			}
			got := cluster.ErrorFromWire(er.Code, er.Msg)
			if !errors.Is(got, tc.want) {
				t.Fatalf("code %d (%q) does not match %v", er.Code, er.Msg, tc.want)
			}
			if got.Error() != er.Msg {
				t.Errorf("error text %q, want the peer's %q verbatim", got, er.Msg)
			}
			// Exactly one sentinel: a partial ingest caused by a closed
			// owner must not also read as the retryable closed error.
			for _, other := range cases {
				if other.want != tc.want && errors.Is(got, other.want) {
					t.Errorf("%v also matches %v", got, other.want)
				}
			}
		})
	}
}

// TestBatchItemsKeepTheirSentinels: the per-item status byte carries the
// code through the same two hops, and the node's Go surface restores it.
func TestBatchItemsKeepTheirSentinels(t *testing.T) {
	p := newTCPPair(t)
	reqs := []query.Request{
		{T: queryT, X: p.foreign.X, Y: p.foreign.Y},
		{T: 1e9, X: p.foreign.X, Y: p.foreign.Y},
		{T: queryT, X: p.local.X, Y: p.local.Y, Pollutant: tuple.PM},
	}
	want := []error{nil, query.ErrOutOfWindow, query.ErrUnknownPollutant}
	m := wire.BatchQueryRequest{}
	for _, r := range reqs {
		m.Items = append(m.Items, wire.QueryRequest{T: r.T, X: r.X, Y: r.Y, Pollutant: r.Pollutant})
	}
	resp, err := p.client.Exchange(m)
	if err != nil {
		t.Fatal(err)
	}
	br, ok := resp.(wire.BatchQueryResponse)
	if !ok || len(br.Items) != len(want) {
		t.Fatalf("got %#v", resp)
	}
	rs, err := p.nodes[0].QueryBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		it := br.Items[i]
		if w == nil {
			if it.Err != "" || rs[i].Err != nil {
				t.Errorf("item %d failed: %#v / %v", i, it, rs[i].Err)
			}
			continue
		}
		if !errors.Is(cluster.ErrorFromWire(it.Code(), it.Err), w) {
			t.Errorf("item %d over TCP = %#v, want %v", i, it, w)
		}
		if !errors.Is(rs[i].Err, w) {
			t.Errorf("item %d via Node.QueryBatch = %v, want %v", i, rs[i].Err, w)
		}
	}
}

// TestRefusedSubscribeKeepsItsSentinel: an owner that was reached and
// refused a forwarded subscribe is not a dead peer. Its answer comes
// back as the failure it named, verbatim and uncounted; only an owner
// that cannot be dialled is ErrNodeUnreachable.
func TestRefusedSubscribeKeepsItsSentinel(t *testing.T) {
	p := newTCPPair(t)
	// Neither engine monitors PM; the point must sit on a PM shard of
	// node 1 for the subscribe to be forwarded.
	var pt []query.Request
	for _, r := range makeData() {
		if p.nodes[0].Ring().Owner(tuple.PM, r.Pos()) == 1 {
			pt = []query.Request{{T: queryT, X: r.X, Y: r.Y}}
			break
		}
	}
	if pt == nil {
		t.Fatal("no PM shard on node 1")
	}
	_, err := p.nodes[0].Subscribe(context.Background(), tuple.PM, pt)
	if !errors.Is(err, query.ErrUnknownPollutant) || errors.Is(err, cluster.ErrNodeUnreachable) {
		t.Errorf("refused subscribe = %v, want ErrUnknownPollutant and not ErrNodeUnreachable", err)
	}
	if err != nil && err.Error() != query.ErrUnknownPollutant.Error() {
		t.Errorf("refusal text %q, want the owner's %q verbatim", err, query.ErrUnknownPollutant)
	}
	if st := p.nodes[0].Stats(); st.Errors != 0 {
		t.Errorf("a refusal counted as %d transport errors", st.Errors)
	}

	p.servers[1].Close()
	_, err = p.nodes[0].Subscribe(context.Background(), tuple.PM, pt)
	if !errors.Is(err, cluster.ErrNodeUnreachable) || errors.Is(err, query.ErrUnknownPollutant) {
		t.Errorf("subscribe at a closed listener = %v, want ErrNodeUnreachable only", err)
	}
	if st := p.nodes[0].Stats(); st.Errors != 1 {
		t.Errorf("Stats.Errors = %d after one failed dial, want 1", st.Errors)
	}
}
