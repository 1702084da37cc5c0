package bench

// Live-rebalance benchmark (PR 10, BENCH_10.json): a closed-loop
// replicated cluster serves queries through the sharded client while a
// fourth node joins — announce, bootstrap, epoch commit, tail pull —
// and the harness measures what the transition costs the readers: the
// query latency distribution and the error count inside the join
// window. Membership traffic (ring pushes and shard-transfer pulls) is
// slowed by a configurable stall so the join spans many client
// queries, the way a real bootstrap over a network does, without
// slowing the query path itself. The result is self-validating: zero
// query errors during the join, the epoch advanced exactly once on
// every member including the joiner, the joiner owns shards, and every
// sampled answer after the rebalance is byte-equal to the answer
// before it.

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// RebalanceConfig parameterises the live-join benchmark.
type RebalanceConfig struct {
	// Nodes is the starting cluster size; one more joins live.
	Nodes int `json:"nodes"`
	// Replicas is the ring replication factor.
	Replicas int `json:"replicas"`
	// CellsPerSide is the shard grid resolution (CellsPerSide^2 cells).
	CellsPerSide int `json:"cells_per_side"`
	// Queries is the closed-loop query count of the steady phase (the
	// join window runs as many as fit).
	Queries int `json:"queries"`
	// JoinStallMS delays each membership exchange (join announce, ring
	// push, shard-transfer chunk) so the bootstrap spans the query load.
	JoinStallMS int `json:"join_stall_ms"`
	// ConvergeTimeoutS bounds the wait for replica mirrors before the
	// measured run starts.
	ConvergeTimeoutS int `json:"converge_timeout_s"`
	// Seed drives the workload shuffle and the engines' clustering.
	Seed int64 `json:"seed"`
}

// DefaultRebalanceConfig is the committed BENCH_10.json workload:
// small enough for a CI smoke run, stalled enough that the join window
// holds a meaningful latency sample.
func DefaultRebalanceConfig() RebalanceConfig {
	return RebalanceConfig{
		Nodes:            3,
		Replicas:         2,
		CellsPerSide:     8,
		Queries:          256,
		JoinStallMS:      4,
		ConvergeTimeoutS: 60,
		Seed:             1,
	}
}

// RebalanceResult is the BENCH_10.json schema.
type RebalanceResult struct {
	Config RebalanceConfig `json:"config"`

	// Loaded is the tuple count ingested before the measured run.
	Loaded int `json:"loaded_tuples"`
	// EpochBefore/EpochAfter bracket the transition.
	EpochBefore uint64 `json:"epoch_before"`
	EpochAfter  uint64 `json:"epoch_after"`
	// JoinerShards is how many cells the new node owns after the commit.
	JoinerShards int `json:"joiner_shards"`
	// JoinMS is the wall time of the announce-to-committed join.
	JoinMS float64 `json:"join_ms"`

	// Steady phase: closed-loop latency before the join starts.
	SteadyQueries int     `json:"steady_queries"`
	SteadyP50Ms   float64 `json:"steady_p50_ms"`
	SteadyP99Ms   float64 `json:"steady_p99_ms"`

	// Join window: every query issued while the join was in flight.
	JoinQueries int     `json:"join_queries"`
	JoinErrors  int     `json:"join_errors"`
	JoinP50Ms   float64 `json:"join_p50_ms"`
	JoinP99Ms   float64 `json:"join_p99_ms"`

	// Post-join: the same samples re-asked through the client must
	// answer byte-equal to the pre-join owners' answers.
	PostQueries    int `json:"post_queries"`
	PostMismatches int `json:"post_mismatches"`

	// Acceptance booleans (re-checked by the CLI after writing the
	// file).
	ZeroErrorJoin     bool `json:"zero_error_join"`
	EpochAdvancedOnce bool `json:"epoch_advanced_once"`
	JoinerOwnsShards  bool `json:"joiner_owns_shards"`
	AnswersPreserved  bool `json:"answers_preserved"`
}

// rebalCluster is an in-process replicated cluster that can grow: real
// engines, real ring, real binary codec on every hop, with a stall
// injected in front of membership frames so a join has a measurable
// window.
type rebalCluster struct {
	mu      sync.Mutex
	engines []*server.Engine
	nodes   []*cluster.Node
	addrs   []string
	seed    int64
	stallNS atomic.Int64
}

type rebalTransport struct {
	c  *rebalCluster
	to int
}

func (t *rebalTransport) Exchange(req wire.Message) (wire.Message, error) {
	switch req.(type) {
	case wire.JoinRequest, wire.RingUpdate, wire.ShardTransfer, wire.Promote:
		if d := t.c.stallNS.Load(); d > 0 {
			time.Sleep(time.Duration(d))
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
	t.c.mu.Lock()
	node := t.c.nodes[t.to]
	t.c.mu.Unlock()
	resp := node.HandleMessage(decoded)
	respB, err := wire.Binary.Encode(resp)
	if err != nil {
		return nil, err
	}
	return wire.Binary.Decode(respB)
}

func (c *rebalCluster) dialer() cluster.Dialer {
	return func(addr string) (cluster.Transport, error) {
		c.mu.Lock()
		defer c.mu.Unlock()
		for i, a := range c.addrs {
			if a == addr {
				return &rebalTransport{c: c, to: i}, nil
			}
		}
		return nil, fmt.Errorf("unknown address %q", addr)
	}
}

// addNode builds an engine+node pair serving ring as member self.
func (c *rebalCluster) addNode(ring *cluster.Ring, self int) error {
	engine, err := newFailEngine(c.seed)
	if err != nil {
		return err
	}
	mirror := func() cluster.Handler { return newFailMirror(c.seed) }
	// Explicit transports cover the boot-time members; Dial covers
	// nodes that join later.
	transports := make([]cluster.Transport, ring.Nodes())
	for j := range transports {
		if j != self {
			transports[j] = &rebalTransport{c: c, to: j}
		}
	}
	node, err := cluster.NewNode(cluster.NodeConfig{
		Ring:        ring,
		Self:        self,
		Local:       engine,
		Transports:  transports,
		Dial:        c.dialer(),
		Default:     tuple.CO2,
		Replication: cluster.ReplicationConfig{NewMirror: mirror},
	})
	if err != nil {
		engine.Close()
		return err
	}
	c.mu.Lock()
	c.engines = append(c.engines, engine)
	c.nodes = append(c.nodes, node)
	c.mu.Unlock()
	return nil
}

func newRebalCluster(cfg RebalanceConfig) (*rebalCluster, error) {
	cells, err := cluster.Cells(failRegion, cfg.CellsPerSide, 1)
	if err != nil {
		return nil, err
	}
	addrs := make([]string, cfg.Nodes)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("node-%d:8081", i)
	}
	// Epoch 1, not 0: frames routed at epoch 0 are legacy (epoch-
	// agnostic) and are never fenced, so a measured transition must
	// start from a real epoch.
	ring, err := cluster.NewRing(cluster.Desc{Nodes: addrs, Cells: cells, Replicas: cfg.Replicas, Epoch: 1})
	if err != nil {
		return nil, err
	}
	c := &rebalCluster{addrs: addrs, seed: cfg.Seed}
	for i := 0; i < cfg.Nodes; i++ {
		if err := c.addNode(ring, i); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

func (c *rebalCluster) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.nodes {
		n.Close()
	}
	for _, e := range c.engines {
		e.Close()
	}
}

func (c *rebalCluster) node(i int) *cluster.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[i]
}

// waitConverged polls until every sampled shard's replicas answer
// exactly the owner engine's value (same contract as the failover
// bench, against this cluster's growable node set).
func (c *rebalCluster) waitConverged(ring *cluster.Ring, reqs []query.Request, timeout time.Duration) error {
	//ctxcheck:allow the benchmark run is its own root; the poll is deadline-bounded
	ctx := context.Background()
	deadline := time.Now().Add(timeout)
	for {
		lag := ""
	check:
		for _, req := range reqs {
			pt := geo.Point{X: req.X, Y: req.Y}
			owner := ring.Owner(tuple.CO2, pt)
			c.mu.Lock()
			ownerEngine := c.engines[owner]
			c.mu.Unlock()
			want, err := ownerEngine.Query(ctx, req)
			if err != nil {
				return fmt.Errorf("owner %d query: %w", owner, err)
			}
			k := cluster.ShardKey{Pollutant: tuple.CO2, Cell: ring.CellOf(pt)}
			for _, rep := range ring.ReplicasFor(k)[1:] {
				tr := &rebalTransport{c: c, to: rep}
				resp, err := tr.Exchange(wire.ReplicaRead{Origin: uint16(owner),
					Inner: wire.QueryRequest{T: req.T, X: req.X, Y: req.Y, Pollutant: req.Pollutant}})
				if err != nil {
					return err
				}
				if er, isErr := resp.(wire.ErrorResponse); isErr && er.Code == wire.CodeReplicaMiss {
					lag = fmt.Sprintf("replica %d has no usable mirror of %d yet", rep, owner)
					break check
				}
				qr, isQ := resp.(wire.QueryResponse)
				if !isQ || qr.Value != want {
					lag = fmt.Sprintf("replica %d of %d answers %#v, owner answers %v", rep, owner, resp, want)
					break check
				}
			}
		}
		if lag == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas never converged: %s", lag)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// RunRebalance runs the benchmark and returns the self-validated
// result.
func RunRebalance(cfg RebalanceConfig) (*RebalanceResult, error) {
	res := &RebalanceResult{Config: cfg}
	c, err := newRebalCluster(cfg)
	if err != nil {
		return nil, err
	}
	defer c.close()

	data := failData()
	resp := c.node(0).HandleMessage(wire.IngestRequest{Pollutant: tuple.CO2, Tuples: data})
	if ir, ok := resp.(wire.IngestResponse); !ok || int(ir.Ingested) != len(data) {
		return nil, fmt.Errorf("seed ingest failed: %#v", resp)
	}
	res.Loaded = len(data)

	baseRing := c.node(0).Ring()
	res.EpochBefore = baseRing.Epoch()
	var samples []query.Request
	for i := 0; i < len(data); i += 7 {
		samples = append(samples, query.Request{T: failQueryT, X: data[i].X, Y: data[i].Y, Pollutant: tuple.CO2})
	}
	if err := c.waitConverged(baseRing, samples, time.Duration(cfg.ConvergeTimeoutS)*time.Second); err != nil {
		return nil, err
	}

	// The answers the cluster gives before the rebalance are the
	// contract: a join moves shards, it must not move values. The
	// record uses the order-insensitive naive interpolation — a handoff
	// replays the origin's replication log, which may reorder tuples
	// relative to the original upload, and the adaptive cover is
	// insertion-order sensitive while holding exactly the same data.
	//ctxcheck:allow the benchmark run is its own root; bounded by the sample count
	ctx := context.Background()
	naive := query.Options{Kind: query.KindNaive, Radius: 60}
	want := make([]float64, len(samples))
	for i, req := range samples {
		owner := baseRing.Owner(tuple.CO2, geo.Point{X: req.X, Y: req.Y})
		c.mu.Lock()
		ownerEngine := c.engines[owner]
		c.mu.Unlock()
		v, err := ownerEngine.QueryOpts(ctx, req, naive)
		if err != nil {
			return nil, err
		}
		want[i] = v
	}

	sc := client.NewSharded(&rebalTransport{c: c, to: 0}, func(addr string) (client.Transport, error) {
		tr, err := c.dialer()(addr)
		if err != nil {
			return nil, err
		}
		return tr, nil
	})
	defer sc.Close()

	ask := func(req query.Request) (float64, error) {
		out, err := sc.Exchange(wire.QueryRequest{T: req.T, X: req.X, Y: req.Y, Pollutant: req.Pollutant})
		if err != nil {
			return 0, err
		}
		qr, ok := out.(wire.QueryResponse)
		if !ok {
			return 0, fmt.Errorf("query answered %#v", out)
		}
		return qr.Value, nil
	}

	// Steady phase: the latency baseline on the pre-join cluster.
	rng := rand.New(rand.NewSource(cfg.Seed))
	steady := make([]float64, 0, cfg.Queries)
	for q := 0; q < cfg.Queries; q++ {
		req := samples[rng.Intn(len(samples))]
		start := time.Now()
		if _, err := ask(req); err != nil {
			return nil, fmt.Errorf("steady-phase query: %w", err)
		}
		steady = append(steady, float64(time.Since(start).Microseconds())/1000)
	}
	res.SteadyQueries = len(steady)
	res.SteadyP50Ms = percentile(steady, 0.50)
	res.SteadyP99Ms = percentile(steady, 0.99)

	// Join phase: announce and bootstrap the fourth node while the
	// closed loop keeps asking. Membership frames are stalled so the
	// window spans many queries.
	c.stallNS.Store(int64(time.Duration(cfg.JoinStallMS) * time.Millisecond))
	joinerAddr := fmt.Sprintf("node-%d:8081", cfg.Nodes)
	pending, err := cluster.JoinCluster(&rebalTransport{c: c, to: 0}, joinerAddr)
	if err != nil {
		return nil, fmt.Errorf("join announce: %w", err)
	}
	c.mu.Lock()
	c.addrs = append(c.addrs, joinerAddr)
	c.mu.Unlock()
	if err := c.addNode(pending, cfg.Nodes); err != nil {
		return nil, fmt.Errorf("joiner node: %w", err)
	}
	joiner := c.node(cfg.Nodes)

	joinStart := time.Now()
	joinDone := make(chan error, 1) //bounded: exactly one CompleteJoin result; capacity 1 lets the goroutine exit unreceived
	go func() { joinDone <- joiner.CompleteJoin(ctx) }()

	joinLat := make([]float64, 0, cfg.Queries)
	joining := true
	for joining {
		select {
		case err := <-joinDone:
			if err != nil {
				return nil, fmt.Errorf("complete join: %w", err)
			}
			joining = false
		default:
			req := samples[rng.Intn(len(samples))]
			start := time.Now()
			if _, err := ask(req); err != nil {
				res.JoinErrors++
			}
			joinLat = append(joinLat, float64(time.Since(start).Microseconds())/1000)
		}
	}
	res.JoinMS = float64(time.Since(joinStart).Microseconds()) / 1000
	c.stallNS.Store(0)
	res.JoinQueries = len(joinLat)
	res.JoinP50Ms = percentile(joinLat, 0.50)
	res.JoinP99Ms = percentile(joinLat, 0.99)

	// Post-join: epochs, placement, and answers.
	res.EpochAfter = joiner.Ring().Epoch()
	epochsAgree := true
	c.mu.Lock()
	nodes := append([]*cluster.Node(nil), c.nodes...)
	c.mu.Unlock()
	for _, n := range nodes {
		if n.Ring().Epoch() != res.EpochAfter {
			epochsAgree = false
		}
	}
	res.JoinerShards = len(joiner.Ring().OwnedCells(cfg.Nodes, tuple.CO2))
	// Two post-join checks per sample: the client's routed answer must
	// equal the current owner engine's (routing converged), and the
	// current owner's naive answer must equal the pre-join record (no
	// tuple was lost or invented by the handoff).
	joined := joiner.Ring()
	for i, req := range samples {
		res.PostQueries++
		owner := joined.Owner(tuple.CO2, geo.Point{X: req.X, Y: req.Y})
		c.mu.Lock()
		ownerEngine := c.engines[owner]
		c.mu.Unlock()
		direct, err := ownerEngine.Query(ctx, req)
		if err != nil {
			res.PostMismatches++
			continue
		}
		if v, err := ask(req); err != nil || v != direct {
			res.PostMismatches++
			continue
		}
		if nv, err := ownerEngine.QueryOpts(ctx, req, naive); err != nil || nv != want[i] {
			res.PostMismatches++
		}
	}

	res.ZeroErrorJoin = res.JoinErrors == 0 && res.JoinQueries > 0
	res.EpochAdvancedOnce = epochsAgree && res.EpochAfter == res.EpochBefore+1
	res.JoinerOwnsShards = res.JoinerShards > 0
	res.AnswersPreserved = res.PostMismatches == 0
	return res, nil
}

// PrintRebalance renders the benchmark result as a table.
func PrintRebalance(w io.Writer, res *RebalanceResult) {
	fmt.Fprintln(w, "# PR-10: live node join under query load (closed loop)")
	fmt.Fprintf(w, "%d+1 nodes, R=%d, %d tuples, %d steady queries, membership stall +%dms\n",
		res.Config.Nodes, res.Config.Replicas, res.Loaded, res.Config.Queries, res.Config.JoinStallMS)
	fmt.Fprintf(w, "%-28s %12d -> %d\n", "membership epoch", res.EpochBefore, res.EpochAfter)
	fmt.Fprintf(w, "%-28s %12d\n", "joiner shards", res.JoinerShards)
	fmt.Fprintf(w, "%-28s %12.3f\n", "join wall time (ms)", res.JoinMS)
	fmt.Fprintf(w, "%-28s %12.3f\n", "steady p50 (ms)", res.SteadyP50Ms)
	fmt.Fprintf(w, "%-28s %12.3f\n", "steady p99 (ms)", res.SteadyP99Ms)
	fmt.Fprintf(w, "%-28s %12d\n", "queries during join", res.JoinQueries)
	fmt.Fprintf(w, "%-28s %12d\n", "errors during join", res.JoinErrors)
	fmt.Fprintf(w, "%-28s %12.3f\n", "join-window p50 (ms)", res.JoinP50Ms)
	fmt.Fprintf(w, "%-28s %12.3f\n", "join-window p99 (ms)", res.JoinP99Ms)
	fmt.Fprintf(w, "%-28s %12d\n", "post-join sample queries", res.PostQueries)
	fmt.Fprintf(w, "%-28s %12d\n", "post-join mismatches", res.PostMismatches)
	fmt.Fprintf(w, "%-28s %12v\n", "zero-error join", res.ZeroErrorJoin)
	fmt.Fprintf(w, "%-28s %12v\n", "epoch advanced once", res.EpochAdvancedOnce)
	fmt.Fprintf(w, "%-28s %12v\n", "joiner owns shards", res.JoinerOwnsShards)
	fmt.Fprintf(w, "%-28s %12v\n", "answers preserved", res.AnswersPreserved)
}
