package bench

// Failover / hedged-read benchmark (PR 9, BENCH_9.json): a closed-loop
// 3-node replicated cluster in one process. Phase one kills a node
// under mixed load and requires ZERO failed queries and ZERO answer
// mismatches on the dead node's shards — the availability contract the
// replicas buy. Phase two injects a fixed delay in front of one
// primary and compares the sharded client's query latency with hedging
// off and on; the hedge probe racing the replica must pull p99 back
// down. The result is self-validating: the booleans it carries are the
// acceptance criteria.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/kmeans"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/subs"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// FailoverConfig parameterises the failover/hedging benchmark.
type FailoverConfig struct {
	// Nodes is the cluster size (fixed at 3: one victim, one replica
	// holder, one router-side survivor).
	Nodes int `json:"nodes"`
	// Replicas is the ring replication factor.
	Replicas int `json:"replicas"`
	// CellsPerSide is the shard grid resolution (CellsPerSide^2 cells).
	CellsPerSide int `json:"cells_per_side"`
	// Queries is the closed-loop query count per phase.
	Queries int `json:"queries"`
	// SlowPrimaryMS is the delay injected in front of the slow primary
	// during the hedging phase, in milliseconds.
	SlowPrimaryMS int `json:"slow_primary_ms"`
	// HedgeFloorMS bounds the hedge delay from below, in milliseconds.
	HedgeFloorMS int `json:"hedge_floor_ms"`
	// ConvergeTimeoutS bounds the wait for replica mirrors to reach
	// byte-equality with their primaries before measuring.
	ConvergeTimeoutS int `json:"converge_timeout_s"`
	// Seed drives the workload shuffle and the engines' clustering.
	Seed int64 `json:"seed"`
}

// DefaultFailoverConfig is the committed BENCH_9.json workload: small
// enough for a CI smoke run, large enough that every node's shards are
// exercised in both phases.
func DefaultFailoverConfig() FailoverConfig {
	return FailoverConfig{
		Nodes:            3,
		Replicas:         2,
		CellsPerSide:     8,
		Queries:          256,
		SlowPrimaryMS:    8,
		HedgeFloorMS:     1,
		ConvergeTimeoutS: 60,
		Seed:             1,
	}
}

// FailoverResult is the BENCH_9.json schema.
type FailoverResult struct {
	Config FailoverConfig `json:"config"`

	// Loaded is the tuple count ingested before the kill.
	Loaded int `json:"loaded_tuples"`
	// Victim is the node killed in the failover phase.
	Victim int `json:"victim_node"`

	// Failover phase: every query must succeed and every answer on the
	// victim's shards must be byte-equal to the answer its engine gave
	// before dying.
	QueriesAfterKill   int   `json:"queries_after_kill"`
	VictimShardQueries int   `json:"victim_shard_queries"`
	FailedAfterKill    int   `json:"failed_after_kill"`
	Mismatches         int   `json:"mismatches"`
	IngestsAfterKill   int   `json:"ingests_after_kill"`
	IngestFailures     int   `json:"ingest_failures"`
	ClientFailovers    int64 `json:"client_failovers"`

	// Hedging phase: closed-loop latency against a slow primary, hedging
	// off then on.
	UnhedgedP50Ms float64 `json:"unhedged_p50_ms"`
	UnhedgedP99Ms float64 `json:"unhedged_p99_ms"`
	HedgedP50Ms   float64 `json:"hedged_p50_ms"`
	HedgedP99Ms   float64 `json:"hedged_p99_ms"`
	HedgeProbes   int64   `json:"hedge_probes"`
	HedgeWins     int64   `json:"hedge_wins"`

	// Acceptance booleans (re-checked by the CLI after writing the
	// file): zero 502s on the dead node's shards, byte-equal replica
	// answers, and a hedged p99 no worse than the unhedged one.
	ZeroErrorFailover bool `json:"zero_error_failover"`
	ByteEqualReplicas bool `json:"byte_equal_replicas"`
	HedgeP99Improved  bool `json:"hedged_p99_le_unhedged"`
}

// failCluster is an in-process replicated cluster: real engines, real
// ring, real binary codec on every hop, with a per-node kill switch and
// injectable latency standing in for a dead or slow network peer.
type failCluster struct {
	ring    *cluster.Ring
	engines []*server.Engine
	nodes   []*cluster.Node
	dead    []atomic.Bool
	delayNS []atomic.Int64
}

type failTransport struct {
	c  *failCluster
	to int
}

func (t *failTransport) Exchange(req wire.Message) (wire.Message, error) {
	if d := t.c.delayNS[t.to].Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	if t.c.dead[t.to].Load() {
		return nil, fmt.Errorf("node %d is down", t.to)
	}
	reqB, err := wire.Binary.Encode(req)
	if err != nil {
		return nil, err
	}
	decoded, err := wire.Binary.Decode(reqB)
	if err != nil {
		return nil, err
	}
	resp := t.c.nodes[t.to].HandleMessage(decoded)
	respB, err := wire.Binary.Encode(resp)
	if err != nil {
		return nil, err
	}
	return wire.Binary.Decode(respB)
}

const (
	failWindowLen = 3600.0
	failQueryT    = 1800.0
)

var failRegion = geo.Rect{Min: geo.Point{X: -2000, Y: -2000}, Max: geo.Point{X: 2000, Y: 2000}}

func newFailEngine(seed int64) (*server.Engine, error) {
	st := store.MustOpenMemory(failWindowLen)
	return server.NewMultiEngine(map[tuple.Pollutant]*store.Store{tuple.CO2: st},
		core.Config{Cluster: kmeans.Config{Seed: seed}})
}

// newFailMirror is the clusters' mirror factory: the product's lazy
// mirror engine with newFailEngine's window and model seed.
func newFailMirror(seed int64) cluster.Handler {
	e, err := server.NewMirrorEngine([]tuple.Pollutant{tuple.CO2}, failWindowLen, 0,
		core.Config{Cluster: kmeans.Config{Seed: seed}}, subs.Config{})
	if err != nil {
		panic(fmt.Sprintf("bench: mirror engine: %v", err))
	}
	return e
}

func newFailCluster(cfg FailoverConfig) (*failCluster, error) {
	cells, err := cluster.Cells(failRegion, cfg.CellsPerSide, 1)
	if err != nil {
		return nil, err
	}
	addrs := make([]string, cfg.Nodes)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("node-%d:8081", i)
	}
	ring, err := cluster.NewRing(cluster.Desc{Nodes: addrs, Cells: cells, Replicas: cfg.Replicas})
	if err != nil {
		return nil, err
	}
	c := &failCluster{
		ring:    ring,
		dead:    make([]atomic.Bool, cfg.Nodes),
		delayNS: make([]atomic.Int64, cfg.Nodes),
	}
	for i := 0; i < cfg.Nodes; i++ {
		e, err := newFailEngine(cfg.Seed)
		if err != nil {
			c.close()
			return nil, err
		}
		c.engines = append(c.engines, e)
	}
	mirror := func() cluster.Handler { return newFailMirror(cfg.Seed) }
	for i := 0; i < cfg.Nodes; i++ {
		transports := make([]cluster.Transport, cfg.Nodes)
		for j := range transports {
			if j != i {
				transports[j] = &failTransport{c: c, to: j}
			}
		}
		node, err := cluster.NewNode(cluster.NodeConfig{
			Ring:        ring,
			Self:        i,
			Local:       c.engines[i],
			Transports:  transports,
			Default:     tuple.CO2,
			Replication: cluster.ReplicationConfig{NewMirror: mirror},
		})
		if err != nil {
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, node)
	}
	return c, nil
}

func (c *failCluster) close() {
	for _, n := range c.nodes {
		n.Close()
	}
	for _, e := range c.engines {
		e.Close()
	}
}

// failData lays the deterministic lattice from the cluster tests over
// the region: value is a linear field of position, timestamps spread
// through window 0, so every answer is predictable and stable.
func failData() tuple.Batch {
	var b tuple.Batch
	i := 0
	for x := -1900.0; x <= 1900; x += 200 {
		for y := -1900.0; y <= 1900; y += 200 {
			t := 100 + float64(i%330)*10
			b = append(b, tuple.Raw{T: t, X: x, Y: y, S: 400 + 0.01*x + 0.02*y})
			i++
		}
	}
	return b
}

// waitFailConverged polls until every sampled shard's replicas answer
// exactly the owner engine's value, i.e. the replication streams (and
// any catch-up pulls) have fully drained.
func (c *failCluster) waitConverged(reqs []query.Request, timeout time.Duration) error {
	//ctxcheck:allow the benchmark run is its own root; the poll is deadline-bounded
	ctx := context.Background()
	deadline := time.Now().Add(timeout)
	for {
		lag := ""
	check:
		for _, req := range reqs {
			pt := geo.Point{X: req.X, Y: req.Y}
			owner := c.ring.Owner(tuple.CO2, pt)
			want, err := c.engines[owner].Query(ctx, req)
			if err != nil {
				return fmt.Errorf("owner %d query: %w", owner, err)
			}
			k := cluster.ShardKey{Pollutant: tuple.CO2, Cell: c.ring.CellOf(pt)}
			for _, rep := range c.ring.ReplicasFor(k)[1:] {
				tr := &failTransport{c: c, to: rep}
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

func failDialer(c *failCluster) client.Dialer {
	return func(addr string) (client.Transport, error) {
		for i := 0; i < c.ring.Nodes(); i++ {
			if c.ring.Addr(i) == addr {
				return &failTransport{c: c, to: i}, nil
			}
		}
		return nil, fmt.Errorf("unknown address %q", addr)
	}
}

// RunFailover runs both phases on fresh clusters and returns the
// self-validated result.
func RunFailover(cfg FailoverConfig) (*FailoverResult, error) {
	res := &FailoverResult{Config: cfg}
	if err := runFailoverKill(cfg, res); err != nil {
		return nil, fmt.Errorf("failover phase: %w", err)
	}
	if err := runFailoverHedge(cfg, res); err != nil {
		return nil, fmt.Errorf("hedging phase: %w", err)
	}
	res.ZeroErrorFailover = res.FailedAfterKill == 0 && res.IngestFailures == 0 &&
		res.VictimShardQueries > 0 && res.ClientFailovers > 0
	res.ByteEqualReplicas = res.Mismatches == 0
	res.HedgeP99Improved = res.HedgedP99Ms <= res.UnhedgedP99Ms && res.HedgeWins > 0
	return res, nil
}

// runFailoverKill is phase one: load, converge, record the owners'
// answers, kill a node, then drive a mixed read/write closed loop
// through the sharded client. Reads on the dead node's shards must all
// succeed byte-equal from its replica; writes (which never fail over)
// keep landing on the surviving owners.
func runFailoverKill(cfg FailoverConfig, res *FailoverResult) error {
	c, err := newFailCluster(cfg)
	if err != nil {
		return err
	}
	defer c.close()
	//ctxcheck:allow the benchmark run is its own root; bounded by cfg.Queries
	ctx := context.Background()

	data := failData()
	resp := c.nodes[0].HandleMessage(wire.IngestRequest{Pollutant: tuple.CO2, Tuples: data})
	if ir, ok := resp.(wire.IngestResponse); !ok || int(ir.Ingested) != len(data) {
		return fmt.Errorf("seed ingest failed: %#v", resp)
	}
	res.Loaded = len(data)

	var samples []query.Request
	for i := 0; i < len(data); i += 7 {
		samples = append(samples, query.Request{T: failQueryT, X: data[i].X, Y: data[i].Y, Pollutant: tuple.CO2})
	}
	if err := c.waitConverged(samples, time.Duration(cfg.ConvergeTimeoutS)*time.Second); err != nil {
		return err
	}

	// The answers the owners give while alive are the contract the
	// replicas must honour after the kill.
	want := make([]float64, len(samples))
	owners := make([]int, len(samples))
	for i, req := range samples {
		owners[i] = c.ring.Owner(tuple.CO2, geo.Point{X: req.X, Y: req.Y})
		v, err := c.engines[owners[i]].Query(ctx, req)
		if err != nil {
			return err
		}
		want[i] = v
	}

	sc := client.NewSharded(&failTransport{c: c, to: 0}, failDialer(c))
	defer sc.Close()
	// Warm the client's ring before the node disappears.
	s0 := samples[0]
	if _, err := sc.Exchange(wire.QueryRequest{T: s0.T, X: s0.X, Y: s0.Y, Pollutant: s0.Pollutant}); err != nil {
		return err
	}

	const victim = 2
	res.Victim = victim
	c.dead[victim].Store(true)

	// Survivor-owned write load interleaved with the reads: writes never
	// fail over (primary-commits design), so the mixed load mirrors what
	// an operator sees mid-outage — reads whole, writes on live shards.
	var liveWrites tuple.Batch
	for _, r := range data {
		if c.ring.Owner(tuple.CO2, r.Pos()) != victim {
			liveWrites = append(liveWrites, r)
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	for q := 0; q < cfg.Queries; q++ {
		i := rng.Intn(len(samples))
		req := samples[i]
		res.QueriesAfterKill++
		if owners[i] == victim {
			res.VictimShardQueries++
		}
		out, err := sc.Exchange(wire.QueryRequest{T: req.T, X: req.X, Y: req.Y, Pollutant: req.Pollutant})
		if err != nil {
			res.FailedAfterKill++
			continue
		}
		qr, ok := out.(wire.QueryResponse)
		if !ok {
			res.FailedAfterKill++
			continue
		}
		// The victim's shards are frozen mid-outage (writes never fail
		// over), so its replica must answer exactly what the owner
		// answered before dying. Survivor shards keep absorbing the
		// write load, so only success is required there.
		if owners[i] == victim && qr.Value != want[i] {
			res.Mismatches++
		}
		if q%8 == 7 {
			w := liveWrites[rng.Intn(len(liveWrites))]
			res.IngestsAfterKill++
			wr := c.nodes[0].HandleMessage(wire.IngestRequest{Pollutant: tuple.CO2, Tuples: tuple.Batch{w}})
			if _, ok := wr.(wire.IngestResponse); !ok {
				res.IngestFailures++
			}
		}
	}
	res.ClientFailovers = sc.Stats().Failovers
	return nil
}

// runFailoverHedge is phase two: a healthy cluster with one slow
// primary. The same closed loop runs twice — hedging off, hedging on —
// and records the latency distributions.
func runFailoverHedge(cfg FailoverConfig, res *FailoverResult) error {
	c, err := newFailCluster(cfg)
	if err != nil {
		return err
	}
	defer c.close()

	data := failData()
	resp := c.nodes[0].HandleMessage(wire.IngestRequest{Pollutant: tuple.CO2, Tuples: data})
	if ir, ok := resp.(wire.IngestResponse); !ok || int(ir.Ingested) != len(data) {
		return fmt.Errorf("seed ingest failed: %#v", resp)
	}
	var samples []query.Request
	for i := 0; i < len(data); i += 7 {
		samples = append(samples, query.Request{T: failQueryT, X: data[i].X, Y: data[i].Y, Pollutant: tuple.CO2})
	}
	if err := c.waitConverged(samples, time.Duration(cfg.ConvergeTimeoutS)*time.Second); err != nil {
		return err
	}

	const slowNode = 0
	run := func(hedge bool) ([]float64, error) {
		sc := client.NewSharded(&failTransport{c: c, to: 1}, failDialer(c))
		defer sc.Close()
		sc.SetHedging(hedge)
		sc.SetHedgeFloor(time.Duration(cfg.HedgeFloorMS) * time.Millisecond)
		// Warm the client's latency window on the healthy cluster, so the
		// p99-derived hedge delay reflects steady state rather than the
		// injected fault, then slow the primary for the measured loop.
		c.delayNS[slowNode].Store(0)
		for i := 0; i < 32; i++ {
			req := samples[i%len(samples)]
			if _, err := sc.Exchange(wire.QueryRequest{T: req.T, X: req.X, Y: req.Y, Pollutant: req.Pollutant}); err != nil {
				return nil, err
			}
		}
		c.delayNS[slowNode].Store(int64(time.Duration(cfg.SlowPrimaryMS) * time.Millisecond))
		rng := rand.New(rand.NewSource(cfg.Seed + 2))
		lat := make([]float64, 0, cfg.Queries)
		for q := 0; q < cfg.Queries; q++ {
			req := samples[rng.Intn(len(samples))]
			start := time.Now()
			out, err := sc.Exchange(wire.QueryRequest{T: req.T, X: req.X, Y: req.Y, Pollutant: req.Pollutant})
			if err != nil {
				return nil, err
			}
			if _, ok := out.(wire.QueryResponse); !ok {
				return nil, fmt.Errorf("query answered %#v", out)
			}
			lat = append(lat, float64(time.Since(start).Microseconds())/1000)
		}
		if hedge {
			st := sc.Stats()
			res.HedgeProbes = st.Hedged
			res.HedgeWins = st.HedgeWins
		}
		return lat, nil
	}

	unhedged, err := run(false)
	if err != nil {
		return err
	}
	hedged, err := run(true)
	if err != nil {
		return err
	}
	res.UnhedgedP50Ms = percentile(unhedged, 0.50)
	res.UnhedgedP99Ms = percentile(unhedged, 0.99)
	res.HedgedP50Ms = percentile(hedged, 0.50)
	res.HedgedP99Ms = percentile(hedged, 0.99)
	return nil
}

// PrintFailover renders the benchmark result as a table.
func PrintFailover(w io.Writer, res *FailoverResult) {
	fmt.Fprintln(w, "# PR-9: replica failover + hedged reads (closed loop)")
	fmt.Fprintf(w, "%d nodes, R=%d, %d tuples, %d queries/phase, slow primary +%dms\n",
		res.Config.Nodes, res.Config.Replicas, res.Loaded, res.Config.Queries, res.Config.SlowPrimaryMS)
	fmt.Fprintf(w, "%-28s %12d\n", "queries after kill", res.QueriesAfterKill)
	fmt.Fprintf(w, "%-28s %12d\n", "on dead node's shards", res.VictimShardQueries)
	fmt.Fprintf(w, "%-28s %12d\n", "failed after kill", res.FailedAfterKill)
	fmt.Fprintf(w, "%-28s %12d\n", "replica answer mismatches", res.Mismatches)
	fmt.Fprintf(w, "%-28s %12d\n", "ingests after kill", res.IngestsAfterKill)
	fmt.Fprintf(w, "%-28s %12d\n", "ingest failures", res.IngestFailures)
	fmt.Fprintf(w, "%-28s %12d\n", "client failovers", res.ClientFailovers)
	fmt.Fprintf(w, "%-28s %12.3f\n", "unhedged p50 (ms)", res.UnhedgedP50Ms)
	fmt.Fprintf(w, "%-28s %12.3f\n", "unhedged p99 (ms)", res.UnhedgedP99Ms)
	fmt.Fprintf(w, "%-28s %12.3f\n", "hedged p50 (ms)", res.HedgedP50Ms)
	fmt.Fprintf(w, "%-28s %12.3f\n", "hedged p99 (ms)", res.HedgedP99Ms)
	fmt.Fprintf(w, "%-28s %12d\n", "hedge probes", res.HedgeProbes)
	fmt.Fprintf(w, "%-28s %12d\n", "hedge wins", res.HedgeWins)
	fmt.Fprintf(w, "%-28s %12v\n", "zero-error failover", res.ZeroErrorFailover)
	fmt.Fprintf(w, "%-28s %12v\n", "byte-equal replicas", res.ByteEqualReplicas)
	fmt.Fprintf(w, "%-28s %12v\n", "hedged p99 <= unhedged", res.HedgeP99Improved)
}
