// Package repro is EnviroMeter: a platform for querying community-sensed
// data, reproducing Sathe, Oviedo, Chakraborty and Aberer, "EnviroMeter: A
// Platform for Querying Community-Sensed Data", PVLDB 6(12), 2013.
//
// The platform ingests raw sensor tuples from a large-area community-driven
// sensor network (pollution sensors on public-transport buses), maintains
// an adaptive multi-model abstraction over each time window (the Ad-KMN
// model cover) per monitored pollutant, and answers point and continuous
// pollution queries by evaluating the nearest region model — orders of
// magnitude faster and smaller than querying indexed raw data. A
// model-cache wire protocol ships whole covers to mobile clients so they
// answer queries locally.
//
// Quick start (the v1 query API):
//
//	p, err := repro.Open(repro.Config{
//		WindowSeconds: 4 * 3600,
//		Pollutants:    []repro.Pollutant{repro.CO2, repro.CO},
//	})
//	...
//	err = p.Ingest(ctx, repro.CO2, readings)  // raw (t, x, y, s) tuples
//	v, err := p.Query(ctx, repro.Request{T: t, X: x, Y: y, Pollutant: repro.CO2})
//	rs, err := p.QueryBatch(ctx, reqs)        // many requests, one call,
//	                                          // per-item errors
//	http.ListenAndServe(addr, p.Handler())    // the web/JSON API
//
// Failures carry a typed taxonomy — ErrNoCover, ErrOutOfWindow,
// ErrUnknownPollutant — matched with errors.Is. A query is always
// answered from the model cover; deadlines and cancellation arrive
// through the context.
//
// Setting Config.Cluster makes the platform one member of a sharded
// multi-node cluster: tuples and queries partition by (pollutant,
// geo-cell) shard keys on a consistent-hash ring, and every platform
// routes requests it does not own to the node that does.
//
// The deeper layers (spatial indexes, k-means, regression, wire codecs,
// the shard ring, the simulated deployment) live in internal/ packages;
// this package re-exports the surface a downstream user needs. See
// docs/ARCHITECTURE.md for how a tuple travels through those layers and
// docs/OPERATIONS.md for running the server.
package repro

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/geo"
	"repro/internal/heatmap"
	"repro/internal/ingest"
	"repro/internal/proto"
	"repro/internal/query"
	"repro/internal/regress"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/subs"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// Reading is one raw sensor tuple b = (t, x, y, s): stream time in
// seconds, local-frame position in meters, and the sensed value.
type Reading = tuple.Raw

// Pollutant identifies a sensed phenomenon (CO2, CO, PM).
type Pollutant = tuple.Pollutant

// Pollutants supported by the platform.
const (
	CO2 = tuple.CO2
	CO  = tuple.CO
	PM  = tuple.PM
)

// ParsePollutant resolves a pollutant from its abbreviation ("co2",
// "CO", "pm"), case-insensitively.
func ParsePollutant(s string) (Pollutant, error) { return tuple.ParsePollutant(s) }

// Request is one v1 query: interpolate Pollutant at (X, Y) and stream
// time T. The zero Pollutant is CO2.
type Request = query.Request

// BatchResult is one request's outcome within a QueryBatch: its value,
// or the error that request (alone) failed with.
type BatchResult = query.BatchResult

// The v1 error taxonomy, matched with errors.Is.
var (
	// ErrNoCover: the window has data but no model cover could be built.
	ErrNoCover = query.ErrNoCover
	// ErrOutOfWindow: the query time lies outside the retained data.
	ErrOutOfWindow = query.ErrOutOfWindow
	// ErrUnknownPollutant: the pollutant is invalid or not monitored.
	ErrUnknownPollutant = query.ErrUnknownPollutant
	// ErrIngestSaturated: the pollutant's ingest queue is full and the
	// overflow policy sheds load (the HTTP API's 429).
	ErrIngestSaturated = ingest.ErrSaturated
	// ErrClosed: the platform (or its engine) has been closed; the write
	// path refuses new work.
	ErrClosed = server.ErrEngineClosed
	// ErrNodeUnreachable: a shard's owner node is down; requests for its
	// shards fail until it returns (the HTTP API's 502). On a replicated
	// cluster (ClusterConfig.Replicas > 1) reads fail over to replicas
	// first, so this surfaces only when a shard's whole replica set is
	// down.
	ErrNodeUnreachable = cluster.ErrNodeUnreachable
	// ErrPartialResult: a replicated cluster assembled a scatter-gather
	// answer (heatmap, model cover) without some dead node's shards — no
	// live replica could stand in. The value is returned alongside this
	// error; errors.As against *cluster.PartialError recovers which
	// nodes are dead and how many shards are stale.
	ErrPartialResult = cluster.ErrPartialResult
)

// SyncPolicy selects when durable appends reach stable storage; build
// one with SyncEveryBatch or SyncNever.
type SyncPolicy = store.SyncPolicy

// SyncEveryBatch fsyncs every appended batch before acknowledging it —
// the default whenever Config.Dir is set.
func SyncEveryBatch() SyncPolicy { return store.SyncEveryBatch() }

// SyncNever acknowledges durable appends on write and leaves flushing to
// the OS — the platform's historical (weakest, fastest) guarantee.
func SyncNever() SyncPolicy { return store.SyncNever() }

// PipelineConfig tunes the asynchronous ingest pipeline: per-pollutant
// queue depth and upload coalescing. A full queue makes Platform.Ingest
// wait for space; the HTTP and wire ingest endpoints — and every ingest
// on a clustered platform (see Platform.Ingest) — shed instead, failing
// fast with ErrIngestSaturated.
type PipelineConfig = ingest.PipelineConfig

// SchedulerConfig tunes the background cover-maintenance scheduler.
// Workers < 0 disables it, leaving every cover build on the query path.
type SchedulerConfig = core.SchedulerConfig

// SubscriptionStats counts the push-subscription registry's work:
// active subscriptions, invalidation matches, re-evaluations avoided,
// and push/drop/resync totals.
type SubscriptionStats = subs.Stats

// Subscription is a live push subscription: a channel of events plus a
// snapshot/close surface. Closing it is the one way to end it; the
// platform also closes it (ending the event channel) at shutdown.
type Subscription = *subs.Feed

// SubscriptionEvent is one pushed event: a delta of changed points, a
// full resync of the whole vector, or a subscription-level error.
type SubscriptionEvent = subs.Event

// SubscriptionPoint is one point's value (or error) within a pushed
// event, indexed into the subscribed point set.
type SubscriptionPoint = subs.PointValue

// CheckpointConfig tunes durability checkpoints: Interval > 0 enables
// periodic checkpoints (and a final one at Close); KeepSegments spares
// the newest N checkpoint-covered segment files from each compaction.
type CheckpointConfig = server.CheckpointConfig

// CheckpointStats aggregates checkpoint/compaction activity and the
// last restart's recovery path across every pollutant's store.
type CheckpointStats = server.CheckpointStats

// ColumnarConfig configures how checkpoint files are read: DisableMmap
// forces plain pread file access. Enabled is ignored (every checkpoint is
// a column-block file) and kept only because the frozen end-to-end
// benchmark sets it.
type ColumnarConfig = store.ColumnarConfig

// ColumnarStats counts the checkpoint files' work across every
// pollutant's store: files and blocks written, windows served from the
// file, window bases decoded for a read (lost ones apart), zone-map
// prunes, and mmap vs pread reads.
type ColumnarStats = store.ColumnarStats

// PipelineStats counts the ingest pipeline's work.
type PipelineStats = ingest.PipelineStats

// SchedulerStats counts the cover-maintenance scheduler's work.
type SchedulerStats = core.SchedulerStats

// Cover is a model cover: the (t_n, µ, M) triple of §2.1.
type Cover = core.Cover

// AdKMNConfig tunes the adaptive model-cover construction.
type AdKMNConfig = core.Config

// ModelResponse is the wire form of a cover, as served to model-cache
// clients.
type ModelResponse = wire.ModelResponse

// CO2Band classifies a concentration for display (OSHA-anchored).
type CO2Band = eval.CO2Band

// LatLon is a WGS84 coordinate; Point is a local metric position; Rect
// is an axis-aligned box in the local frame.
type (
	LatLon = geo.LatLon
	Point  = geo.Point
	Rect   = geo.Rect
)

// ClusterStats counts a cluster node's routing activity (requests
// answered locally, forwarded, scatter-gathered, failed over).
type ClusterStats = cluster.Stats

// ClusterConfig makes the platform one member of a sharded serving
// cluster: raw tuples and queries partition across nodes by
// (pollutant, geo-cell) shard keys on a consistent-hash ring. All
// nodes must be configured with identical Nodes/Cells/VNodes/Region/
// Seed so they derive the same ring.
type ClusterConfig struct {
	// Nodes lists every node's TCP wire address; a node's index here is
	// its ID, and an empty list disables clustering.
	Nodes []string
	// NodeID is this process's index in Nodes (ignored with Router).
	NodeID int
	// Router makes this process a dedicated query router: it owns no
	// shards and forwards/scatters everything.
	Router bool
	// Cells is the number of geo cells partitioning the region
	// (default 16). More cells spread load more evenly; fewer keep
	// shard-local covers larger.
	Cells int
	// VNodes is the consistent-hash virtual-node multiplier (default 64).
	VNodes int
	// Region is the deployment region the cells partition. The zero
	// value covers the simulated Lausanne corridor; set it to your
	// data's bounding box (identically on every node) for other
	// deployments. Positions outside the region still shard — they
	// belong to the nearest cell — but coarsely.
	Region Rect
	// Seed makes the k-means cell partition deterministic (default 1).
	Seed int64
	// Replicas is the replication factor R: every shard lives on its
	// owner plus the owner's R-1 mirrors — the next R-1 live node IDs
	// after it, wrapping — which mirror the owner's committed ingests
	// and answer its shards when it dies. 0 and 1 both mean unreplicated
	// (the pre-replication behavior). Every node of a ring must place
	// replicas by the same rule: upgrade a ring's nodes together.
	Replicas int
	// Join, when non-empty, is the wire address of any live member of
	// an existing cluster. Instead of deriving the ring from Nodes/
	// Cells/VNodes/Region/Seed (all ignored), the platform announces
	// Advertise to that seed and builds its node on the returned
	// next-epoch ring. The join is not visible to the rest of the
	// cluster until Platform.CompleteJoin bootstraps the gained shards
	// and commits the epoch — call it after ListenTCP so peers can
	// reach this node the moment the commit lands.
	Join string
	// Advertise is this node's own wire address exactly as peers
	// should dial it (required with Join; normally the ListenTCP
	// address with a routable host).
	Advertise string
}

// Config configures a Platform.
type Config struct {
	// WindowSeconds is the modeling window length H in stream seconds.
	// Covers are rebuilt per window and expire at the window edge.
	WindowSeconds float64
	// Pollutants lists the monitored pollutants; each gets its own store
	// and model covers, and with Dir set each persists into its own
	// subdirectory. Empty means
	// single-pollutant, monitoring AdKMN.Pollutant (CO2 by default) with
	// the flat pre-v1 durable layout.
	Pollutants []Pollutant
	// Dir, when non-empty, makes ingestion durable: appended batches are
	// persisted to checksummed segment files and recovered on reopen.
	// With several pollutants, each persists into its own subdirectory.
	Dir string
	// Sync selects when durable appends reach stable storage (used only
	// with Dir). The zero value is SyncEveryBatch(): one fsync per store
	// append, which the ingest pipeline's coalescing shares between the
	// uploads queued behind it; SyncNever trades crash safety for
	// throughput.
	Sync SyncPolicy
	// IngestQueue tunes the asynchronous ingest pipeline's bounded
	// per-pollutant queues. The zero value queues 64 deep; one coalesced
	// append carries at most 4096 tuples.
	IngestQueue PipelineConfig
	// Maintenance tunes the background cover-maintenance scheduler that
	// rebuilds, off the query path, the covers readers hold when a write
	// invalidates them; until a window's rebuild is installed its
	// previous cover keeps answering (see WaitMaintenance). A window
	// nobody has read is not modeled on a write: its first reader builds
	// its cover. The zero value runs 2 build workers over a 128-entry
	// build queue; Workers < 0 disables background builds: a write then
	// drops the touched covers at once and the next read rebuilds them
	// (read-your-writes).
	Maintenance SchedulerConfig
	// Checkpoint bounds recovery time and disk growth (used only with
	// Dir): with Interval > 0 every store periodically — and at Close —
	// persists its retained windows to a checkpoint file and deletes
	// the segment files behind it, so a restart replays only the
	// post-checkpoint suffix. KeepSegments spares the newest N covered
	// segments per compaction. The zero value takes no automatic
	// checkpoints; Platform.Checkpoint still works.
	Checkpoint CheckpointConfig
	// Columnar (used only with Dir) configures how a restart reads the
	// checkpoint it recovers from. Checkpointed windows stay in the file
	// until something reads them: analytical scans — cover builds,
	// heatmaps, window reads — decode sorted, zone-mapped blocks on
	// demand, through mmap unless DisableMmap is set.
	Columnar ColumnarConfig
	// Retain bounds in-memory windows (0 = keep all).
	Retain int
	// AdKMN tunes the model cover construction; the zero value uses the
	// paper's defaults (k0 = 2, τn = 2%, linear regression models).
	AdKMN AdKMNConfig
	// Cluster, when Cluster.Nodes is non-empty, makes this platform one
	// member (or, with Cluster.Router, a dedicated router) of a sharded
	// serving cluster: queries and ingest route to shard owners over
	// the wire protocol, heatmaps and model covers scatter-gather, and
	// the HTTP API gains /v1/cluster.
	Cluster ClusterConfig
}

// pollutants resolves the monitored set, preserving config order.
func (cfg Config) pollutants() []Pollutant {
	if len(cfg.Pollutants) == 0 {
		return []Pollutant{cfg.AdKMN.Pollutant}
	}
	return cfg.Pollutants
}

// storeDir returns the segment directory of one pollutant's store. An
// explicit Pollutants list — even of one — namespaces per pollutant;
// only the implicit-single-pollutant config keeps the flat layout, so
// pre-v1 durable directories recover unchanged.
func (cfg Config) storeDir(p Pollutant) string {
	if cfg.Dir == "" {
		return ""
	}
	if len(cfg.Pollutants) == 0 {
		return cfg.Dir // legacy flat layout
	}
	return filepath.Join(cfg.Dir, p.String())
}

// Platform is the EnviroMeter server-side platform: per-pollutant
// storage, adaptive modeling, and query processing behind one handle. It
// is safe for concurrent use.
type Platform struct {
	engine *server.Engine
	api    *server.API
	// backend answers the data methods and the TCP listener, as it does
	// the HTTP handlers: the engine on a single node, the cluster node
	// when clustered. Open chooses it once.
	backend server.Backend
	node    *cluster.Node // nil when not clustered; lifecycle only
	// joining marks a node built from ClusterConfig.Join whose epoch
	// has not been committed yet (CompleteJoin pending).
	joining    bool
	pollutants []Pollutant
	stores     map[Pollutant]*store.Store
}

// Open creates a platform (recovering durable state if Config.Dir is set).
func Open(cfg Config) (*Platform, error) {
	pollutants := cfg.pollutants()
	p := &Platform{
		pollutants: pollutants,
		stores:     make(map[Pollutant]*store.Store, len(pollutants)),
	}
	closeAll := func() {
		for _, st := range p.stores {
			st.Close()
		}
	}
	for _, pol := range pollutants {
		if !pol.Valid() {
			closeAll()
			return nil, fmt.Errorf("repro: %w: %v", ErrUnknownPollutant, pol)
		}
		if _, dup := p.stores[pol]; dup {
			closeAll()
			return nil, fmt.Errorf("repro: duplicate pollutant %v", pol)
		}
		st, err := store.Open(store.Config{
			WindowLength: cfg.WindowSeconds,
			Retain:       cfg.Retain,
			Dir:          cfg.storeDir(pol),
			Sync:         cfg.Sync,
			KeepSegments: cfg.Checkpoint.KeepSegments,
			Columnar:     cfg.Columnar,
		})
		if err != nil {
			closeAll()
			return nil, err
		}
		p.stores[pol] = st
	}
	adkmn := cfg.AdKMN
	adkmn.Pollutant = pollutants[0]
	engine, err := server.NewMultiEngineOpts(p.stores, adkmn, server.Options{
		Pipeline:   cfg.IngestQueue,
		Scheduler:  cfg.Maintenance,
		Checkpoint: cfg.Checkpoint,
	})
	if err != nil {
		closeAll()
		return nil, err
	}
	p.engine = engine
	if len(cfg.Cluster.Nodes) > 0 || cfg.Cluster.Join != "" {
		node, err := newClusterNode(cfg, engine, p.stores)
		if err != nil {
			engine.Close()
			closeAll()
			return nil, err
		}
		p.node, p.backend = node, node
		p.joining = cfg.Cluster.Join != ""
		p.api = server.NewClusterAPI(engine, node)
	} else {
		p.backend = engine
		p.api = server.NewAPI(engine)
	}
	// Covers are derived state: every recovered window is modeled in the
	// background now, newest first, and on the query path if it is asked
	// for sooner. A window its checkpoint holds unchanged is refitted
	// from the seed the checkpoint kept of its cover instead of running
	// Ad-KMN again.
	engine.WarmPrime()
	return p, nil
}

// newClusterNode derives the shard ring from the cluster configuration
// and wraps the engine in a routing node (a pure router when
// cfg.Cluster.Router). Peer links dial lazily over the binary TCP
// protocol. With Replicas > 1 the node also replicates: it streams its
// committed ingests to ring successors and holds mirrors for the
// primaries it backs: each mirror a log of the primary's stream, pruned
// by the same window retention as the stores, and on its first failover
// read a lazy in-memory engine built by the factory below. Its own
// replication logs index the stores the engine commits into.
func newClusterNode(full Config, engine *server.Engine, stores map[Pollutant]*store.Store) (*cluster.Node, error) {
	cfg := full.Cluster
	dial := func(addr string) (cluster.Transport, error) {
		return proto.Dial(addr, proto.ServerConfig{})
	}
	var (
		ring  *cluster.Ring
		self  int
		local cluster.Handler = engine
	)
	if cfg.Join != "" {
		// Join an existing cluster: announce to the seed and build this
		// node on the pending next-epoch ring it returns. Cells, vnode
		// count, and replication factor all come from the cluster; the
		// local static ring config is ignored.
		if cfg.Router {
			return nil, fmt.Errorf("repro: a dedicated router cannot join a cluster (it owns no shards); point it at the full node list instead")
		}
		if cfg.Advertise == "" {
			return nil, fmt.Errorf("repro: cluster join needs Advertise (this node's wire address as peers dial it)")
		}
		seed, err := proto.Dial(cfg.Join, proto.ServerConfig{})
		if err != nil {
			return nil, fmt.Errorf("repro: dial join seed %s: %w", cfg.Join, err)
		}
		pending, err := cluster.JoinCluster(seed, cfg.Advertise)
		seed.Close()
		if err != nil {
			return nil, fmt.Errorf("repro: join via %s: %w", cfg.Join, err)
		}
		ring, self = pending, pending.Nodes()-1
	} else {
		region := cfg.Region
		if !region.Valid() || region.Area() == 0 {
			// Default: the simulated Lausanne corridor (x ∈ [-1.5, 4] km,
			// y ∈ [-0.6, 2.9] km) with margin, so the default 16 cells are
			// each ~1.5 km — several cells across the bus routes. Positions
			// outside the region still shard (nearest cell), just coarsely;
			// set Region explicitly for other deployments.
			region = Rect{Min: Point{X: -2500, Y: -1500}, Max: Point{X: 5000, Y: 4000}}
		}
		nCells := cfg.Cells
		if nCells <= 0 {
			nCells = 16
		}
		seed := cfg.Seed
		if seed == 0 {
			seed = 1
		}
		cells, err := cluster.Cells(region, nCells, seed)
		if err != nil {
			return nil, fmt.Errorf("repro: cluster cells: %w", err)
		}
		ring, err = cluster.NewRing(cluster.Desc{Nodes: cfg.Nodes, Cells: cells, VNodes: cfg.VNodes, Replicas: cfg.Replicas})
		if err != nil {
			return nil, fmt.Errorf("repro: cluster ring: %w", err)
		}
		self = cfg.NodeID
		if cfg.Router {
			self, local = -1, nil
		} else if self < 0 || self >= len(cfg.Nodes) {
			return nil, fmt.Errorf("repro: cluster node ID %d outside %d-node cluster", self, len(cfg.Nodes))
		}
	}
	// Push streams ride a dedicated connection per routed subscription
	// leg, separate from the pooled request/response transports.
	streams := func(addr string, req wire.Message) (cluster.PushStream, error) {
		return proto.DialStream(addr, proto.ServerConfig{}, req)
	}
	nc := cluster.NodeConfig{
		Ring:       ring,
		Self:       self,
		Local:      local,
		Transports: cluster.LazyTransports(ring, self, dial),
		Dial:       dial,
		Streams:    streams,
		Default:    full.pollutants()[0],
		Pollutants: full.pollutants(),
	}
	if self >= 0 {
		// Data nodes always carry a replication role: at R > 1 it mirrors
		// peers, and even at R = 1 the replication logs feed membership
		// handoffs (join bootstrap, drain pulls).
		nc.Replication = cluster.ReplicationConfig{
			NewMirror:    mirrorFactory(full),
			WindowLength: full.WindowSeconds,
			Retain:       full.Retain,
			Stores:       make(map[Pollutant]cluster.LocalStore, len(stores)),
		}
		for pol, st := range stores {
			nc.Replication.Stores[pol] = st
		}
	}
	node, err := cluster.NewNode(nc)
	if err != nil {
		return nil, fmt.Errorf("repro: cluster node: %w", err)
	}
	return node, nil
}

// mirrorFactory builds replica mirrors (server.NewMirrorEngine): lazy
// in-memory engines with the same window length, retention, and model
// configuration as the primary they mirror. A factory failure yields a
// handler that answers every read with a replica miss, which the
// failover paths treat as "no mirror here" and try the next replica.
func mirrorFactory(cfg Config) func() cluster.Handler {
	pollutants := cfg.pollutants()
	adkmn := cfg.AdKMN
	adkmn.Pollutant = pollutants[0]
	return func() cluster.Handler {
		eng, err := server.NewMirrorEngine(pollutants, cfg.WindowSeconds, cfg.Retain, adkmn)
		if err != nil {
			return mirrorError{err: err}
		}
		return eng
	}
}

// mirrorError stands in for a mirror whose engine failed to build:
// every message answers with a replica miss (not a data answer), so the
// failover paths move on.
type mirrorError struct{ err error }

func (m mirrorError) HandleMessage(wire.Message) wire.Message {
	return cluster.WireError(fmt.Errorf("%w: mirror engine: %v", cluster.ErrReplicaMiss, m.err))
}

// Checkpoint persists every pollutant's retained windows to its store's
// checkpoint file and compacts the segment logs behind them — after
// which a crash costs only a suffix replay. Safe to call at any time;
// Close takes a final checkpoint automatically when
// Config.Checkpoint.Interval is set.
func (p *Platform) Checkpoint() error { return p.engine.Checkpoint() }

// CheckpointStats aggregates checkpoint, compaction, and recovery
// counters across every pollutant's store.
func (p *Platform) CheckpointStats() CheckpointStats { return p.engine.CheckpointStats() }

// ColumnarStats aggregates the checkpoint files' write and scan counters
// across every pollutant's store.
func (p *Platform) ColumnarStats() ColumnarStats { return p.engine.ColumnarStats() }

// Close shuts the write path down first — the ingest pipeline drains
// every queued upload into the (still open) stores, a final checkpoint
// runs (if Config.Checkpoint.Interval is set) while the cover
// maintainers still give it their seeds, and the maintenance scheduler
// stops — and finally syncs and releases durable resources.
// All failures are reported, combined with errors.Join.
func (p *Platform) Close() error {
	var errs []error
	if p.node != nil {
		// Stop replication first: the stream workers and mirror engines
		// must quiesce before the primary engine drains. The node closes
		// its peer connections too.
		p.node.Close()
	}
	if err := p.engine.Close(); err != nil {
		errs = append(errs, fmt.Errorf("repro: close engine: %w", err))
	}
	for _, pol := range p.pollutants {
		if err := p.stores[pol].Close(); err != nil {
			errs = append(errs, fmt.Errorf("repro: close %v store: %w", pol, err))
		}
	}
	return errors.Join(errs...)
}

// Pollutants lists the monitored pollutants in stable (ascending) order.
func (p *Platform) Pollutants() []Pollutant { return p.engine.Pollutants() }

// ListenTCP serves the binary wire protocol on addr — the transport
// smartphone model-cache clients use over cellular data. It returns a
// closer that stops the server and the bound address (useful with
// addr ":0").
// On a clustered platform the TCP server answers through the routing
// node (ring exchanges, forwarding, scatter-gather) instead of the bare
// engine.
func (p *Platform) ListenTCP(addr string) (io.Closer, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := proto.Serve(ln, p.backend, proto.ServerConfig{})
	return srv, srv.Addr(), nil
}

// Ingest appends raw readings of pollutant pol and returns once they are
// stored. The covers readers hold of the windows they landed in are
// rebuilt in the background; until then reads of those windows are
// answered from their previous covers (WaitMaintenance is the barrier).
// A window nobody has read yet is modeled by its first reader. A full ingest queue
// follows Config.IngestQueue's overflow policy (blocking by default). On
// a clustered platform the upload splits by shard owner and every slice
// — this node's own included — commits through the cluster node, which
// never waits for queue space: a saturated owner sheds its slice with
// ErrIngestSaturated (see cluster.Node.Ingest), exactly as POST
// /v1/ingest does.
func (p *Platform) Ingest(ctx context.Context, pol Pollutant, readings []Reading) error {
	return p.backend.Ingest(ctx, pol, tuple.Batch(readings))
}

// Clustered reports whether the platform is a member of a sharded
// cluster.
func (p *Platform) Clustered() bool { return p.node != nil }

// CompleteJoin finishes a join started with ClusterConfig.Join: it
// bootstraps the shards this node gains from their current owners'
// replication logs, then commits the next membership epoch to every
// peer, after which the cluster routes the gained shards here. Call it
// after ListenTCP (peers dial this node the moment the commit lands).
// On error the cluster still runs at the old epoch and CompleteJoin
// may be retried.
func (p *Platform) CompleteJoin(ctx context.Context) error {
	if p.node == nil || !p.joining {
		return errors.New("repro: not joining a cluster (set ClusterConfig.Join)")
	}
	if err := p.node.CompleteJoin(ctx); err != nil {
		return fmt.Errorf("repro: complete join: %w", err)
	}
	p.joining = false
	return nil
}

// Drain removes this node from the cluster: peers pull its shards'
// retained streams, the node fences itself, and the membership commits
// at the next epoch — after which the process can exit without losing
// acked tuples (within the replication-log retention contract). The
// platform keeps serving reads during the drain; routed writes bounce
// to the new owners once the fence is up.
func (p *Platform) Drain(ctx context.Context) error {
	if p.node == nil {
		return errors.New("repro: not clustered")
	}
	if err := p.node.Drain(ctx); err != nil {
		return fmt.Errorf("repro: drain: %w", err)
	}
	return nil
}

// ClusterEpoch returns the membership epoch of the ring this node
// currently serves (0 on an unclustered platform and on clusters that
// have never had a membership transition).
func (p *Platform) ClusterEpoch() uint64 {
	if p.node == nil {
		return 0
	}
	return p.node.Ring().Epoch()
}

// Owns reports whether this node owns pollutant pol at position (x, y)
// — true on a single-node platform. Bulk loaders use it to feed each
// node only its own shards.
func (p *Platform) Owns(pol Pollutant, x, y float64) bool {
	if p.node == nil {
		return true
	}
	return p.node.Ring().Owner(pol, Point{X: x, Y: y}) == p.node.Self()
}

// ClusterStats returns the routing counters of a clustered platform
// (zero when not clustered).
func (p *Platform) ClusterStats() ClusterStats {
	if p.node == nil {
		return ClusterStats{}
	}
	return p.node.Stats()
}

// IngestReader streams a tuple CSV ("t,x,y,s" header) into the platform
// in bounded batches, so month-scale deployment files never materialize
// in memory. It returns the number of tuples ingested. Cancelling ctx
// stops the stream between batches. On a clustered platform each batch
// splits across shard owners exactly like Ingest.
func (p *Platform) IngestReader(ctx context.Context, pol Pollutant, r io.Reader) (int, error) {
	return tuple.StreamCSV(r, 0, func(b tuple.Batch) error {
		return p.Ingest(ctx, pol, b)
	})
}

// IngestStats returns the asynchronous ingest pipeline's counters:
// accepted uploads, coalesced appends, saturation rejections, queue
// depth.
func (p *Platform) IngestStats() PipelineStats { return p.engine.PipelineStats() }

// MaintenanceStats returns the background cover scheduler's counters:
// builds scheduled, completed, coalesced, skipped, dropped.
func (p *Platform) MaintenanceStats() SchedulerStats { return p.engine.SchedulerStats() }

// WaitMaintenance blocks until the background cover scheduler is idle —
// every invalidated window rebuilt or discarded. It is the read-after-ack
// barrier: an acknowledged ingest is stored, but a read may be answered
// from the window's previous cover until the rebuild lands; after
// WaitMaintenance every answer reflects every acknowledged tuple,
// bit-identical to a from-scratch cover. A disabled scheduler is always
// idle (and always fresh).
func (p *Platform) WaitMaintenance() { p.engine.Scheduler().Wait() }

// Len returns the number of retained readings across all pollutants.
func (p *Platform) Len() int {
	n := 0
	for _, st := range p.stores {
		n += st.Len()
	}
	return n
}

// LenFor returns the number of retained readings of one pollutant.
func (p *Platform) LenFor(pol Pollutant) (int, error) {
	st, err := p.engine.StoreFor(pol)
	if err != nil {
		return 0, err
	}
	return st.Len(), nil
}

// Query interpolates the requested pollutant at the request's position
// and stream time, using the model cover of the containing window.
// Deadlines and cancellation arrive through ctx; failures match the v1
// error taxonomy with errors.Is. On a clustered platform requests for
// foreign shards forward to their owner.
func (p *Platform) Query(ctx context.Context, req Request) (float64, error) {
	return p.backend.Query(ctx, req)
}

// QueryBatch answers a batch of requests — the registered route of a
// continuous query, or any mixed-pollutant workload — returning one
// BatchResult per request, in order. Each request succeeds or fails on
// its own: one request outside the retained windows does not reject the
// rest. The call-level error is reserved for an empty batch and for ctx
// cancellation, which marks the requests left unanswered.
// On a clustered platform the batch splits across shard owners.
func (p *Platform) QueryBatch(ctx context.Context, reqs []Request) ([]BatchResult, error) {
	return p.backend.QueryBatch(ctx, reqs)
}

// Subscribe opens a push subscription over the route points pts for
// pollutant pol: the returned subscription's first event is a full resync
// carrying the initial value vector, and afterwards the platform pushes
// a delta of exactly the points whose model covers an ingest
// invalidated — re-evaluated incrementally, never by polling. On a
// clustered platform the subscription is routed: each shard owner
// re-evaluates its own slice and the pushes merge onto one subscription
// (an owner dying surfaces as an error event naming it). Close it to
// unsubscribe; a slow consumer's queue drops oldest events and the
// next event becomes a full resync, so the stream is always coherent.
func (p *Platform) Subscribe(ctx context.Context, pol Pollutant, pts []Request) (Subscription, error) {
	return p.backend.Subscribe(ctx, pol, pts)
}

// SubscriptionStats counts the push-subscription registry's work on the
// local engine (routed legs count at their owner nodes).
func (p *Platform) SubscriptionStats() SubscriptionStats {
	return p.engine.Subscriptions().Stats()
}

// Cover returns pol's model cover valid at stream time t, building it on
// first use. On a clustered platform the cover merges every node's
// region models (matching ModelResponse), so evaluating it anywhere in
// the region answers from the owning shard's models; a partial merge
// (some dead node's shards missing, no replica to stand in) returns the
// usable cover alongside ErrPartialResult.
func (p *Platform) Cover(ctx context.Context, pol Pollutant, t float64) (*Cover, error) {
	return p.backend.CoverAt(ctx, pol, t)
}

// ModelResponse returns the wire form of pol's cover at t — what a
// model-cache client downloads once per validity window.
// On a clustered platform the response merges every node's cover.
func (p *Platform) ModelResponse(ctx context.Context, pol Pollutant, t float64) (ModelResponse, error) {
	return p.backend.Model(ctx, pol, t)
}

// Heatmap rasterizes pol's cover at time t over the window's data region;
// see the heatmap endpoints of Handler for rendered output.
// On a clustered platform the raster scatter-gathers across all shards.
func (p *Platform) Heatmap(ctx context.Context, pol Pollutant, t float64, cols, rows int) (*heatmap.Grid, error) {
	return p.backend.Heatmap(ctx, pol, t, cols, rows)
}

// Handler returns the HTTP/JSON API (point queries, batch and continuous
// queries, model downloads, heatmaps, ingestion, stats, pollutant
// discovery). Every query endpoint takes an optional ?pollutant=
// parameter.
func (p *Platform) Handler() http.Handler { return p.api }

// ClassifyCO2 returns the display band for a CO2 concentration in ppm.
func ClassifyCO2(ppm float64) CO2Band { return eval.ClassifyCO2(ppm) }

// ClassifyPollutant returns the display band for a value of any monitored
// pollutant.
func ClassifyPollutant(p Pollutant, value float64) CO2Band {
	return eval.ClassifyPollutant(p, value)
}

// SimulateLausanne generates the synthetic equivalent of the paper's
// lausanne-data deployment: durationSeconds of two bus lines (four
// vehicles) sampling CO2 every 60 s. The same seed always produces the
// same data.
func SimulateLausanne(seed int64, durationSeconds float64) ([]Reading, error) {
	cfg := sim.DefaultLausanne(seed)
	if durationSeconds > 0 {
		cfg.Duration = durationSeconds
	}
	b, err := sim.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return []Reading(b), nil
}

// SimulateLausanneMulti generates the synthetic deployment for several
// pollutants at once: shared bus trajectories, per-pollutant fields and
// sensor noise.
func SimulateLausanneMulti(seed int64, durationSeconds float64, pollutants []Pollutant) (map[Pollutant][]Reading, error) {
	cfg := sim.DefaultLausanne(seed)
	if durationSeconds > 0 {
		cfg.Duration = durationSeconds
	}
	batches, err := sim.GenerateMulti(cfg, pollutants)
	if err != nil {
		return nil, err
	}
	out := make(map[Pollutant][]Reading, len(batches))
	for p, b := range batches {
		out[p] = []Reading(b)
	}
	return out, nil
}

// LausanneProjection returns the projection between WGS84 and the local
// metric frame used by the simulated deployment.
func LausanneProjection() *geo.Projection { return geo.MustProjection(geo.Lausanne) }

// Model feature families, re-exported for AdKMNConfig.Features.
var (
	FeaturesConstant    = regress.Constant
	FeaturesLinearT     = regress.LinearT
	FeaturesLinearXY    = regress.LinearXY
	FeaturesLinearXYT   = regress.LinearXYT
	FeaturesQuadraticXY = regress.QuadraticXY
)
