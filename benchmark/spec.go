package main

// opKind is one kind of client operation.
type opKind uint8

const (
	opRoute   opKind = iota // 100-point route: the paper's continuous query
	opHeatmap               // 64×64 raster
	opModel                 // model-cover download
	opIngest                // 256-tuple upload
	numKinds
)

var kindNames = [numKinds]string{"route", "heatmap", "model", "ingest"}

func (k opKind) isRead() bool { return k != opIngest }

// Fixed shape of every operation and of the fleet. These, and the
// per-workload numbers below, are the frozen definition of the
// benchmark: changing any of them makes old and new numbers
// incomparable, so a change here is a benchmark PR of its own.
const (
	routePoints   = 100  // points per route read
	heatmapSide   = 64   // heatmap is heatmapSide × heatmapSide
	ingestTuples  = 256  // tuples per write
	windowSeconds = 3600 // modeling window H
	vehicles      = 16   // buses in the fleet
	sampleEvery   = 30   // seconds between samples of one bus
	segments      = 5    // measured phase is cut into this many segments
	warmupPercent = 5    // extra operations run before the clock starts
	setupWindows  = 24   // windows of history a timed set-up brings up
	setupRepeats  = 10   // timed set-ups per run; setup_s is the fastest
	oracleSamples = 200  // reads re-asked in process after the clock stops
	pointProbes   = 2000 // single QueryRequest round trips for e2e.point_rtt_p50_us
	// reorderWindow bounds how far ahead of the slowest unfinished
	// operation a connection may run. A live read at position i names
	// the window of the newest write at or before i-reorderWindow, which
	// is therefore acknowledged and has data: no read can miss.
	reorderWindow = 4
	// maxClients caps the connection count: C = min(nproc, maxClients).
	maxClients = 4
	// gcPercent is the GOGC the benchmark process runs with. Its heap is
	// tiny next to a production node's (17–60 MB live), so at the default
	// 100 the collector ran every dozen requests — ~870 cycles in a 9 s
	// run — and every cycle's stop-the-world phases waited for whichever
	// vCPU the host had descheduled: interleaved runs showed twice the
	// run-to-run spread at 100 (ops_per_s 12.7 % vs 5.8 %, read_p50_ms
	// 13.8 % vs 8.0 %). 400 gives the cadence of a heap four times larger.
	// What the code allocates is still measured directly (allocs_per_op,
	// alloc_kb_per_op) and still costs collector time in proportion.
	gcPercent = 400
)

// workload is one traffic mix against one deployment shape.
type workload struct {
	name string
	why  string
	http bool // HTTP/JSON instead of binary TCP
	// nodes > 1 makes a loopback cluster with replicas copies of every
	// shard; clients talk to node 0 only.
	nodes, replicas int
	preloadDays     int
	retain          int // Config.Retain (0 = keep all)
	// checkpoints: one Platform.Checkpoint (checkpoint + compaction)
	// runs beside every segment's operations. It is started by progress,
	// not by Config.Checkpoint.Interval: the number of cycles per run
	// would otherwise depend on how fast the host happens to be, and
	// with it every count metric.
	checkpoints bool
	columnar    bool // Config.Columnar.Enabled
	// restart: the preloaded store is checkpointed and closed before
	// timing, and setup_s is restart-to-warm.
	restart bool
	// opsPerSecond × --seconds is the fixed number of measured
	// operations: sized so the measured phase lasts about --seconds on
	// the 2-core reference box at the commit that froze it.
	opsPerSecond int
	mix          [numKinds]int // percent of operations, sums to 100
	livePercent  int           // percent of reads aimed at the live window
}

// workloads are final: later PRs name their metric and workload from
// this list.
var workloads = []workload{
	{
		name:        "route_tcp",
		why:         "commuter reads on one node over binary TCP: codec, transport, dispatch and cover lookup do the work, storage almost none",
		nodes:       1,
		preloadDays: 7, opsPerSecond: 1150,
		mix:         [numKinds]int{opRoute: 88, opModel: 10, opIngest: 2},
		livePercent: 70,
	},
	{
		name:        "ingest_tcp",
		why:         "bus-gateway writes beside live reads on one node: pipeline, fsync, a checkpoint beside every segment, eviction and cover rebuilds do the work",
		nodes:       1,
		preloadDays: 7, retain: 240, checkpoints: true, opsPerSecond: 240,
		mix:         [numKinds]int{opIngest: 80, opRoute: 20},
		livePercent: 100,
	},
	{
		name:        "history_http",
		why:         "dashboard over HTTP/JSON after a restart from columnar checkpoints: JSON, heatmaps, lazy scans and cold cover builds do the work",
		http:        true,
		nodes:       1,
		preloadDays: 10, columnar: true, restart: true, opsPerSecond: 1300,
		mix:         [numKinds]int{opHeatmap: 45, opModel: 25, opRoute: 25, opIngest: 5},
		livePercent: 0,
	},
	{
		name:  "cluster_tcp",
		why:   "three durable nodes, two copies, clients on node 0: routing, the second codec pass at the hop and replication do the work",
		nodes: 3, replicas: 2,
		preloadDays: 3, opsPerSecond: 280,
		mix:         [numKinds]int{opRoute: 70, opHeatmap: 10, opIngest: 20},
		livePercent: 70,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef names one reported metric. The lists below must match
// BENCHMARK.json exactly (bench_test.go checks it).
type metricDef struct {
	name, unit string
}

// endToEnd are measured with tracing off; every workload reports all.
// Only set-up time and counts are here: on the shared host this was
// frozen on, two sets of runs of the same code disagreed by 20–54 % on
// every wall-clock rate and latency, so those are diagnostics (see
// README.md, "Repeatability").
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wire_bytes_per_read", "B"},
	{"allocs_per_op", "count"},
	{"alloc_kb_per_op", "KiB"},
	{"disk_bytes_per_tuple", "B"},
	{"live_heap_mb", "MiB"},
}

// perLayer come from the traced run (--trace 1). A layer that does not
// run on a workload reports 0 there.
var perLayer = []metricDef{
	{"e2e.trace_overhead_pct", "%"},
	{"wire.codec_us", "us"},
	{"wire.allocs_per_op", "count"},
	{"wire.req_bytes_per_op", "B"},
	{"wire.resp_bytes_per_op", "B"},
	{"proto.transport_us", "us"},
	{"proto.null_rtt_us", "us"},
	{"server.handle_us", "us"},
	{"server.http_handle_us", "us"},
	{"server.http_overhead_us", "us"},
	{"server.json_bytes_per_op", "B"},
	{"query.batch_us_per_point", "us"},
	{"query.point_us", "us"},
	{"core.cover_hit_us", "us"},
	{"core.cover_at_us", "us"},
	{"core.interpolate_ns", "ns"},
	{"core.cover_regions", "count"},
	{"core.build_ms", "ms"},
	{"core.build_allocs", "count"},
	{"core.builds_per_write", "count"},
	{"core.sched_dropped", "count"},
	{"kmeans.cluster_ms", "ms"},
	{"ingest.submit_us", "us"},
	{"ingest.queue_wait_us", "us"},
	{"ingest.coalesced_ratio", "ratio"},
	{"ingest.rejected", "count"},
	{"store.append_us", "us"},
	{"store.fsyncs_per_append", "count"},
	{"store.window_us", "us"},
	{"store.checkpoint_ms", "ms"},
	{"store.checkpoint_bytes", "B"},
	{"store.segments_deleted", "count"},
	{"store.recover_ms", "ms"},
	{"colblock.scan_us_per_window", "us"},
	{"colblock.bytes_read_per_window", "B"},
	{"colblock.pruned_ratio", "ratio"},
	{"colblock.sidecar_bytes_per_tuple", "B"},
	{"heatmap.raster_ms", "ms"},
	{"cluster.handle_us", "us"},
	{"cluster.peer_exchange_us", "us"},
	{"cluster.peer_exchanges_per_op", "count"},
	{"cluster.forwarded_share", "ratio"},
	{"cluster.replica_frames_per_write", "count"},
	{"cluster.ring_owner_ns", "ns"},
	{"cluster.epoch_mismatches", "count"},
	{"cluster.errors", "count"},
	{"host.null_rtt_us", "us"},
	{"host.spin_ms", "ms"},
	{"host.cpu_s", "s"},
	{"host.gc_pause_ms", "ms"},
}
