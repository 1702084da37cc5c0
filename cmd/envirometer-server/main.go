// Command envirometer-server runs the EnviroMeter platform server: it
// loads (or simulates) a community-sensed dataset for one or more
// pollutants and serves both the web/JSON API — point, batch, and
// continuous queries, model-cover downloads, heatmaps — and, optionally,
// the binary TCP wire protocol that smartphone model-cache clients use.
//
// Usage:
//
//	envirometer-server [-addr :8080] [-tcp :8081] [-window 14400]
//	                   [-pollutants CO2,CO,PM] [-days 2] [-data file.csv]
//	                   [-dir segments/] [-live] [-speedup 3600] [-seed 1]
//	                   [-sync every|never] [-ingest-queue 64]
//	                   [-sched-workers 2] [-checkpoint-interval 5m]
//	                   [-checkpoint-keep 1]
//	                   [-cluster-nodes host:8081,host:8082] [-node-id 0]
//	                   [-router] [-cluster-cells 16] [-cluster-vnodes 64]
//	                   [-replicas 2] [-join host:8081] [-advertise host:8084]
//
// -sync picks the durability policy of -dir (every = one fsync per store
// append before the ack, shared by the uploads the ingest pipeline
// coalesced into it). -ingest-queue bounds the asynchronous ingest
// queues; -sched-workers sizes the background cover-maintenance
// scheduler (-1 disables it, putting cover builds back on the query
// path). With -checkpoint-interval, each pollutant's store
// periodically (and at shutdown) checkpoints its retained windows and
// deletes the segment files behind the checkpoint, keeping disk usage
// and restart time bounded by retention instead of history;
// -checkpoint-keep spares the newest N covered segments per compaction.
//
// The -cluster-* flags shard the deployment across several server
// processes: -cluster-nodes lists every node's TCP wire address (the
// same list, in the same order, on every node), -node-id names this
// process's index in it, and -router starts a dedicated query router
// that owns no shards. Cluster mode requires -tcp (peers connect to
// it). Each node bulk-loads only the tuples its shards own; uploads
// and queries sent to any node are routed to the owners, and heatmaps
// scatter-gather across all of them. See docs/OPERATIONS.md for a
// 3-node walkthrough.
//
// A running cluster grows and shrinks live: -join host:port starts this
// process as a new member of the cluster that host:port belongs to —
// it bootstraps the shards it gains from their current owners, then
// commits the next membership epoch (no dataset flags needed; its data
// arrives over the wire). -advertise overrides the address peers dial
// (default: -tcp). On a clustered node SIGTERM drains before exiting:
// peers pull this node's shards and the membership commits without it.
// See docs/OPERATIONS.md "Growing and shrinking the cluster".
//
// With -data, raw tuples are loaded from a CSV file ("t,x,y,s" header);
// since the CSV carries one pollutant, -data requires a single-entry
// -pollutants. Otherwise a synthetic Lausanne deployment of -days days
// is generated for every pollutant of -pollutants. With -dir,
// ingestion is durable and previous segments are recovered; the covers
// of the recovered windows are rebuilt in the background. With -live, data
// is streamed in via the ingestion service at -speedup× real time instead
// of being bulk-loaded, so covers appear as windows fill — the demo-floor
// mode.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/ingest"
	"repro/internal/tuple"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "HTTP listen address")
		tcp     = flag.String("tcp", "", "TCP wire-protocol listen address (empty = disabled)")
		window  = flag.Float64("window", 4*3600, "modeling window length H in seconds")
		polls   = flag.String("pollutants", "CO2", "comma-separated pollutants to monitor (CO2,CO,PM)")
		days    = flag.Float64("days", 2, "days of synthetic data when -data is unset")
		data    = flag.String("data", "", "CSV file of raw tuples to load instead of simulating")
		dir     = flag.String("dir", "", "directory for durable segment files (empty = memory only)")
		live    = flag.Bool("live", false, "stream data in via the ingestion service instead of bulk loading")
		speedup = flag.Float64("speedup", 3600, "stream seconds per wall second in -live mode")
		seed    = flag.Int64("seed", 1, "simulation seed")

		syncMode   = flag.String("sync", "every", "durability sync policy: every, never")
		queueDepth = flag.Int("ingest-queue", 0, "ingest queue depth per pollutant (0 = default)")
		schedWork  = flag.Int("sched-workers", 0, "background cover-build workers (0 = default, -1 = disabled)")
		ckInterval = flag.Duration("checkpoint-interval", 0, "periodic store checkpoint interval (0 = disabled)")
		ckKeep     = flag.Int("checkpoint-keep", 0, "checkpoint-covered segments spared per compaction")
		colNoMmap  = flag.Bool("columnar-no-mmap", false, "read checkpoint files with pread instead of mmap")

		clusterNodes  = flag.String("cluster-nodes", "", "comma-separated TCP wire addresses of every cluster node (empty = single node)")
		nodeID        = flag.Int("node-id", 0, "this process's index in -cluster-nodes")
		router        = flag.Bool("router", false, "run as a dedicated query router owning no shards")
		clusterCells  = flag.Int("cluster-cells", 0, "geo cells partitioning the region (0 = default 16)")
		clusterVNodes = flag.Int("cluster-vnodes", 0, "consistent-hash virtual nodes per node (0 = default 64)")
		replicas      = flag.Int("replicas", 0, "replication factor R: each shard lives on its owner plus R-1 ring successors, which answer its reads when the owner dies (0 or 1 = unreplicated)")
		join          = flag.String("join", "", "wire address of a live member of an existing cluster to join (instead of -cluster-nodes); shards rebalance onto this node before the membership epoch commits")
		advertise     = flag.String("advertise", "", "this node's wire address exactly as peers should dial it (default: -tcp)")
	)
	flag.Parse()
	sync, err := parseSyncPolicy(*syncMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "envirometer-server:", err)
		os.Exit(2)
	}
	var cl repro.ClusterConfig
	switch {
	case *join != "":
		if *clusterNodes != "" || *router {
			fmt.Fprintln(os.Stderr, "envirometer-server: -join replaces -cluster-nodes (the ring comes from the seed) and cannot combine with -router")
			os.Exit(2)
		}
		if *tcp == "" {
			fmt.Fprintln(os.Stderr, "envirometer-server: -join requires -tcp (peers connect to it)")
			os.Exit(2)
		}
		adv := *advertise
		if adv == "" {
			adv = *tcp
		}
		cl = repro.ClusterConfig{Join: *join, Advertise: adv}
	case *clusterNodes != "":
		if *tcp == "" && !*router {
			fmt.Fprintln(os.Stderr, "envirometer-server: cluster mode requires -tcp (peers connect to it)")
			os.Exit(2)
		}
		cl = repro.ClusterConfig{
			Nodes:    strings.Split(*clusterNodes, ","),
			NodeID:   *nodeID,
			Router:   *router,
			Cells:    *clusterCells,
			VNodes:   *clusterVNodes,
			Seed:     *seed,
			Replicas: *replicas,
		}
	case *replicas > 1:
		fmt.Fprintln(os.Stderr, "envirometer-server: -replicas requires -cluster-nodes")
		os.Exit(2)
	case *router:
		fmt.Fprintln(os.Stderr, "envirometer-server: -router requires -cluster-nodes")
		os.Exit(2)
	}
	if err := run(options{
		addr: *addr, tcp: *tcp, window: *window, polls: *polls, days: *days,
		data: *data, dir: *dir,
		live: *live, speedup: *speedup, seed: *seed,
		sync:    sync,
		queue:   repro.PipelineConfig{QueueDepth: *queueDepth},
		sched:   repro.SchedulerConfig{Workers: *schedWork},
		ck:      repro.CheckpointConfig{Interval: *ckInterval, KeepSegments: *ckKeep},
		col:     repro.ColumnarConfig{DisableMmap: *colNoMmap},
		cluster: cl,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "envirometer-server:", err)
		os.Exit(1)
	}
}

// parseSyncPolicy maps the -sync flag onto a facade SyncPolicy.
func parseSyncPolicy(mode string) (repro.SyncPolicy, error) {
	switch mode {
	case "every", "":
		return repro.SyncEveryBatch(), nil
	case "never":
		return repro.SyncNever(), nil
	default:
		return repro.SyncPolicy{}, fmt.Errorf("unknown -sync mode %q (want every or never)", mode)
	}
}

type options struct {
	addr, tcp, data, dir, polls string
	window, days, speedup       float64
	seed                        int64
	live                        bool
	sync                        repro.SyncPolicy
	queue                       repro.PipelineConfig
	sched                       repro.SchedulerConfig
	ck                          repro.CheckpointConfig
	col                         repro.ColumnarConfig
	cluster                     repro.ClusterConfig
}

func run(o options) error {
	pollutants, err := tuple.ParsePollutantList(o.polls)
	if err != nil {
		return err
	}
	p, err := repro.Open(repro.Config{
		WindowSeconds: o.window,
		Pollutants:    pollutants,
		Dir:           o.dir,
		Sync:          o.sync,
		IngestQueue:   o.queue,
		Maintenance:   o.sched,
		Checkpoint:    o.ck,
		Columnar:      o.col,
		Cluster:       o.cluster,
	})
	if err != nil {
		return err
	}
	defer p.Close()

	ctx := context.Background()
	datasets := map[repro.Pollutant][]repro.Reading{}
	if !o.cluster.Router && o.cluster.Join == "" {
		// A dedicated router holds no shards and loads nothing. A joining
		// node loads nothing either: its shards arrive over the wire from
		// their current owners when the join completes below.
		if datasets, err = loadReadings(o, pollutants); err != nil {
			return err
		}
		if p.Clustered() {
			// Every cluster node simulates/loads the same dataset; keep
			// only the tuples this node's shards own so the cluster holds
			// exactly one copy of each.
			for pol, readings := range datasets {
				owned := readings[:0]
				for _, r := range readings {
					if p.Owns(pol, r.X, r.Y) {
						owned = append(owned, r)
					}
				}
				datasets[pol] = owned
				fmt.Printf("cluster node %d owns %d of the %s tuples\n",
					o.cluster.NodeID, len(owned), pol)
			}
		}
	}

	if o.live {
		for pol, readings := range datasets {
			go runLive(p, pol, readings, o.speedup)
			fmt.Printf("live mode: streaming %d %s tuples at %.0fx real time\n",
				len(readings), pol, o.speedup)
		}
	} else {
		for pol, readings := range datasets {
			if err := p.Ingest(ctx, pol, readings); err != nil {
				return err
			}
			fmt.Printf("bulk loaded %d %s raw tuples\n", len(readings), pol)
		}
	}

	if o.tcp != "" {
		srv, tcpAddr, err := p.ListenTCP(o.tcp)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("serving binary wire protocol on %s\n", tcpAddr)
	}
	if o.cluster.Join != "" {
		// The wire listener is up, so peers can dial this node the moment
		// the commit broadcast lands: bootstrap the gained shards and
		// commit the next membership epoch.
		if err := p.CompleteJoin(ctx); err != nil {
			return err
		}
		fmt.Printf("joined cluster via %s at epoch %d\n", o.cluster.Join, p.ClusterEpoch())
	}

	fmt.Printf("serving EnviroMeter v1 API on %s (window H = %.0f s, pollutants %v)\n",
		o.addr, o.window, pollutants)
	fmt.Println("  GET  /v1/query?t=&x=&y=&pollutant=co2")
	fmt.Println("  POST /v1/query/batch")
	fmt.Println("  POST /v1/query/continuous?pollutant=")
	fmt.Println("  GET  /v1/models?t=&pollutant=")
	fmt.Println("  GET  /v1/heatmap?t=&cols=&rows=&pollutant=   (and /v1/heatmap.png)")
	fmt.Println("  POST /v1/ingest")
	fmt.Println("  GET  /v1/stats")
	fmt.Println("  GET  /v1/pollutants")
	if p.Clustered() {
		fmt.Println("  GET  /v1/cluster")
		fmt.Println("  POST /v1/cluster/join  /v1/cluster/drain")
	}
	return serve(p, o.addr)
}

// serve runs the HTTP API until SIGINT/SIGTERM. On a clustered node,
// SIGTERM first drains: peers pull this node's shards and the
// membership commits without it, so a rolling shutdown loses no acked
// tuples. SIGINT (and a second SIGTERM) skips the drain and stops hard
// — replicas cover the shards until a promotion.
func serve(p *repro.Platform, addr string) error {
	srv := &http.Server{Addr: addr, Handler: p.Handler()}
	sigs := make(chan os.Signal, 2) //bounded: two pending signals at most matter (first drains, second aborts)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1) //bounded: one terminal server error
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case sig := <-sigs:
		if sig == syscall.SIGTERM && p.Clustered() {
			fmt.Println("SIGTERM: draining shards to peers before shutdown (SIGINT aborts)")
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			go func() { <-sigs; cancel() }()
			if err := p.Drain(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "envirometer-server: drain failed (shutting down anyway):", err)
			} else {
				fmt.Printf("drained: cluster committed epoch %d without this node\n", p.ClusterEpoch())
			}
			cancel()
		}
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return srv.Shutdown(shutCtx)
	}
}

func loadReadings(o options, pollutants []repro.Pollutant) (map[repro.Pollutant][]repro.Reading, error) {
	if o.data != "" {
		if len(pollutants) != 1 {
			return nil, fmt.Errorf("-data loads a single-pollutant CSV; got %d pollutants", len(pollutants))
		}
		f, err := os.Open(o.data)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		b, err := tuple.ReadCSV(f)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", o.data, err)
		}
		fmt.Printf("loaded %d raw tuples from %s\n", len(b), o.data)
		return map[repro.Pollutant][]repro.Reading{pollutants[0]: b}, nil
	}
	data, err := repro.SimulateLausanneMulti(o.seed, o.days*86400, pollutants)
	if err != nil {
		return nil, err
	}
	for pol, readings := range data {
		fmt.Printf("simulated %d %s raw tuples (%.1f days, seed %d)\n",
			len(readings), pol, o.days, o.seed)
	}
	return data, nil
}

// runLive pumps one pollutant's readings through the ingestion service at
// the configured speedup; ingestion errors terminate the stream but not
// the server.
func runLive(p *repro.Platform, pol repro.Pollutant, readings []repro.Reading, speedup float64) {
	replayer, err := ingest.NewReplayer(tuple.Batch(readings), 60)
	if err != nil {
		fmt.Fprintln(os.Stderr, "live ingest:", err)
		return
	}
	svc, err := ingest.NewService(replayer, platformSink{p: p, pol: pol}, ingest.Config{Speedup: speedup})
	if err != nil {
		fmt.Fprintln(os.Stderr, "live ingest:", err)
		return
	}
	if err := svc.Run(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, "live ingest stopped:", err)
		return
	}
	st := svc.Stats()
	fmt.Printf("live %s ingest complete: %d tuples in %d batches (%d rejected)\n",
		pol, st.Tuples, st.Batches, st.Rejected)
}

// platformSink adapts the public facade to the ingest.Sink interface,
// binding the pollutant the stream feeds.
type platformSink struct {
	p   *repro.Platform
	pol repro.Pollutant
}

func (s platformSink) Ingest(b tuple.Batch) error {
	return s.p.Ingest(context.Background(), s.pol, []repro.Reading(b))
}
