package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/ingest"
	"repro/internal/kmeans"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// counters is one reading of the layers' public *Stats, summed over the
// nodes (routing counters: node 0 only, the node the clients talk to).
type counters struct {
	pipeline ingest.PipelineStats
	sched    core.SchedulerStats
	durable  store.DurabilityStats
	routing  cluster.Stats
	streamed int64
	mismatch int64
	errors   int64
}

func readCounters(s *sut) counters {
	var c counters
	for i, m := range s.members {
		p, sc, d := m.eng.PipelineStats(), m.eng.SchedulerStats(), m.st.DurabilityStats()
		c.pipeline.Submitted += p.Submitted
		c.pipeline.Coalesced += p.Coalesced
		c.pipeline.Rejected += p.Rejected
		c.sched.Built += sc.Built
		c.sched.Dropped += sc.Dropped
		c.durable.Appends += d.Appends
		c.durable.Syncs += d.Syncs
		if m.cnode == nil {
			continue
		}
		st := m.cnode.Stats()
		if i == 0 {
			c.routing = st
		}
		c.mismatch += st.EpochMismatches
		c.errors += st.Errors
		if rs, ok := m.cnode.ReplicationStats(); ok {
			c.streamed += rs.Streamed
		}
	}
	return c
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// timeEach calls fn n times and returns the mean duration in seconds.
func timeEach(n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return time.Since(start).Seconds() / float64(n)
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// runTraced produces the per-layer metrics. It replays segment 1 twice
// on deployments assembled from the internal packages with the
// benchmark's span wrappers in place — once with the recorder off (the
// untraced reference, during which the layers' counters are read), once
// with it on — and then feeds the same inputs straight into each
// layer's public functions.
func (b *bench) runTraced(rep *report) error {
	lo, hi := b.in.segment(0)
	rec := newRecorder(b.in, 0, hi)
	writes := 0
	b.r.keep = map[int]bool{}
	for i := lo; i < hi; i++ {
		if b.in.ops[i].kind == opIngest {
			writes++
		}
		// The wire replay below needs every reply of the segment.
		b.r.keep[i] = !b.w.http
	}
	ops := float64(hi - lo)

	// Pass 1: recorder off.
	s, _, err := b.bringUpFull(rec)
	if err != nil {
		return fmt.Errorf("set-up (untraced pass): %w", err)
	}
	before := readCounters(s)
	untraced, err := b.segment(s, 0)
	if err != nil {
		return err
	}
	after := readCounters(s)
	b.host.sample()
	failed := b.r.failures()
	firstErr := b.r.firstErr
	if err := b.tearDown(s); err != nil {
		return err
	}

	// Pass 2: recorder on.
	if s, _, err = b.bringUpFull(rec); err != nil {
		return fmt.Errorf("set-up (traced pass): %w", err)
	}
	defer func() { b.tearDown(s) }()
	rec.on.Store(true)
	traced, err := b.segment(s, 0)
	rec.on.Store(false)
	if err != nil {
		return err
	}
	b.host.sample()
	failed += b.r.failures()
	if firstErr == nil {
		firstErr = b.r.firstErr
	}

	rep.MeasuredS = untraced + traced
	rep.attemptedAll, rep.failedAll = int64(2*(hi-lo)), failed
	for i := lo; i < hi; i++ {
		rep.Attempted[kindNames[b.in.ops[i].kind]] += 2
	}
	if firstErr != nil {
		rep.FirstError = firstErr.Error()
	}

	spans := rec.spans
	resolveParents(spans)
	self := selfTimes(spans)
	totals := aggregate(spans, self)
	checked, parallel, worst := treeCheck(spans, self)
	if rep.TraceFile, err = writeTrace(b.w.name, rep.Seed, spans); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	selfUS := func(name string) float64 {
		if t := totals[name]; t != nil {
			return float64(t.selfTotal) / 1e3 / ops
		}
		return 0
	}
	meanUS := func(name string) float64 {
		if t := totals[name]; t != nil && t.count > 0 {
			return float64(t.total) / 1e3 / float64(t.count)
		}
		return 0
	}
	rep.LayerShares = map[string]float64{}
	for name := range totals {
		rep.LayerShares[name] = selfUS(name)
	}
	rep.Samples["spans"] = len(spans)
	rep.Samples["roots_checked"] = checked
	rep.Samples["roots_with_parallel_children"] = parallel
	rep.Diagnostics = map[string]float64{
		"trace.self_time_sum_error_ns": float64(worst),
		"trace.untraced_ops_per_s":     ops / untraced,
		"trace.traced_ops_per_s":       ops / traced,
	}

	m0 := s.members[0]
	pl := map[string]float64{
		"e2e.trace_overhead_pct": (traced/untraced - 1) * 100,
		"proto.null_rtt_us":      b.host.nullRTT(pointProbes),
		"core.builds_per_write":  ratio(float64(after.sched.Built-before.sched.Built), float64(writes)),
		"core.sched_dropped":     float64(after.sched.Dropped),
		"ingest.coalesced_ratio": ratio(float64(after.pipeline.Coalesced-before.pipeline.Coalesced), float64(after.pipeline.Submitted-before.pipeline.Submitted)),
		"ingest.rejected":        float64(after.pipeline.Rejected - before.pipeline.Rejected),
		"store.fsyncs_per_append": ratio(float64(after.durable.Syncs-before.durable.Syncs),
			float64(after.durable.Appends-before.durable.Appends)),
	}
	rep.PerLayer = pl
	if b.w.http {
		var body float64
		for i := lo; i < hi; i++ {
			body += float64(b.r.size[i])
		}
		pl["server.http_handle_us"] = meanUS("server.http")
		pl["server.http_overhead_us"] = selfUS("op")
		pl["server.json_bytes_per_op"] = body / ops
	} else {
		pl["proto.transport_us"] = selfUS("op")
		pl["server.handle_us"] = selfUS("server.handle")
		b.replayWire(pl, lo, hi)
	}
	if b.w.nodes > 1 {
		routed := after.routing.Local + after.routing.Forwarded - before.routing.Local - before.routing.Forwarded
		pl["cluster.handle_us"] = selfUS("cluster.handle")
		pl["cluster.peer_exchange_us"] = meanUS("peer.exchange")
		if t := totals["peer.exchange"]; t != nil {
			pl["cluster.peer_exchanges_per_op"] = float64(t.count) / ops
		}
		pl["cluster.forwarded_share"] = ratio(float64(after.routing.Forwarded-before.routing.Forwarded), float64(routed))
		pl["cluster.replica_frames_per_write"] = ratio(float64(after.streamed-before.streamed), float64(writes))
		pl["cluster.epoch_mismatches"] = float64(after.mismatch)
		pl["cluster.errors"] = float64(after.errors)
		ring := m0.cnode.Ring()
		pts := b.routePoints(lo, hi, 100_000)
		pl["cluster.ring_owner_ns"] = 1e9 * timeEach(len(pts), func(i int) {
			ring.Owner(pollutant, geo.Point{X: pts[i].X, Y: pts[i].Y})
		})
	}
	if err := b.replayEngine(pl, m0, lo, hi); err != nil {
		return err
	}
	if err := b.replayWrites(pl, lo, hi); err != nil {
		return err
	}
	if err := b.replayCheckpoint(pl, s); err != nil {
		return err
	}
	rep.Correct = failed == 0 && worst == 0
	if !rep.Correct {
		rep.OracleError = fmt.Sprintf("%d failed operations (first: %v); self-time sums off by up to %d ns", failed, firstErr, worst)
	}
	return nil
}

// routePoints collects up to n route points of the segment's reads.
func (b *bench) routePoints(lo, hi, n int) []query.Request {
	var pts []query.Request
	for len(pts) < n {
		grew := false
		for i := lo; i < hi && len(pts) < n; i++ {
			for _, p := range b.in.ops[i].pts {
				pts = append(pts, query.Request{T: p.T, X: p.X, Y: p.Y, Pollutant: p.Pollutant})
				grew = true
			}
		}
		if !grew {
			break
		}
	}
	return pts
}

// replayWire runs wire.Binary.Encode and Decode over every request and
// every reply of the segment, alone on one goroutine.
func (b *bench) replayWire(pl map[string]float64, lo, hi int) {
	type pair struct{ req, resp wire.Message }
	var msgs []pair
	for i := lo; i < hi; i++ {
		if rep, ok := b.r.kept[i]; ok {
			msgs = append(msgs, pair{b.in.ops[i].message(), rep.msg})
		}
	}
	if len(msgs) == 0 {
		return
	}
	var reqBytes, respBytes int
	m0 := mallocs()
	perOp := timeEach(len(msgs), func(i int) {
		reqBytes += codecRoundTrip(msgs[i].req)
		respBytes += codecRoundTrip(msgs[i].resp)
	})
	n := float64(len(msgs))
	pl["wire.codec_us"] = perOp * 1e6
	pl["wire.allocs_per_op"] = float64(mallocs()-m0) / n
	pl["wire.req_bytes_per_op"] = float64(reqBytes) / n
	pl["wire.resp_bytes_per_op"] = float64(respBytes) / n
}

// codecRoundTrip encodes and decodes one message and returns its
// encoded size.
func codecRoundTrip(m wire.Message) int {
	payload, err := wire.Binary.Encode(m)
	if err != nil {
		return 0
	}
	_, _ = wire.Binary.Decode(payload) // timed, not used
	return len(payload)
}

// replayEngine times the read-side layers in process on node 0: the
// engine's batch and point queries, cover lookup and evaluation, cover
// construction, k-means, window reads and the heatmap raster.
func (b *bench) replayEngine(pl map[string]float64, m *member, lo, hi int) error {
	ctx := b.ctx
	pts := b.routePoints(lo, hi, 20_000)
	if len(pts) == 0 {
		return fmt.Errorf("segment has no route reads")
	}
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	batches := len(pts) / routePoints
	pl["query.batch_us_per_point"] = 1e6 / routePoints * timeEach(batches, func(i int) {
		_, err := m.eng.QueryBatch(ctx, pts[i*routePoints:(i+1)*routePoints])
		note(err)
	})
	pl["query.point_us"] = 1e6 * timeEach(min(len(pts), 5000), func(i int) {
		_, err := m.eng.Query(ctx, pts[i])
		note(err)
	})

	mnt, err := m.eng.MaintainerFor(pollutant)
	if err != nil {
		return err
	}
	// The windows the segment's reads touch and this node holds, oldest
	// first, and the points inside them.
	seen := map[int]bool{}
	var windows []int
	held := pts[:0:0]
	for _, p := range pts {
		c := tuple.WindowIndex(p.T, windowSeconds)
		if m.st.WindowLen(c) == 0 {
			continue
		}
		held = append(held, p)
		if !seen[c] {
			seen[c] = true
			windows = append(windows, c)
		}
	}
	sort.Ints(windows)
	if pts = held; len(windows) == 0 {
		return fmt.Errorf("segment's reads touch no retained window")
	}
	covers := make([]*core.Cover, len(windows))
	regions := 0.0
	for i, c := range windows {
		if covers[i], err = mnt.CoverFor(c); err != nil {
			return fmt.Errorf("cover of window %d: %w", c, err)
		}
		regions += float64(covers[i].Size())
	}
	pl["core.cover_regions"] = regions / float64(len(windows))
	pl["core.cover_hit_us"] = 1e6 * timeEach(20_000, func(i int) {
		_, err := mnt.CoverFor(windows[i%len(windows)])
		note(err)
	})
	// CoverAt is the call the engine's query path makes per point.
	pl["core.cover_at_us"] = 1e6 * timeEach(5000, func(i int) {
		_, err := mnt.CoverAt(pts[i%len(pts)].T)
		note(err)
	})
	pl["core.interpolate_ns"] = 1e9 * timeEach(len(pts), func(i int) {
		p := pts[i]
		cv := covers[sort.SearchInts(windows, tuple.WindowIndex(p.T, windowSeconds))]
		_, err := cv.Interpolate(p.T, p.X, p.Y)
		note(err)
	})
	pl["store.window_us"] = 1e6 * timeEach(2000, func(i int) {
		m.st.Window(windows[i%len(windows)])
	})

	// Cover construction over (at most 12 of) the touched windows.
	build := windows[max(0, len(windows)-12):]
	cfg := core.Config{Pollutant: pollutant}
	a0 := mallocs()
	pl["core.build_ms"] = 1e3 * timeEach(len(build), func(i int) {
		_, err := core.BuildCover(m.st.Window(build[i]), build[i], windowSeconds, cfg)
		note(err)
	})
	pl["core.build_allocs"] = float64(mallocs()-a0) / float64(len(build))
	pl["kmeans.cluster_ms"] = 1e3 * timeEach(len(build), func(i int) {
		cv := covers[len(covers)-len(build)+i]
		_, err := kmeans.Run(m.st.Window(build[i]).Positions(), cv.Size(), kmeans.Config{Seed: 1})
		note(err)
	})

	pl["heatmap.raster_ms"] = 1e3 * timeEach(200, func(i int) {
		t := (float64(windows[i%len(windows)]) + 0.5) * windowSeconds
		_, err := m.eng.Heatmap(ctx, pollutant, t, heatmapSide, heatmapSide)
		note(err)
	})
	return firstErr
}

// replayWrites feeds the segment's write batches to a fresh pipeline
// whose sink appends them to a fresh durable store opened with the
// workload's configuration. The sink times the append, so what is left
// of a Submit is the wait in the pipeline: queue, hand-off to the
// worker and the acknowledgement back.
func (b *bench) replayWrites(pl map[string]float64, lo, hi int) error {
	var batches []tuple.Batch
	for i := lo; i < hi; i++ {
		if o := &b.in.ops[i]; o.kind == opIngest {
			batches = append(batches, o.tuples)
		}
	}
	dir, err := os.MkdirTemp(dataRoot, "append-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(store.Config{
		WindowLength: windowSeconds, Retain: b.w.retain, Dir: dir,
		Columnar: store.ColumnarConfig{Enabled: b.w.columnar},
	})
	if err != nil {
		return err
	}
	var inSink time.Duration // written by the pipeline's one worker, read after Close
	pipe, err := ingest.NewPipeline(func(_ tuple.Pollutant, batch tuple.Batch) error {
		start := time.Now()
		err := st.Append(batch)
		inSink += time.Since(start)
		return err
	}, ingest.PipelineConfig{})
	if err != nil {
		st.Close()
		return err
	}
	var firstErr error
	submit := timeEach(len(batches), func(i int) {
		if err := pipe.Submit(b.ctx, pollutant, batches[i]); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	if err := pipe.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := st.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if len(batches) > 0 {
		appendS := inSink.Seconds() / float64(len(batches))
		pl["ingest.submit_us"] = submit * 1e6
		pl["ingest.queue_wait_us"] = (submit - appendS) * 1e6
		pl["store.append_us"] = appendS * 1e6
	}
	return firstErr
}

// replayCheckpoint checkpoints every node, sizes what that wrote, and
// recovers a copy of node 0's store; with columnar checkpoints the
// recovered windows are lazy and are then scanned.
func (b *bench) replayCheckpoint(pl map[string]float64, s *sut) error {
	start := time.Now()
	if err := s.checkpoint(); err != nil {
		return err
	}
	pl["store.checkpoint_ms"] = time.Since(start).Seconds() * 1e3 / float64(len(s.members))
	row, err := s.diskBytes("checkpoint-")
	if err != nil {
		return err
	}
	side, err := s.diskBytes("colblock-")
	if err != nil {
		return err
	}
	var deleted, tuples int64
	for _, m := range s.members {
		ck := m.st.CheckpointStats()
		deleted += ck.SegmentsDeleted
		tuples += ck.LastTuples
	}
	pl["store.checkpoint_bytes"] = float64(row)
	pl["store.segments_deleted"] = float64(deleted)
	pl["colblock.sidecar_bytes_per_tuple"] = ratio(float64(side), float64(tuples))

	dir, err := os.MkdirTemp(dataRoot, "recover-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := copyTree(filepath.Join(s.members[0].dir, pollutant.String()), dir); err != nil {
		return err
	}
	start = time.Now()
	st, err := store.Open(store.Config{
		WindowLength: windowSeconds, Retain: b.w.retain, Dir: dir,
		Columnar: store.ColumnarConfig{Enabled: b.w.columnar},
	})
	if err != nil {
		return fmt.Errorf("recover the checkpointed store: %w", err)
	}
	defer st.Close()
	pl["store.recover_ms"] = time.Since(start).Seconds() * 1e3
	if !b.w.columnar {
		return nil
	}
	windows := st.WindowIndexes()
	windows = windows[:min(len(windows), 48)]
	c0 := st.ColumnarStats()
	// A region scan first, while the windows are still lazy: zone maps
	// prune the blocks outside a 500 m box.
	box := geo.Rect{Min: geo.Point{X: 1000, Y: 600}, Max: geo.Point{X: 1500, Y: 1100}}
	for _, c := range windows {
		st.WindowRegion(c, box)
	}
	c1 := st.ColumnarStats()
	pl["colblock.pruned_ratio"] = ratio(float64(c1.BlocksPruned-c0.BlocksPruned),
		float64(c1.BlocksPruned-c0.BlocksPruned+c1.BlocksScanned-c0.BlocksScanned))
	pl["colblock.scan_us_per_window"] = 1e6 * timeEach(len(windows), func(i int) {
		st.Window(windows[i])
	})
	c2 := st.ColumnarStats()
	pl["colblock.bytes_read_per_window"] = ratio(float64(c2.BytesRead-c1.BytesRead), float64(len(windows)))
	return nil
}
