// Package server implements the EnviroMeter server: the query-processing
// engine that answers protocol messages (used both by the simulated
// cellular transport and the HTTP API), and the HTTP/JSON interface that
// replaces the demo's web UI.
package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/geo"
	"repro/internal/heatmap"
	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/subs"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// ErrEngineClosed is returned by writes against a closed engine — the
// HTTP layer maps it to 503. It is the pipeline's own closed sentinel, so
// a closed owner reads the same whether it was hit locally or across the
// cluster.
var ErrEngineClosed = ingest.ErrPipelineClosed

// CheckpointConfig tunes the durability checkpoints of the engine's
// stores. The zero value disables automatic checkpoints; Checkpoint can
// always be called manually.
type CheckpointConfig struct {
	// Interval between automatic checkpoints of every shard's store.
	// A positive interval also makes Close checkpoint once the pipeline
	// has drained.
	// 0 disables the periodic trigger.
	Interval time.Duration
	// KeepSegments is forwarded by the facade into each store's
	// configuration: how many checkpoint-covered segment files each
	// compaction spares as a raw-history safety margin.
	KeepSegments int
}

// Options tunes the engine's asynchronous machinery: the ingest
// pipeline queues, the background cover-maintenance scheduler, and the
// checkpoint trigger. The zero value uses the packages' defaults.
type Options struct {
	// Pipeline configures the per-pollutant ingest queues.
	Pipeline ingest.PipelineConfig
	// Scheduler configures the background cover builder; Workers < 0
	// disables it, leaving every cover build on the query path.
	Scheduler core.SchedulerConfig
	// Checkpoint configures periodic store checkpoints (the engine only
	// uses Interval; KeepSegments is applied where the stores are
	// opened).
	Checkpoint CheckpointConfig
}

// CheckpointStats aggregates checkpoint and recovery activity across
// every pollutant shard's store.
type CheckpointStats struct {
	// Checkpoints, Failures, LastWindows and LastTuples sum the shards'
	// store.CheckpointStats.
	Checkpoints int64 `json:"checkpoints"`
	Failures    int64 `json:"failures"`
	// SegmentsDeleted is every segment file reclaimed, by checkpoint
	// compaction and by recovery at Open — the store keeps the two
	// apart; the aggregate reports total disk reclaimed.
	SegmentsDeleted int64 `json:"segmentsDeleted"`
	LastWindows     int64 `json:"lastWindows"`
	LastTuples      int64 `json:"lastTuples"`
	// RecoveredShards counts shards whose last Open restored state from
	// a checkpoint rather than full log replay.
	RecoveredShards int `json:"recoveredShards"`
	// SegmentsReplayed, TuplesReplayed and TuplesFromCheckpoint sum the
	// shards' store.RecoveryStats.
	SegmentsReplayed     int `json:"segmentsReplayed"`
	TuplesReplayed       int `json:"tuplesReplayed"`
	TuplesFromCheckpoint int `json:"tuplesFromCheckpoint"`
}

// shard is one pollutant's slice of the engine: its raw-tuple store and
// its model-cover maintainer. Covers of different pollutants never mix.
type shard struct {
	st         *store.Store
	maintainer *core.Maintainer
}

// Engine answers the v1 query API over one store-and-maintainer shard per
// monitored pollutant. It serves the wire protocol (query tuples with
// interpolated values, model requests with the full (t_n, µ, M) payload)
// and is safe for concurrent use; the shard set is fixed at construction.
//
// Writes flow through an asynchronous pipeline: Ingest enqueues onto the
// pollutant's bounded queue and blocks until the (possibly coalesced)
// store append covering the upload completes — with a durable store,
// until that append is fsynced. Each applied append invalidates the
// touched windows, which the background scheduler drains into prioritized,
// coalesced cover rebuilds. Reads never wait for those: until a window's
// rebuild is installed they are answered from its previous cover, so a
// read right after an ingest ack may be behind it — for at most the
// rebuild's queue wait plus one build, and one more build time for a
// window that is written faster than it can be rebuilt (see
// core.Scheduler). Scheduler().Wait() is the barrier after which every
// answer reflects every acknowledged tuple; an engine built with
// Options.Scheduler.Workers < 0 has no background builders, drops a
// written window's cover at once and rebuilds it on the next read
// (read-your-writes, the build on the query path).
type Engine struct {
	shards map[tuple.Pollutant]*shard
	def    tuple.Pollutant

	pipeline *ingest.Pipeline
	sched    *core.Scheduler // nil when disabled
	registry *subs.Registry
	unwatch  []func()
	closed   atomic.Bool

	// etagNonce, drawn once per engine, is hashed into every
	// continuous-query ETag: served generations restart with the process,
	// so without it a tag from before a restart could name another cover
	// after it.
	etagNonce uint64

	// ckStop ends the periodic checkpoint goroutine (nil when no
	// Interval was configured); ckWG waits for it on Close.
	ckStop chan struct{}
	ckWG   sync.WaitGroup

	// ckMu guards ckActive, the checkpoint pass running, and ckNext, the
	// one that follows it: a call that lands while a pass is running may
	// come after that pass took its snapshot, so it shares the next pass
	// with every other call that lands meanwhile instead of joining the
	// running one — every caller returns only after a full pass that began
	// after their call.
	ckMu     sync.Mutex
	ckActive *ckFlight
	ckNext   *ckFlight

	// ingestTestGate, when set (by tests in this package, before any
	// ingest), runs inside the pipeline sink — the hook tests use to hold
	// the ingest worker and saturate the queue deterministically.
	ingestTestGate func(p tuple.Pollutant)
	// invalidateTestHook, when set (by tests in this package, before any
	// ingest), runs inside the pipeline sink for each window the sink
	// invalidates, just before it does.
	invalidateTestHook func(p tuple.Pollutant, c int)
}

// NewEngine creates a single-pollutant engine over st with the given
// Ad-KMN configuration; the monitored pollutant is cfg.Pollutant (CO2 by
// default). Unlike NewMultiEngineOpts it tolerates an out-of-range
// cfg.Pollutant, matching the pre-v1 constructor's leniency.
func NewEngine(st *store.Store, cfg core.Config) *Engine {
	e := &Engine{
		shards: map[tuple.Pollutant]*shard{
			cfg.Pollutant: {st: st, maintainer: core.NewMaintainer(st, cfg)},
		},
		def:       cfg.Pollutant,
		etagNonce: rand.Uint64(),
	}
	e.startAsync(Options{})
	return e
}

// NewMultiEngineOpts creates an engine with one shard per pollutant.
// Each shard's maintainer runs Ad-KMN with cfg, its Pollutant field
// rebound to the shard's key. The default pollutant (used by
// parameterless HTTP calls) is cfg.Pollutant when monitored,
// otherwise the smallest monitored key. opts tunes the ingest pipeline
// and the cover-maintenance scheduler.
func NewMultiEngineOpts(stores map[tuple.Pollutant]*store.Store, cfg core.Config, opts Options) (*Engine, error) {
	if len(stores) == 0 {
		return nil, errors.New("server: no pollutant stores")
	}
	e := &Engine{shards: make(map[tuple.Pollutant]*shard, len(stores)), etagNonce: rand.Uint64()}
	for pol, st := range stores {
		if !pol.Valid() {
			return nil, fmt.Errorf("%w: %v", query.ErrUnknownPollutant, pol)
		}
		if st == nil {
			return nil, fmt.Errorf("server: nil store for pollutant %v", pol)
		}
		shardCfg := cfg
		shardCfg.Pollutant = pol
		e.shards[pol] = &shard{st: st, maintainer: core.NewMaintainer(st, shardCfg)}
	}
	if _, ok := e.shards[cfg.Pollutant]; ok {
		e.def = cfg.Pollutant
	} else {
		e.def = e.Pollutants()[0]
	}
	e.startAsync(opts)
	return e, nil
}

// startAsync wires the write path: the ingest pipeline draining into
// ingestSink, and the scheduler watching every shard's invalidations.
func (e *Engine) startAsync(opts Options) {
	e.sched = core.NewScheduler(opts.Scheduler)
	if e.sched != nil {
		for _, sh := range e.shards {
			e.unwatch = append(e.unwatch, e.sched.Watch(sh.maintainer))
		}
	}
	// The subscription registry follows the covers, not the writes: a
	// (pollutant, window) is offered to the overlap index when its
	// rebuilt cover is installed (or its cover is hard-dropped), so the
	// subscriptions bound to it re-evaluate against the new answer. The
	// hook itself never evaluates, so the builders stay decoupled from
	// the push machinery.
	e.registry = subs.NewRegistry(e.subsEvaluate, e.subsWindowLen)
	for pol, sh := range e.shards {
		pol := pol
		e.unwatch = append(e.unwatch, sh.maintainer.OnChange(func(c int) {
			e.registry.Invalidated(pol, c)
		}))
	}
	// NewPipeline only fails on a nil sink.
	e.pipeline, _ = ingest.NewPipeline(e.ingestSink, opts.Pipeline)
	if opts.Checkpoint.Interval > 0 {
		e.ckStop = make(chan struct{}) //bounded: stop latch; closed by Close, never sent on
		e.ckWG.Add(1)
		go func() {
			defer e.ckWG.Done()
			t := time.NewTicker(opts.Checkpoint.Interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					// A failed periodic checkpoint is already counted in
					// the store's Failures; the next tick retries.
					_ = e.Checkpoint()
				case <-e.ckStop:
					return
				}
			}
		}()
	}
}

// ckFlight is one engine checkpoint pass: its callers wait on done and
// share err. after is the pass that was running when it was set up, which
// it starts behind.
type ckFlight struct {
	done  chan struct{}
	after *ckFlight
	err   error
}

// Checkpoint persists every shard's retained windows and compacts their
// segment logs (see store.Checkpoint). Shard failures are joined; each
// shard checkpoints independently, so one failing disk does not stop
// the others. Concurrent calls — the periodic ticker overlapping a
// manual trigger, or two manual triggers — share passes: a call made
// while a pass runs cannot join it, since the pass may already hold its
// snapshot without the writes acknowledged before the call, so every such
// call shares the one pass that starts when the running one ends, and
// returns its error. However many calls land during a pass, one follows
// it.
//
//ctxcheck:allow the only waits are for checkpoint passes, each of which always closes done
func (e *Engine) Checkpoint() error {
	e.ckMu.Lock()
	switch {
	case e.ckNext != nil:
	case e.ckActive != nil:
		e.ckNext = &ckFlight{done: make(chan struct{}), after: e.ckActive} //bounded: signal-only completion latch; closed once, nothing sends
	default:
		f := &ckFlight{done: make(chan struct{})} //bounded: signal-only completion latch; closed once, nothing sends
		e.ckActive = f
		e.ckMu.Unlock()
		return e.runCheckpoint(f)
	}
	f := e.ckNext
	e.ckMu.Unlock()
	<-f.after.done
	// The first of the pass's callers to get here runs it; the others
	// wait for it.
	e.ckMu.Lock()
	if e.ckNext == f {
		e.ckNext, e.ckActive = nil, f
		e.ckMu.Unlock()
		return e.runCheckpoint(f)
	}
	e.ckMu.Unlock()
	<-f.done
	return f.err
}

// runCheckpoint runs pass f, which is e.ckActive, and ends it.
func (e *Engine) runCheckpoint(f *ckFlight) error {
	var errs []error
	for _, pol := range e.Pollutants() {
		if err := e.shards[pol].st.Checkpoint(); err != nil {
			errs = append(errs, fmt.Errorf("server: checkpoint %v: %w", pol, err))
		}
	}
	f.err = errors.Join(errs...)
	e.ckMu.Lock()
	e.ckActive = nil
	e.ckMu.Unlock()
	close(f.done)
	return f.err
}

// CheckpointStats aggregates the shards' checkpoint and recovery
// counters.
func (e *Engine) CheckpointStats() CheckpointStats {
	var out CheckpointStats
	for _, sh := range e.shards {
		cs := sh.st.CheckpointStats()
		out.Checkpoints += cs.Checkpoints
		out.Failures += cs.Failures
		out.SegmentsDeleted += cs.SegmentsDeleted
		out.LastWindows += cs.LastWindows
		out.LastTuples += cs.LastTuples
		rs := sh.st.RecoveryStats()
		if rs.FromCheckpoint {
			out.RecoveredShards++
			out.TuplesFromCheckpoint += rs.CheckpointTuples
		}
		out.SegmentsReplayed += rs.SegmentsReplayed
		out.TuplesReplayed += rs.TuplesReplayed
		out.SegmentsDeleted += int64(rs.SegmentsDeleted)
	}
	return out
}

// ColumnarStats aggregates the shards' columnar scan-path counters
// (checkpoint files written, lazy windows, blocks read and zone-map
// prunes, failed materializations).
func (e *Engine) ColumnarStats() store.ColumnarStats {
	var out store.ColumnarStats
	for _, sh := range e.shards {
		out.Add(sh.st.ColumnarStats())
	}
	return out
}

// WarmPrime queues background cover builds for every retained window
// that has no cover yet, across all shards — the post-restart step that
// turns replayed raw windows back into query-ready covers without
// putting Ad-KMN on the first query's path. A no-op when the scheduler
// is disabled.
func (e *Engine) WarmPrime() {
	if e.sched == nil {
		return
	}
	for _, pol := range e.Pollutants() {
		e.sched.WarmPrime(e.shards[pol].maintainer)
	}
}

// Close shuts the write path down: the pipeline stops accepting uploads
// and drains what it holds (every queued upload is still applied and
// acknowledged), a final checkpoint runs when Checkpoint.Interval is
// set, the scheduler finishes in-flight builds and discards the rest,
// and the maintainers detach from their stores' eviction and checkpoint
// hooks. The read path keeps working: detaching the scheduler hard-drops
// every cover still waiting for a rebuild, so a read after Close builds
// from the window's final contents instead of serving a stale cover
// forever.
func (e *Engine) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	if e.ckStop != nil {
		close(e.ckStop)
		e.ckWG.Wait()
	}
	err := e.pipeline.Close()
	if e.ckStop != nil {
		// Before the maintainers detach: the checkpoint takes its seeds
		// from them, so the next open refits what this one wrote.
		if ckErr := e.Checkpoint(); ckErr != nil {
			err = errors.Join(err, fmt.Errorf("server: close checkpoint: %w", ckErr))
		}
	}
	for _, u := range e.unwatch {
		u()
	}
	e.registry.Close()
	e.sched.Close()
	for _, sh := range e.shards {
		sh.maintainer.Close()
	}
	return err
}

// Scheduler exposes the background build scheduler (nil when disabled) —
// tests and benchmarks use it to await quiescence.
func (e *Engine) Scheduler() *core.Scheduler { return e.sched }

// PipelineStats returns the ingest pipeline counters.
func (e *Engine) PipelineStats() ingest.PipelineStats { return e.pipeline.Stats() }

// SchedulerStats returns the cover-maintenance scheduler counters (zero
// when the scheduler is disabled).
func (e *Engine) SchedulerStats() core.SchedulerStats { return e.sched.Stats() }

// Pollutants lists the monitored pollutants in stable (ascending) order.
func (e *Engine) Pollutants() []tuple.Pollutant {
	out := make([]tuple.Pollutant, 0, len(e.shards))
	for p := range e.shards {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Default returns the pollutant untagged HTTP requests resolve to.
func (e *Engine) Default() tuple.Pollutant { return e.def }

// Serves reports whether the engine monitors pollutant p.
func (e *Engine) Serves(p tuple.Pollutant) bool {
	_, ok := e.shards[p]
	return ok
}

// shardFor resolves the shard serving p, or ErrUnknownPollutant.
func (e *Engine) shardFor(p tuple.Pollutant) (*shard, error) {
	sh, ok := e.shards[p]
	if !ok {
		return nil, fmt.Errorf("%w: %v not monitored", query.ErrUnknownPollutant, p)
	}
	return sh, nil
}

// StoreFor returns the tuple store of pollutant p.
func (e *Engine) StoreFor(p tuple.Pollutant) (*store.Store, error) {
	sh, err := e.shardFor(p)
	if err != nil {
		return nil, err
	}
	return sh.st, nil
}

// MaintainerFor returns the cover maintainer of pollutant p.
func (e *Engine) MaintainerFor(p tuple.Pollutant) (*core.Maintainer, error) {
	sh, err := e.shardFor(p)
	if err != nil {
		return nil, err
	}
	return sh.maintainer, nil
}

// coverAt resolves the cover serving stream time t on shard sh, mapping
// failures onto the v1 error taxonomy: a window with no retained data is
// ErrOutOfWindow, a window whose cover cannot be built is ErrNoCover.
func (sh *shard) coverAt(ctx context.Context, t float64) (*core.Cover, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if t < 0 {
		return nil, fmt.Errorf("%w: negative time %v", query.ErrOutOfWindow, t)
	}
	cv, err := sh.maintainer.CoverAt(t)
	if err != nil {
		c := tuple.WindowIndex(t, sh.st.WindowLength())
		if sh.st.WindowLen(c) == 0 {
			return nil, fmt.Errorf("%w: t=%v (window %d holds no data)", query.ErrOutOfWindow, t, c)
		}
		return nil, fmt.Errorf("%w: %v", query.ErrNoCover, err)
	}
	return cv, nil
}

// Query answers one v1 request from the pollutant's model cover.
func (e *Engine) Query(ctx context.Context, req query.Request) (float64, error) {
	if err := req.Validate(); err != nil {
		return 0, err
	}
	sh, err := e.shardFor(req.Pollutant)
	if err != nil {
		return 0, err
	}
	cv, err := sh.coverAt(ctx, req.T)
	if err != nil {
		return 0, err
	}
	return cv.Interpolate(req.T, req.X, req.Y)
}

// QueryBatch answers a batch of v1 requests (requests may mix
// pollutants) with per-index results: one BatchResult per request, in
// order, each carrying its own value or error. It is the allocating form
// of the engine's one batch executor, runBatch, which the wire path runs
// on memory it lends instead. A bad request does not reject the batch:
// its slot carries the error and every other request is still answered.
// The call-level error is reserved for an empty batch and for context
// cancellation, which marks the slots left unanswered with the context
// error.
func (e *Engine) QueryBatch(ctx context.Context, reqs []query.Request) ([]query.BatchResult, error) {
	if len(reqs) == 0 {
		return nil, errEmptyBatch
	}
	results := make([]query.BatchResult, len(reqs))
	return results, e.QueryBatchInto(ctx, reqs, results)
}

var errEmptyBatch = errors.New("server: empty query batch")

// QueryBatchInto is QueryBatch answering into out, one result per request:
// a caller that reuses out allocates nothing for the results.
func (e *Engine) QueryBatchInto(ctx context.Context, reqs []query.Request, out []query.BatchResult) error {
	if len(reqs) == 0 {
		return errEmptyBatch
	}
	return runBatch(ctx, e, len(reqs), resultSlots{reqs: reqs, out: out[:len(reqs)]})
}

// batchSlots is the memory a batch executes in, owned by its caller:
// request i is read from it and result i written into it, so the executor
// copies neither the requests nor the results.
type batchSlots interface {
	request(i int) query.Request
	answer(i int, v float64, err error)
}

// resultSlots is QueryBatch's memory: the caller's requests, and the
// results it returns.
type resultSlots struct {
	reqs []query.Request
	out  []query.BatchResult
}

func (s resultSlots) request(i int) query.Request { return s.reqs[i] }

func (s resultSlots) answer(i int, v float64, err error) {
	s.out[i] = query.BatchResult{Value: v, Err: err}
}

// wireSlots is a wire batch's memory: the decoded request's items, and the
// response items the engine lends. A failure becomes its item's coded
// error, so the far side restores the same sentinel.
type wireSlots struct {
	reqs []wire.QueryRequest
	out  []wire.BatchQueryItem
}

func (s wireSlots) request(i int) query.Request {
	it := s.reqs[i]
	return query.Request{T: it.T, X: it.X, Y: it.Y, Pollutant: it.Pollutant}
}

func (s wireSlots) answer(i int, v float64, err error) {
	if err != nil {
		s.out[i] = wire.FailedItem(cluster.CodeOf(err), err.Error())
		return
	}
	s.out[i] = wire.BatchQueryItem{Value: v}
}

// runBatch is the batch executor (see QueryBatch): it answers the n
// requests of s into s, in order, on the calling goroutine: a warm
// answer is a cover lookup and one model evaluation, cheaper than handing
// it to another goroutine. Every slot is written, with the context error
// for slots a cancellation left unanswered; the returned error is
// reserved for that cancellation.
func runBatch[S batchSlots](ctx context.Context, e *Engine, n int, s S) error {
	for i := range n {
		if err := ctx.Err(); err != nil {
			s.answer(i, 0, err) // drain: mark remaining slots without querying
			continue
		}
		v, err := e.batchItem(ctx, s.request(i))
		s.answer(i, v, err)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("server: query batch: %w", err)
	}
	return nil
}

// batchItem answers one batch slot, containing panics: a panic while
// serving one item would otherwise fail the whole batch, or kill the
// process, so it becomes that item's error instead.
func (e *Engine) batchItem(ctx context.Context, req query.Request) (v float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			v, err = 0, fmt.Errorf("server: batch item panic: %v", r)
		}
	}()
	return e.Query(ctx, req)
}

// CoverAt returns pollutant p's model cover valid at stream time t.
func (e *Engine) CoverAt(ctx context.Context, p tuple.Pollutant, t float64) (*core.Cover, error) {
	sh, err := e.shardFor(p)
	if err != nil {
		return nil, err
	}
	return sh.coverAt(ctx, t)
}

// Ingest submits a batch of raw tuples for pollutant p through the
// asynchronous pipeline and blocks until the append covering it
// completes (with a durable store under the default sync policy, until
// that append is fsynced). A full queue blocks. Applied windows are
// invalidated: those a reader holds are queued for a background cover
// rebuild, and until it lands reads of them are answered from their
// previous covers; a window nobody has read is modeled by its first
// reader.
func (e *Engine) Ingest(ctx context.Context, p tuple.Pollutant, b tuple.Batch) error {
	return e.ingest(ctx, p, b, false)
}

// TryIngest is Ingest that never waits for queue space: a saturated
// pollutant queue fails fast with ingest.ErrSaturated. The HTTP ingest
// edge uses it to shed load as 429s.
func (e *Engine) TryIngest(ctx context.Context, p tuple.Pollutant, b tuple.Batch) error {
	return e.ingest(ctx, p, b, true)
}

func (e *Engine) ingest(ctx context.Context, p tuple.Pollutant, b tuple.Batch, try bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if e.closed.Load() {
		return ErrEngineClosed
	}
	if _, err := e.shardFor(p); err != nil {
		return err
	}
	if try {
		return e.pipeline.TrySubmit(ctx, p, b)
	}
	return e.pipeline.Submit(ctx, p, b)
}

// ingestSink applies one (possibly coalesced) upload group: the durable
// store append, then invalidation of the touched windows — which feeds
// the scheduler's background rebuild queue. Windows the batch touched
// that are already behind the retention horizon (the append itself
// evicted them) are NOT invalidated: the maintainer's eviction hook has
// dropped their covers and scheduling a rebuild would be dead work.
func (e *Engine) ingestSink(p tuple.Pollutant, b tuple.Batch) error {
	sh := e.shards[p] // pollutant validated before submit
	if e.ingestTestGate != nil {
		e.ingestTestGate(p)
	}
	err := sh.st.Append(b)
	// Invalidate even when Append errors: a sync failure still applies
	// the batch to the in-memory windows (only its durability is in
	// doubt), and skipping invalidation would serve covers that exclude
	// visible data forever. For a failure that applied nothing, the
	// WindowLen check below skips empty windows and a spurious rebuild
	// of an unchanged window is merely wasted background work.
	//
	// Uploads are time-ordered, so the touched windows are the runs of
	// equal window index — a handful per batch; seen catches a window
	// that an unsorted upload returns to, and stays on the stack for any
	// batch spanning ≤ 8 windows.
	var (
		wl    = sh.st.WindowLength()
		stack [8]int
		seen  = stack[:0]
		prev  int
	)
	for i, r := range b {
		c := tuple.WindowIndex(r.T, wl)
		if i > 0 && c == prev {
			continue
		}
		prev = c
		if slices.Contains(seen, c) {
			continue
		}
		seen = append(seen, c)
		if sh.st.WindowLen(c) == 0 {
			continue // evicted or out of retention: never queue dead builds
		}
		if e.invalidateTestHook != nil {
			e.invalidateTestHook(p, c)
		}
		sh.maintainer.Invalidate(c)
	}
	return err
}

// Model returns the wire form of pollutant p's cover at t — what a
// model-cache client downloads.
func (e *Engine) Model(ctx context.Context, p tuple.Pollutant, t float64) (wire.ModelResponse, error) {
	cv, err := e.CoverAt(ctx, p, t)
	if err != nil {
		return wire.ModelResponse{}, err
	}
	return wire.ModelResponseFromCover(cv)
}

// Heatmap rasterizes pollutant p's cover at time t over the data's
// bounding region.
func (e *Engine) Heatmap(ctx context.Context, p tuple.Pollutant, t float64, cols, rows int) (*heatmap.Grid, error) {
	g, _, err := e.HeatmapCoverInto(ctx, new(heatmap.Grid), p, t, cols, rows)
	return g, err
}

// HeatmapCoverInto is Heatmap rendering into g, which it returns, plus
// the cover the raster was drawn from: the cover is resolved once, so a
// caller that annotates the raster (centroid markers) reads the same
// cover generation even when a rebuild lands meanwhile.
func (e *Engine) HeatmapCoverInto(ctx context.Context, g *heatmap.Grid, p tuple.Pollutant, t float64, cols, rows int) (*heatmap.Grid, *core.Cover, error) {
	cv, err := e.heatmap(ctx, g, p, t, cols, rows, nil)
	if err != nil {
		return nil, nil, err
	}
	return g, cv, nil
}

// heatmap renders pollutant p's cover at time t into g (see
// heatmap.Render) over region, or over the window's data bounds when
// region is nil, and returns the cover it drew.
func (e *Engine) heatmap(ctx context.Context, g *heatmap.Grid, p tuple.Pollutant, t float64, cols, rows int, region *geo.Rect) (*core.Cover, error) {
	sh, err := e.shardFor(p)
	if err != nil {
		return nil, err
	}
	cv, err := sh.coverAt(ctx, t)
	if err != nil {
		return nil, err
	}
	if region == nil {
		// WindowBounds answers from the columnar zone maps when the window
		// is a lazy checkpointed base, so an implicit-bounds heatmap does
		// not decode the window.
		c := tuple.WindowIndex(t, sh.st.WindowLength())
		bounds, ok := sh.st.WindowBounds(c)
		if !ok {
			return nil, fmt.Errorf("%w: no data in window", query.ErrOutOfWindow)
		}
		// A corridor of bus samples can be degenerate in one axis; inflate
		// so the raster region always has area.
		bounds = bounds.Inflate(100)
		region = &bounds
	}
	if err := heatmap.Render(g, cv, *region, cols, rows, t); err != nil {
		return nil, err
	}
	return cv, nil
}

// continuousETag hashes a continuous-query route — its points and, per
// distinct route window, the generation of the cover that is served for
// it — and the engine's nonce into an entity tag, or "" when pol is not
// monitored. A write alone
// does not change the tag: while the window's rebuild is pending the
// answer is still the previous cover's, and a 304 is correct. Computed
// BEFORE evaluation, and the served generation never decreases, so a
// rebuild landing in between can only make a later If-None-Match miss
// (an extra 200), never serve a stale 304.
func (e *Engine) continuousETag(pol tuple.Pollutant, reqs []query.Request) string {
	sh, err := e.shardFor(pol)
	if err != nil {
		return ""
	}
	hsh := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = hsh.Write(buf[:])
	}
	put(e.etagNonce)
	put(uint64(pol))
	put(uint64(len(reqs)))
	seen := make(map[int]struct{})
	for _, q := range reqs {
		put(math.Float64bits(q.T))
		put(math.Float64bits(q.X))
		put(math.Float64bits(q.Y))
		c := tuple.WindowIndex(q.T, sh.st.WindowLength())
		if _, ok := seen[c]; !ok {
			seen[c] = struct{}{}
			put(uint64(c))
			put(sh.maintainer.ServedGeneration(c))
		}
	}
	return fmt.Sprintf("\"cq-%016x\"", hsh.Sum64())
}

// HandleMessage implements the request/response protocol over any
// transport: it maps a request message to its response message, routing
// by the message's pollutant tag. Server failures become ErrorResponse
// rather than Go errors, since they must travel back over the link; the
// response carries the failure's wire code (cluster.WireError), so the
// far side restores the same sentinel.
func (e *Engine) HandleMessage(req wire.Message) wire.Message {
	//ctxcheck:allow legacy ctx-less Handler entry; the serve loop prefers HandleMessageCtx
	return e.HandleMessageCtx(context.Background(), req)
}

// HandleMessageCtx is HandleMessage with a caller-supplied context
// (proto.CtxHandler): the proto serve loop passes one bound to the
// server's lifetime, and in-process callers (the cluster node answering
// its own shards on behalf of an HTTP request) keep their cancellation and
// deadlines.
//
// A batch response's items and a heatmap response's values are lent from
// the wire pools, not allocated: whoever finishes with the response may
// hand them back with Release — the serve loop does, once the frame is
// written, together with the request it decoded into lent memory. A
// caller that keeps the response simply never releases it, and one that
// built the request itself releases the response alone (Release(nil,
// resp)).
func (e *Engine) HandleMessageCtx(ctx context.Context, req wire.Message) wire.Message {
	switch m := req.(type) {
	case wire.QueryRequest:
		v, err := e.Query(ctx, query.Request{T: m.T, X: m.X, Y: m.Y, Pollutant: m.Pollutant})
		if err != nil {
			return cluster.WireError(err)
		}
		return wire.QueryResponse{Value: v}
	case wire.BatchQueryRequest:
		if len(m.Items) == 0 {
			return wire.ErrorResponse{Msg: "empty query batch"}
		}
		resp, out := wire.LendAnswer(len(m.Items))
		if err := runBatch(ctx, e, len(m.Items), wireSlots{reqs: m.Items, out: out}); err != nil {
			wire.Recycle(nil, resp)
			return cluster.WireError(err)
		}
		return resp
	case wire.ModelRequest:
		resp, err := e.Model(ctx, m.Pollutant, m.T)
		if err != nil {
			return cluster.WireError(err)
		}
		return resp
	case wire.IngestRequest:
		// The v1.2 wire upload: what a sensing bus (or a cluster router
		// forwarding each owner its slice) submits over TCP. The same
		// backpressure as HTTP ingest: a saturated queue fails fast and
		// the error is coded ErrSaturated so clients can back off.
		if err := e.TryIngest(ctx, m.Pollutant, m.Tuples); err != nil {
			return cluster.WireError(err)
		}
		return wire.IngestResponse{Ingested: uint32(len(m.Tuples))}
	case wire.HeatmapRequest:
		// Counted in 64 bits: 65 535 × 65 535 cells overflow a 32-bit int.
		cols, rows := int(m.Cols), int(m.Rows)
		if uint64(m.Cols)*uint64(m.Rows) > cluster.MaxHeatmapCells {
			// The response frame could not be written: refuse before
			// rendering instead of dropping the connection after.
			return cluster.WireError(fmt.Errorf("%w: heatmap grid %dx%d over %d cells",
				cluster.ErrTooLarge, cols, rows, cluster.MaxHeatmapCells))
		}
		var region *geo.Rect
		if m.HasRegion {
			region = &m.Region
		}
		g := heatmap.Grid{Values: wire.LendRaster(cols * rows)}
		if _, err := e.heatmap(ctx, &g, m.Pollutant, m.T, cols, rows, region); err != nil {
			wire.ReturnRaster(g.Values)
			return cluster.WireError(err)
		}
		resp, err := wire.HeatmapResponseFromGrid(&g)
		if err != nil {
			wire.ReturnRaster(g.Values)
			return cluster.WireError(err)
		}
		return resp
	case wire.RingRequest:
		// A bare engine is a single-node deployment; cluster nodes wrap
		// the engine and answer from their ring before reaching here.
		return wire.ErrorResponse{Msg: "server: not clustered"}
	case wire.SubscribeRequest:
		// Reaching here means the transport performed a plain exchange;
		// push delivery needs a proto stream (or the SSE endpoint), which
		// routes subscribe frames through HandleStreamCtx instead.
		return wire.ErrorResponse{Msg: "server: subscriptions require a streaming transport (proto stream or GET /v1/subscribe)"}
	default:
		return wire.ErrorResponse{Msg: fmt.Sprintf("unsupported request type %T", req)}
	}
}

// Release implements proto.Releaser: it hands the lent memory of a served
// request and of the response HandleMessageCtx returned for it back to the
// wire pools — an upload's tuples only once they are acknowledged, since
// the ingest queue may still read an upload whose wait was cancelled.
func (e *Engine) Release(req, resp wire.Message) { wire.Recycle(req, resp) }

// ClassifyFor returns the display band for a value of pollutant p.
func ClassifyFor(p tuple.Pollutant, v float64) eval.CO2Band {
	return eval.ClassifyPollutant(p, v)
}
