package main

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// dataRoot holds every data dir of a run, inside the benchmark's own
// directory: the run reads and writes nowhere else.
const dataRoot = "out/data"

// report is everything one run measured. The last line of standard
// output carries only what BENCHMARK.json names; the whole report goes
// to out/report-<workload>.json.
type report struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Seconds      int                `json:"seconds"`
	Traced       bool               `json:"traced"`
	Comparable   bool               `json:"comparable"`
	Clients      int                `json:"clients"`
	SequenceHash string             `json:"sequence_hash"`
	Operations   int                `json:"operations"`
	MeasuredS    float64            `json:"measured_s"`
	Attempted    map[string]int64   `json:"attempted"`
	Failed       map[string]int64   `json:"failed"`
	FirstError   string             `json:"first_error,omitempty"`
	Correct      bool               `json:"correct"`
	OracleError  string             `json:"oracle_error,omitempty"`
	EndToEnd     map[string]float64 `json:"end_to_end,omitempty"`
	Diagnostics  map[string]float64 `json:"diagnostics,omitempty"`
	Samples      map[string]int     `json:"samples,omitempty"`
	PerLayer     map[string]float64 `json:"per_layer,omitempty"`
	LayerShares  map[string]float64 `json:"layer_self_us_per_op,omitempty"`
	Host         map[string]float64 `json:"host"`
	TraceFile    string             `json:"trace_file,omitempty"`
	attemptedAll int64
	failedAll    int64
}

func clientCount() int { return min(runtime.NumCPU(), maxClients) }

// history is what a deployment holds when it comes up.
type history struct {
	tuples   tuple.Batch // loaded through the facade (a restart finds them on disk)
	first, n int         // the windows they fill
	template string      // restart workloads: the checkpointed store holding them
}

// bench is the state shared by the end-to-end and the traced run.
type bench struct {
	ctx  context.Context
	w    *workload
	in   *inputs
	r    *runner
	host *hostProbe
	// full is the history the measured phase runs on; tail is its last
	// setupWindows windows, what a timed set-up brings up.
	full, tail history
	// before holds the full template's answers taken before it was closed.
	before []float64
	probes []repro.Request
}

func newBench(ctx context.Context, w *workload, seed int64, ops int) (*bench, error) {
	in, err := generate(w, seed, ops)
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dataRoot); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return nil, err
	}
	b := &bench{ctx: ctx, w: w, in: in}
	b.r = newRunner(in, oracleKeep(in, seed))
	if b.host, err = newHostProbe(); err != nil {
		return nil, err
	}
	first := w.preloadDays*24 - setupWindows
	cut := sort.Search(len(in.preload), func(i int) bool { return in.preload[i].T >= float64(first)*windowSeconds })
	b.full = history{tuples: in.preload, n: w.preloadDays * 24}
	b.tail = history{tuples: in.preload[cut:], first: first, n: setupWindows}
	if w.restart {
		for _, h := range []*history{&b.full, &b.tail} {
			if err := b.buildTemplate(h); err != nil {
				return nil, fmt.Errorf("build the store to restart from: %w", err)
			}
		}
	}
	return b, nil
}

func (b *bench) close() {
	b.host.close()
	os.RemoveAll(dataRoot)
}

// oracleKeep picks the reads whose answers the oracle re-asks. Replies
// to history reads are kept as answered during the run (their windows
// never change); live reads are re-sent after the clock stops.
func oracleKeep(in *inputs, seed int64) map[int]bool {
	var reads []int
	for i := in.warmup; i < len(in.ops); i++ {
		if in.ops[i].kind.isRead() {
			reads = append(reads, i)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x0fac1e))
	rng.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
	keep := make(map[int]bool)
	for _, i := range reads[:min(oracleSamples, len(reads))] {
		keep[i] = true
	}
	return keep
}

const preloadBatch = 4096

// buildTemplate loads a history into a durable store, checkpoints it
// (row + columnar) and closes it, all before any clock starts. Covers
// are not built: a restart finds windows on disk and no models.
func (b *bench) buildTemplate(h *history) error {
	h.template = filepath.Join(dataRoot, fmt.Sprintf("template-%dw", h.n))
	cfg := b.w.facadeConfig(filepath.Join(h.template, "node0"), nil, 0)
	cfg.Maintenance.Workers = -1
	p, err := repro.Open(cfg)
	if err != nil {
		return err
	}
	for lo := 0; lo < len(h.tuples); lo += preloadBatch {
		hi := min(lo+preloadBatch, len(h.tuples))
		if err := p.Ingest(b.ctx, pollutant, h.tuples[lo:hi]); err != nil {
			p.Close()
			return err
		}
	}
	if h == &b.full {
		// Answers before the close, for the restart oracle.
		rng := rand.New(rand.NewSource(int64(len(h.tuples))))
		for i := 0; i < 50; i++ {
			r := h.tuples[rng.Intn(len(h.tuples))]
			q := repro.Request{T: r.T, X: r.X + 20, Y: r.Y - 20, Pollutant: pollutant}
			v, err := p.Query(b.ctx, q)
			if err != nil {
				p.Close()
				return err
			}
			b.probes, b.before = append(b.probes, q), append(b.before, v)
		}
	}
	if err := p.Checkpoint(); err != nil {
		p.Close()
		return err
	}
	return p.Close()
}

func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// newRoot makes the data directory of one deployment: empty, or a copy
// of the checkpointed store for a restart. It is not part of a set-up:
// the caller's clock starts after it.
func (b *bench) newRoot(h history) (string, error) {
	root, err := os.MkdirTemp(dataRoot, b.w.name+"-")
	if err != nil || h.template == "" {
		return root, err
	}
	return root, copyTree(h.template, root)
}

// bringUp is one set-up, timed by the caller: open (or recover) the
// deployment on root, load its history, wait until every cover is
// built, start the listeners and connect the clients.
func (b *bench) bringUp(root string, rec *recorder, h history) (*sut, error) {
	s, err := openSUT(b.w, root, rec)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*sut, error) {
		b.tearDown(s)
		return nil, err
	}
	if h.template == "" {
		for lo := 0; lo < len(h.tuples); lo += preloadBatch {
			hi := min(lo+preloadBatch, len(h.tuples))
			if err := s.ingest(b.ctx, h.tuples[lo:hi]); err != nil {
				return fail(fmt.Errorf("preload: %w", err))
			}
		}
	}
	s.quiesce()
	// Bulk loading outruns the bounded build queue, which then drops
	// windows; ask for every window once so none is cold when measured.
	for c := h.first; c < h.first+h.n; c++ {
		if err := s.touch(b.ctx, (float64(c)+0.5)*windowSeconds); err != nil {
			return fail(fmt.Errorf("build cover of window %d: %w", c, err))
		}
	}
	b.r.clients = b.r.clients[:0]
	for i := 0; i < clientCount(); i++ {
		c, err := dialClient(b.w, s.addr, rec)
		if err != nil {
			return fail(fmt.Errorf("connect: %w", err))
		}
		b.r.clients = append(b.r.clients, c)
	}
	return s, nil
}

// bringUpFull sets the measured deployment up: the whole history, then
// the warm-up operations. It returns the seconds both took together.
func (b *bench) bringUpFull(rec *recorder) (*sut, float64, error) {
	root, err := b.newRoot(b.full)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	s, err := b.bringUp(root, rec, b.full)
	if err != nil {
		return nil, 0, err
	}
	b.r.reset()
	b.r.run(0, b.in.warmup)
	s.quiesce()
	if b.r.firstErr != nil {
		b.tearDown(s)
		return nil, 0, fmt.Errorf("warm-up: %w", b.r.firstErr)
	}
	return s, time.Since(start).Seconds(), nil
}

// timeSetUps brings the last setupWindows windows of the deployment up n
// times, each on a fresh directory and on one processor, and returns
// each set-up's seconds.
func (b *bench) timeSetUps(n int) ([]float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	seconds := make([]float64, 0, n)
	for len(seconds) < n {
		root, err := b.newRoot(b.tail)
		if err != nil {
			return nil, err
		}
		runtime.GC() // every set-up starts from the same heap
		start := time.Now()
		s, err := b.bringUp(root, nil, b.tail)
		if err != nil {
			return nil, fmt.Errorf("timed set-up %d: %w", len(seconds)+1, err)
		}
		seconds = append(seconds, time.Since(start).Seconds())
		if err := b.tearDown(s); err != nil {
			return nil, fmt.Errorf("tear down timed set-up %d: %w", len(seconds), err)
		}
	}
	return seconds, nil
}

// tearDown disconnects the clients and removes the system.
func (b *bench) tearDown(s *sut) error {
	b.disconnect()
	return s.destroy()
}

func (b *bench) disconnect() {
	for _, c := range b.r.clients {
		c.close()
	}
	b.r.clients = b.r.clients[:0]
}

// segment runs one measured segment — beside a checkpoint, on the
// workloads that take them — and charges it the wait for the background
// work it left behind. It returns the segment's seconds.
func (b *bench) segment(s *sut, seg int) (float64, error) {
	lo, hi := b.in.segment(seg)
	start := time.Now()
	checkpointed := make(chan error, 1)
	if b.w.checkpoints {
		go func() { checkpointed <- s.checkpoint() }()
	} else {
		checkpointed <- nil
	}
	b.r.run(lo, hi)
	if err := <-checkpointed; err != nil {
		return 0, fmt.Errorf("checkpoint beside segment %d: %w", seg+1, err)
	}
	s.quiesce()
	return time.Since(start).Seconds(), nil
}

func heapAlloc() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// runEndToEnd measures the end-to-end metrics with tracing off.
//
// setup_s is the fastest of setupRepeats set-ups of a day of history on
// one processor, half of them before the measured phase and half after
// the oracle. The host's other tenants slow this box by a quarter to
// three quarters for seconds to minutes at a time, but hardly ever both
// of its processors at once for a third of a second: the fastest of a
// dozen short single-processor set-ups repeated within 3 % across quiet
// and busy quarters of an hour, where the median of three set-ups of the
// measured deployment (2–4 s each, both processors) moved by 30–50 %,
// and the fastest of sixteen short two-processor ones by 25 %.
func (b *bench) runEndToEnd(rep *report) error {
	heapBefore := heapAlloc()

	setups, err := b.timeSetUps(setupRepeats / 2)
	if err != nil {
		return err
	}
	s, fullSetup, err := b.bringUpFull(nil)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		if s != nil {
			b.tearDown(s)
		}
	}()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rates := make([]float64, segments)
	for seg := range rates {
		seconds, err := b.segment(s, seg)
		if err != nil {
			return err
		}
		if seg == segments-1 {
			runtime.ReadMemStats(&m1)
		}
		rates[seg] = float64(b.in.segLen) / seconds
		rep.MeasuredS += seconds
		b.host.sample()
	}
	ops := float64(b.in.segLen * segments)
	lat := b.latencies(rep)
	if len(lat.reads) == 0 || len(lat.writes) == 0 {
		return fmt.Errorf("no successful reads or writes (first error: %v)", b.r.firstErr)
	}

	rtt, err := b.pointRTT()
	if err != nil {
		return fmt.Errorf("point probe: %w", err)
	}
	if err := s.checkpoint(); err != nil {
		return fmt.Errorf("final checkpoint: %w", err)
	}
	disk, err := s.diskBytes("")
	if err != nil {
		return err
	}
	tuples := s.tuples()
	oracleErr := b.verify(s)
	// The oracle's sampled replies are the benchmark's, not the system's
	// (90 heatmap bodies are 7 MB on history_http, and how many of the 200
	// samples are heatmaps differs from seed to seed).
	clear(b.r.kept)
	heapAfter := heapAlloc()

	rep.EndToEnd = map[string]float64{
		"wire_bytes_per_read":  lat.readBytes / float64(len(lat.reads)),
		"allocs_per_op":        float64(m1.Mallocs-m0.Mallocs) / ops,
		"alloc_kb_per_op":      float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / ops,
		"disk_bytes_per_tuple": float64(disk) / float64(tuples),
		"live_heap_mb":         (heapAfter - heapBefore) / (1 << 20),
	}
	rep.Diagnostics = map[string]float64{
		"e2e.ops_per_s":         median(rates),
		"e2e.read_p50_ms":       median(lat.readP50),
		"e2e.read_p90_ms":       median(lat.readP90),
		"e2e.read_p99_ms":       percentile(lat.reads, 99),
		"e2e.read_p999_ms":      percentile(lat.reads, 99.9),
		"e2e.write_p50_ms":      median(lat.writeP50),
		"e2e.write_p90_ms":      percentile(lat.writes, 90),
		"e2e.write_p99_ms":      percentile(lat.writes, 99),
		"e2e.point_rtt_p50_us":  rtt,
		"e2e.segment_rate_min":  slices.Min(rates),
		"e2e.segment_rate_max":  slices.Max(rates),
		"e2e.tuples_retained":   float64(tuples),
		"e2e.disk_bytes":        float64(disk),
		"e2e.gc_cycles":         float64(m1.NumGC - m0.NumGC),
		"e2e.checkpoints_taken": b.checkpointsTaken(s),
	}
	if oracleErr != nil {
		rep.OracleError = oracleErr.Error()
	} else {
		rep.Correct = true
	}

	err = b.tearDown(s)
	s = nil
	if err != nil {
		return fmt.Errorf("tear down: %w", err)
	}
	later, err := b.timeSetUps(setupRepeats - len(setups))
	if err != nil {
		return err
	}
	setups = append(setups, later...)
	rep.EndToEnd["setup_s"] = slices.Min(setups)
	rep.Diagnostics["e2e.setup_median_s"] = median(setups)
	rep.Diagnostics["e2e.setup_max_s"] = slices.Max(setups)
	rep.Diagnostics["e2e.full_setup_s"] = fullSetup
	return nil
}

// latencySummary holds the measured phase's latencies in milliseconds:
// all of them sorted, and each segment's percentiles. The reported
// percentiles are medians over the segments, so a burst from a
// neighbour that hits one or two segments does not move them.
type latencySummary struct {
	reads, writes              []float64
	readP50, readP90, writeP50 []float64
	readBytes                  float64
}

// latencies also fills the report's attempted, failed and sample counts.
func (b *bench) latencies(rep *report) latencySummary {
	var sum latencySummary
	for seg := 0; seg < segments; seg++ {
		var reads, writes []float64
		lo, hi := b.in.segment(seg)
		for i := lo; i < hi; i++ {
			k := b.in.ops[i].kind
			rep.Attempted[kindNames[k]]++
			if b.r.latency[i] == 0 {
				continue // failed: counted, contributes no latency sample
			}
			ms := float64(b.r.latency[i]) / 1e6
			if k.isRead() {
				reads = append(reads, ms)
				sum.readBytes += float64(b.r.bytes[i])
			} else {
				writes = append(writes, ms)
			}
		}
		sort.Float64s(reads)
		sort.Float64s(writes)
		sum.readP50 = append(sum.readP50, percentile(reads, 50))
		sum.readP90 = append(sum.readP90, percentile(reads, 90))
		sum.writeP50 = append(sum.writeP50, percentile(writes, 50))
		sum.reads = append(sum.reads, reads...)
		sum.writes = append(sum.writes, writes...)
	}
	sort.Float64s(sum.reads)
	sort.Float64s(sum.writes)
	for k := range b.r.failed {
		rep.Failed[kindNames[k]] = b.r.failed[k].Load()
	}
	rep.attemptedAll, rep.failedAll = int64(b.in.segLen*segments), b.r.failures()
	if b.r.firstErr != nil {
		rep.FirstError = b.r.firstErr.Error()
	}
	rep.Samples["reads"], rep.Samples["writes"] = len(sum.reads), len(sum.writes)
	return sum
}

func (b *bench) checkpointsTaken(s *sut) float64 {
	n := int64(0)
	for _, m := range s.members {
		if m.p != nil {
			n += m.p.CheckpointStats().Checkpoints
		} else {
			n += m.eng.CheckpointStats().Checkpoints
		}
	}
	return float64(n)
}

// pointRTT is the median of pointProbes single-point round trips on the
// first connection, in microseconds: the µs-scale ping-pong that is too
// noisy on a shared host to gate on, kept as a diagnostic.
func (b *bench) pointRTT() (float64, error) {
	c := b.r.clients[0]
	// The newest acknowledged tuples: retained under any retention bound.
	src := b.in.stream[max(0, len(b.in.stream)-20000):]
	us := make([]float64, 0, pointProbes)
	for i := 0; i < pointProbes; i++ {
		r := src[(i*7919)%len(src)]
		start := time.Now()
		if b.w.http {
			f := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
			o := op{path: "/v1/query?" + url.Values{
				"t": {f(r.T)}, "x": {f(r.X)}, "y": {f(r.Y)}, "pollutant": {pollutant.String()},
			}.Encode()}
			if _, _, err := c.doHTTP(-1, &o, false); err != nil {
				return 0, err
			}
		} else {
			msg, _, _, err := c.exchange(wire.QueryRequest{T: r.T, X: r.X, Y: r.Y, Pollutant: pollutant})
			if err != nil {
				return 0, err
			}
			if e, ok := msg.(wire.ErrorResponse); ok {
				return 0, fmt.Errorf("server error: %s", e.Msg)
			}
		}
		us = append(us, float64(time.Since(start))/1e3)
	}
	sort.Float64s(us)
	return percentile(us, 50), nil
}

// retained counts the tuples of the acknowledged stream that the
// retention bound keeps: the newest `retain` windows.
func retained(stream tuple.Batch, retain int) int {
	if retain == 0 {
		return len(stream)
	}
	newest := tuple.WindowIndex(stream[len(stream)-1].T, windowSeconds)
	n := 0
	for i := len(stream) - 1; i >= 0 && tuple.WindowIndex(stream[i].T, windowSeconds) > newest-retain; i-- {
		n++
	}
	return n
}
