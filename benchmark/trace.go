package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/proto"
	"repro/internal/wire"
)

// span is one timed interval at a layer boundary. Spans of one client
// operation share Op; Parent is resolved after the run from containment.
type span struct {
	Name   string `json:"name"`
	Op     int32  `json:"op"` // index in the operation sequence, -1 = none
	ID     int32  `json:"id"` // 1-based
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

const opHeader = "X-Bench-Op"

// recorder collects spans in memory. While off, every wrapper is a
// single atomic load and a direct call.
type recorder struct {
	on    atomic.Bool
	epoch time.Time
	// keys maps a request's content key to its operation: requests carry
	// no trace id on the wire, so a server-side wrapper recognises the
	// operation by a value unique to it (a read's time, a tuple's sensed
	// value). Filled before the recorder is switched on, read-only after.
	keys map[uint64]int32

	mu    sync.Mutex
	spans []span
}

func newRecorder(in *inputs, lo, hi int) *recorder {
	r := &recorder{epoch: time.Now(), keys: make(map[uint64]int32)}
	for i := lo; i < hi; i++ {
		o := &in.ops[i]
		if o.kind == opIngest {
			for _, t := range o.tuples {
				r.keys[math.Float64bits(t.S)] = int32(i)
			}
		} else {
			r.keys[math.Float64bits(o.t)] = int32(i)
		}
	}
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(name string, op int32, start int64) {
	end := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Op: op, Start: start, End: end})
	r.mu.Unlock()
}

// opOf recognises the operation a wire request belongs to.
func (r *recorder) opOf(m wire.Message) int32 {
	var key float64
	switch v := m.(type) {
	case wire.Forwarded:
		return r.opOf(v.Inner)
	case wire.ReplicaRead:
		return r.opOf(v.Inner)
	case wire.BatchQueryRequest:
		if len(v.Items) == 0 {
			return -1
		}
		key = v.Items[0].T
	case wire.QueryRequest:
		key = v.T
	case wire.ModelRequest:
		key = v.T
	case wire.HeatmapRequest:
		key = v.T
	case wire.IngestRequest:
		if len(v.Tuples) == 0 {
			return -1
		}
		key = v.Tuples[0].S
	case wire.ReplicaIngest:
		if len(v.Tuples) == 0 {
			return -1
		}
		key = v.Tuples[0].S
	default:
		return -1
	}
	if op, ok := r.keys[math.Float64bits(key)]; ok {
		return op
	}
	return -1
}

// spanHandler records one span around every request a handler answers.
type spanHandler struct {
	inner proto.Handler
	rec   *recorder
	name  string
}

func (h spanHandler) HandleMessage(req wire.Message) wire.Message {
	return h.HandleMessageCtx(context.Background(), req)
}

func (h spanHandler) HandleMessageCtx(ctx context.Context, req wire.Message) wire.Message {
	call := func() wire.Message {
		if c, ok := h.inner.(proto.CtxHandler); ok {
			return c.HandleMessageCtx(ctx, req)
		}
		return h.inner.HandleMessage(req)
	}
	if !h.rec.on.Load() {
		return call()
	}
	op, start := h.rec.opOf(req), h.rec.now()
	resp := call()
	h.rec.add(h.name, op, start)
	return resp
}

// spanTransport records one span around every peer exchange.
type spanTransport struct {
	inner cluster.Transport
	rec   *recorder
}

func (t spanTransport) Exchange(req wire.Message) (wire.Message, error) {
	if !t.rec.on.Load() {
		return t.inner.Exchange(req)
	}
	op, start := t.rec.opOf(req), t.rec.now()
	resp, err := t.inner.Exchange(req)
	t.rec.add("peer.exchange", op, start)
	return resp, err
}

func (t spanTransport) Close() error {
	if c, ok := t.inner.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// spanMiddleware records one span around every HTTP request; the client
// names the operation in a header while tracing.
func spanMiddleware(next http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !rec.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		op := int32(-1)
		if v, err := strconv.Atoi(r.Header.Get(opHeader)); err == nil {
			op = int32(v)
		}
		start := rec.now()
		next.ServeHTTP(w, r)
		rec.add("server.http", op, start)
	})
}

// resolveParents numbers the spans and gives each the innermost span of
// the same operation that contains it; a span nothing contains (a root,
// or work that outlived its operation such as a replication frame) gets
// parent 0.
func resolveParents(spans []span) {
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := &spans[i], &spans[j]
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.End > b.End
	})
	var stack []int
	for i := range spans {
		s := &spans[i]
		s.ID = int32(i + 1)
		if i > 0 && spans[i-1].Op != s.Op {
			stack = stack[:0]
		}
		for len(stack) > 0 && spans[stack[len(stack)-1]].End < s.End {
			stack = stack[:len(stack)-1]
		}
		s.Parent = 0
		if len(stack) > 0 && s.Op >= 0 {
			s.Parent = spans[stack[len(stack)-1]].ID
		}
		stack = append(stack, i)
	}
}

// selfTimes returns, per span (indexed by ID-1), its duration minus the
// part of it that its children cover. Spans must have parents resolved.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], i)
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		covered, edge := int64(0), s.Start
		// Children arrive sorted by start (resolveParents' order).
		for _, c := range children[s.ID] {
			lo, hi := max(spans[c].Start, edge), min(spans[c].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID-1] = s.End - s.Start - covered
	}
	return self
}

// layerTotal sums one span name's count, duration and self time.
type layerTotal struct {
	count     int
	total     int64
	selfTotal int64
}

func aggregate(spans []span, self []int64) map[string]*layerTotal {
	out := make(map[string]*layerTotal)
	for i := range spans {
		s := &spans[i]
		t := out[s.Name]
		if t == nil {
			t = &layerTotal{}
			out[s.Name] = t
		}
		t.count++
		t.total += s.End - s.Start
		t.selfTotal += self[s.ID-1]
	}
	return out
}

// treeCheck verifies the self-time arithmetic (self = selfTimes(spans))
// on the recorded trace:
// under every root whose descendants never overlap each other, the self
// times sum exactly to the root's duration. It returns the number of
// roots checked, the roots skipped for parallel children, and the
// largest error seen (0 when the arithmetic holds).
func treeCheck(spans []span, self []int64) (checked, parallel int, worst int64) {
	root := make([]int32, len(spans))
	sum := make(map[int32]int64)
	overlap := make(map[int32]bool)
	lastEnd := make(map[int32]int64) // per parent: end of the previous child
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 {
			root[i] = s.ID
		} else {
			root[i] = root[s.Parent-1]
			if s.Start < lastEnd[s.Parent] {
				overlap[root[i]] = true
			}
			lastEnd[s.Parent] = max(lastEnd[s.Parent], s.End)
		}
		sum[root[i]] += self[i]
	}
	for id, total := range sum {
		r := &spans[id-1]
		if r.Name != "op" {
			continue
		}
		if overlap[id] {
			parallel++
			continue
		}
		checked++
		if d := total - (r.End - r.Start); d > worst || -d > worst {
			worst = max(d, -d)
		}
	}
	return checked, parallel, worst
}

// writeTrace stores the spans under out/ in the benchmark's directory.
func writeTrace(workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll("out", 0o755); err != nil {
		return "", err
	}
	path := filepath.Join("out", "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
