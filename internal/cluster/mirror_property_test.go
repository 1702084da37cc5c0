package cluster_test

// The mirror-equivalence property. A replica mirror keeps only its
// replication log and builds its engine by replaying that log on its
// first read. Whatever the frame history — in order, duplicated,
// overlapping, gapped and then caught up, snapshot resets, late tuples
// for windows the store's retention has already evicted — its Query,
// Model and Heatmap answers must be byte-equal to those of an engine fed
// every applied frame as it arrived (the eager mirror the log replaced):
// at the first read, and after the frames that follow it. Timestamps
// repeat, so a replay out of commit order sorts tied tuples differently
// and shows. The field is smooth enough that most windows' covers start
// from their predecessors' (core.Builder.BuildFrom), so late tuples move
// the chain after the window they land in, and eviction turns the oldest
// retained window's cover cold: the mirror must follow both. Every
// failure names its seed and retention.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/kmeans"
	"repro/internal/server"
	"repro/internal/tuple"
	"repro/internal/wire"
)

const (
	propSeeds    = 10
	propSteps    = 50
	mirrorOrigin = 0 // the primary whose stream node 1 mirrors
)

// propConfig is the Ad-KMN configuration of the property's engines.
var propConfig = core.Config{Cluster: kmeans.Config{Seed: 7}}

// propEngine is the mirror engine both sides of the property run: the
// product's, configured like newMirrorEngine but with retention retain.
func propEngine(retain int) *server.Engine {
	e, err := server.NewMirrorEngine([]tuple.Pollutant{tuple.CO2}, windowLen, retain, propConfig)
	if err != nil {
		panic(err)
	}
	return e
}

// newMirrorNode builds node 1 of a two-node R = 2 ring with no peer
// transports, so the test is the only source of its mirror's frames and
// catch-up chunks. Mirror engines come from factory.
func newMirrorNode(t testing.TB, retain int, factory func() cluster.Handler) *cluster.Node {
	t.Helper()
	return newMirrorNodeVia(t, retain, factory, nil)
}

// newMirrorNodeVia is newMirrorNode whose catch-up pulls go to origin,
// when it is not nil.
func newMirrorNodeVia(t testing.TB, retain int, factory func() cluster.Handler, origin cluster.Transport) *cluster.Node {
	t.Helper()
	local := propEngine(0)
	cells, err := cluster.Cells(clusterRegion, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := cluster.NewRing(cluster.Desc{Nodes: []string{"node-0:8081", "node-1:8081"}, Cells: cells, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	var transports []cluster.Transport
	if origin != nil {
		transports = []cluster.Transport{mirrorOrigin: origin, 1: nil}
	}
	node, err := cluster.NewNode(cluster.NodeConfig{
		Ring:       ring,
		Self:       1,
		Local:      local,
		Default:    tuple.CO2,
		Transports: transports,
		Replication: cluster.ReplicationConfig{
			NewMirror:    factory,
			WindowLength: windowLen,
			Retain:       retain,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		node.Close()
		local.Close()
	})
	return node
}

// mirrorHistory drives one seeded history into node 1's mirror of
// origin's CO2 stream and into the eager reference beside it.
type mirrorHistory struct {
	t      *testing.T
	name   string
	rng    *rand.Rand
	retain int
	node   *cluster.Node

	stream []tuple.Raw // origin's stream; a tuple's index is its sequence
	clock  float64     // the stream's current time
	ref    *server.Engine
	have   uint64 // the sequence both the mirror and ref have applied

	answered int // compared answers that were not errors
	// warm counts compared windows whose cover started from its
	// predecessor's, orphaned those compared while the oldest retained
	// window had lost its predecessor to eviction.
	warm, orphaned int
}

func newMirrorHistory(t *testing.T, seed int64, retain int) *mirrorHistory {
	h := &mirrorHistory{
		t:      t,
		name:   fmt.Sprintf("seed %d, retain %d", seed, retain),
		rng:    rand.New(rand.NewSource(seed)),
		retain: retain,
		ref:    propEngine(retain),
	}
	h.node = newMirrorNode(t, retain, func() cluster.Handler { return propEngine(retain) })
	t.Cleanup(func() { h.ref.Close() })
	return h
}

// grow extends origin's stream to n tuples. Time advances in steps of a
// minute, so about three tuples in four share their timestamp with the
// previous one; one in ten is late, by up to five windows. The sensor
// noise is low enough for a window's regions to meet τn in a few splits,
// so they stay large enough to start the next window's build.
func (h *mirrorHistory) grow(n uint64) {
	for uint64(len(h.stream)) < n {
		if h.rng.Intn(4) == 0 {
			h.clock += 60 * float64(h.rng.Intn(3))
		}
		ts := h.clock
		if h.rng.Intn(10) == 0 {
			ts = max(0, ts-float64(1+h.rng.Intn(5))*windowLen)
		}
		x, y := h.rng.Float64()*2000-1000, h.rng.Float64()*2000-1000
		h.stream = append(h.stream, tuple.Raw{T: ts, X: x, Y: y, S: fieldVal(x, y) + h.rng.NormFloat64()})
	}
}

// applyRef feeds the reference the part of stream[from:end) past have.
func (h *mirrorHistory) applyRef(from, end uint64) {
	if end <= h.have {
		return
	}
	resp := h.ref.HandleMessage(wire.IngestRequest{Pollutant: tuple.CO2, Tuples: h.stream[h.have:end]})
	if _, ok := resp.(wire.IngestResponse); !ok {
		h.t.Fatalf("%s: reference refused tuples [%d,%d): %#v", h.name, h.have, end, resp)
	}
	h.have = end
}

// frame streams stream[seq:end) to the mirror, checks the answer against
// the sequencing rule (duplicates ack 0, gaps are refused, the rest
// applies its unseen suffix) and applies the same to the reference.
func (h *mirrorHistory) frame(seq, end uint64) {
	h.grow(end)
	tuples := append([]tuple.Raw(nil), h.stream[seq:end]...)
	resp := h.node.HandleMessage(wire.ReplicaIngest{Origin: mirrorOrigin, Pollutant: tuple.CO2, Seq: seq, Tuples: tuples})
	ir, acked := resp.(wire.IngestResponse)
	switch {
	case seq > h.have:
		if acked {
			h.t.Fatalf("%s: gapped frame [%d,%d) at %d acked", h.name, seq, end, h.have)
		}
		return
	case !acked:
		h.t.Fatalf("%s: frame [%d,%d) at %d refused: %#v", h.name, seq, end, h.have, resp)
	case uint64(ir.Ingested) != max(end, h.have)-h.have:
		h.t.Fatalf("%s: frame [%d,%d) at %d applied %d tuples", h.name, seq, end, h.have, ir.Ingested)
	}
	h.applyRef(seq, end)
}

// catchUp runs a catch-up session against an origin whose log retains
// stream[logStart:], in chunks of limit: a mirror behind logStart takes a
// snapshot reset, which the reference takes as a fresh engine.
func (h *mirrorHistory) catchUp(logStart uint64, limit int) {
	next := uint64(len(h.stream))
	for {
		cr := wire.ReplicaCatchupResponse{From: h.have}
		if h.have < logStart {
			cr.Snapshot, cr.From = true, logStart
		}
		end := min(cr.From+uint64(limit), next)
		cr.Tuples = append([]tuple.Raw(nil), h.stream[cr.From:end]...)
		cr.Done = end == next
		done := cluster.ApplyCatchup(h.node, mirrorOrigin, tuple.CO2, cr)
		if cr.Snapshot {
			h.ref.Close()
			h.ref = propEngine(h.retain)
			h.have = cr.From
		}
		h.applyRef(cr.From, end)
		if done != cr.Done {
			h.t.Fatalf("%s: catch-up chunk [%d,%d) of %d reported done = %v", h.name, cr.From, end, next, done)
		}
		if done {
			return
		}
	}
}

// compare asks the mirror (through ReplicaRead, which builds its engine
// on the first call) and the reference the same Model, Heatmap and Query
// requests in every window the stream has touched.
func (h *mirrorHistory) compare(when string) {
	h.t.Helper()
	last := tuple.WindowIndex(h.clock, windowLen)
	for c := 0; c <= last; c++ {
		tm := (float64(c) + 0.5) * windowLen
		reqs := []wire.Message{
			wire.ModelRequest{T: tm, Pollutant: tuple.CO2},
			wire.HeatmapRequest{T: tm, Pollutant: tuple.CO2, Cols: 6, Rows: 5},
			wire.HeatmapRequest{T: tm, Pollutant: tuple.CO2, Cols: 4, Rows: 4, HasRegion: true,
				Region: geo.Rect{Min: geo.Point{X: -500, Y: -500}, Max: geo.Point{X: 700, Y: 300}}},
		}
		for _, p := range []geo.Point{{X: 0, Y: 0}, {X: -640, Y: 310}, {X: 420, Y: -880}} {
			reqs = append(reqs, wire.QueryRequest{T: tm, X: p.X, Y: p.Y, Pollutant: tuple.CO2})
		}
		for _, req := range reqs {
			got := h.node.HandleMessage(wire.ReplicaRead{Origin: mirrorOrigin, Inner: req})
			want := h.ref.HandleMessage(req)
			if !reflect.DeepEqual(got, want) {
				h.t.Fatalf("%s, %s: window %d %T: mirror answers %+v, an engine fed every frame %+v",
					h.name, when, c, req, got, want)
			}
			if _, failed := got.(wire.ErrorResponse); !failed {
				h.answered++
			}
		}
		h.noteChain(c)
	}
}

// noteChain counts what the reference's cover of window c shows of the
// chain: whether it started warm (it is not BuildCover's cold cover), and
// whether it is the oldest window of a store at its retention bound, whose
// predecessor eviction took.
func (h *mirrorHistory) noteChain(c int) {
	st, err := h.ref.StoreFor(tuple.CO2)
	if err != nil {
		h.t.Fatal(err)
	}
	cv, err := h.ref.CoverAt(context.Background(), tuple.CO2, (float64(c)+0.5)*windowLen)
	if err != nil {
		return
	}
	cold, err := core.BuildCover(st.Window(c), c, windowLen, propConfig)
	if err != nil {
		h.t.Fatal(err)
	}
	if !reflect.DeepEqual(cv, cold) {
		h.warm++
	}
	if idxs := st.WindowIndexes(); h.retain > 0 && len(idxs) == h.retain && idxs[0] > 0 && c == idxs[0] {
		h.orphaned++
	}
}

// serveRef reads the reference's cover of every window it holds, as a
// primary's own readers do between frames: its covers are then built
// from the windows of that moment — a window's from a predecessor that a
// later eviction takes — while the mirror's are built only when read.
func (h *mirrorHistory) serveRef() {
	st, err := h.ref.StoreFor(tuple.CO2)
	if err != nil {
		h.t.Fatal(err)
	}
	for _, c := range st.WindowIndexes() {
		if _, err := h.ref.CoverAt(context.Background(), tuple.CO2, (float64(c)+0.5)*windowLen); err != nil {
			h.t.Fatalf("%s: reference cover of window %d: %v", h.name, c, err)
		}
	}
}

// run plays propSteps random steps, reading the mirror for the first time
// at a random one and again after later frames; the reference serves
// reads of its own at others.
func (h *mirrorHistory) run() {
	first := 1 + h.rng.Intn(propSteps-1)
	h.frame(0, 1+uint64(h.rng.Intn(100))) // the mirror exists from here on
	for step := 1; step < propSteps; step++ {
		switch r := h.rng.Intn(10); {
		case r < 5 || h.have == 0: // in order
			h.frame(h.have, h.have+1+uint64(h.rng.Intn(100)))
		case r == 5: // duplicate
			seq := uint64(h.rng.Int63n(int64(h.have)))
			h.frame(seq, seq+1+uint64(h.rng.Int63n(int64(h.have-seq))))
		case r == 6: // overlapping
			seq := h.have - 1 - uint64(h.rng.Int63n(int64(min(h.have, 50))))
			h.frame(seq, h.have+1+uint64(h.rng.Intn(60)))
		case r == 7: // gapped, then caught up from a log that covers the gap
			seq := h.have + 1 + uint64(h.rng.Intn(50))
			h.frame(seq, seq+1+uint64(h.rng.Intn(60)))
			h.catchUp(0, 1+h.rng.Intn(200))
		case r == 8: // the origin pruned past the mirror: snapshot reset
			logStart := h.have + 1 + uint64(h.rng.Intn(200))
			h.grow(logStart + uint64(h.rng.Intn(300)))
			h.catchUp(logStart, 1+h.rng.Intn(400))
		default: // a burst the mirror already half holds
			h.frame(h.have/2, h.have+uint64(h.rng.Intn(80)))
		}
		switch {
		case step == first:
			h.compare(fmt.Sprintf("first read at step %d", step))
		case step > first && h.rng.Intn(8) == 0:
			h.compare(fmt.Sprintf("read at step %d", step))
		case h.rng.Intn(3) == 0:
			h.serveRef()
		}
	}
	h.compare("end of history")
}

// TestMirrorEquivalenceProperty: see the file comment.
func TestMirrorEquivalenceProperty(t *testing.T) {
	for _, retain := range []int{0, 3} {
		warm, orphaned := 0, 0
		for seed := int64(1); seed <= propSeeds; seed++ {
			h := newMirrorHistory(t, seed, retain)
			h.run()
			if h.answered == 0 {
				t.Fatalf("%s: every compared read was an error", h.name)
			}
			warm, orphaned = warm+h.warm, orphaned+h.orphaned
		}
		t.Logf("retain %d: %d warm covers compared, %d windows compared after eviction took their predecessor", retain, warm, orphaned)
		if warm == 0 || retain > 0 && orphaned == 0 {
			t.Errorf("retain %d: the histories compared %d warm covers and %d windows whose predecessor was evicted", retain, warm, orphaned)
		}
	}
}

// countingMirrors is a mirror factory that counts its calls and the
// tuples its engines are fed.
type countingMirrors struct {
	builds, tuples atomic.Int64
}

func (c *countingMirrors) factory() cluster.Handler {
	c.builds.Add(1)
	return countingEngine{Engine: propEngine(0), tuples: &c.tuples}
}

// countingEngine is a mirror engine counting the tuples ingested into it.
type countingEngine struct {
	*server.Engine
	tuples *atomic.Int64
}

func (e countingEngine) HandleMessage(req wire.Message) wire.Message {
	if ing, ok := req.(wire.IngestRequest); ok {
		e.tuples.Add(int64(len(ing.Tuples)))
	}
	return e.Engine.HandleMessage(req)
}

// BenchmarkMirrorFirstRead is what the first failover read of an origin
// costs before any cover is built: the mirror engine's creation and the
// replay of a 100 000-tuple log (1 000-tuple frames over 20 windows) into
// it. The read asks for a window with no data, so it builds no cover.
func BenchmarkMirrorFirstRead(b *testing.B) {
	const tuples, frame = 100_000, 1_000
	rng := rand.New(rand.NewSource(1))
	stream := make([]tuple.Raw, tuples)
	for i := range stream {
		x, y := rng.Float64()*2000-1000, rng.Float64()*2000-1000
		stream[i] = tuple.Raw{T: float64(i) * 20 * windowLen / tuples, X: x, Y: y, S: fieldVal(x, y)}
	}
	read := wire.ReplicaRead{Origin: mirrorOrigin, Inner: wire.QueryRequest{T: 100 * windowLen, Pollutant: tuple.CO2}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		node := newMirrorNode(b, 0, func() cluster.Handler { return propEngine(0) })
		for seq := 0; seq < tuples; seq += frame {
			node.HandleMessage(wire.ReplicaIngest{Origin: mirrorOrigin, Pollutant: tuple.CO2, Seq: uint64(seq), Tuples: stream[seq : seq+frame]})
		}
		b.StartTimer()
		if _, ok := node.HandleMessage(read).(wire.ErrorResponse); !ok {
			b.Fatal("a read of an empty window answered")
		}
		b.StopTimer()
		node.Close()
	}
}
