package cluster_test

// The mirror-equivalence property, played through the catch-up protocol.
// A seeded scheduler owns every exchange between node 1's mirror and its
// origin (the steps of do), and after each delivery waits until the
// mirror's session asks a round or is over. A model of the protocol says
// which, where the mirror stands (never back within an incarnation) and
// its gaps, catch-ups and snapshot resets; healed, its log is the origin's
// stream bit for bit. A mirror builds its engine by replaying its log on
// the first read, and must answer byte-equal to an engine fed what it
// applied as it applied it: timestamps repeat, so a replay out of commit
// order shows, and most covers start from their predecessors', so late
// tuples and eviction move the chain. A failure prints its seed,
// retention and history, shrunk to the steps it still fails with.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/kmeans"
	"repro/internal/server"
	"repro/internal/tuple"
	"repro/internal/wire"
)

const (
	propSeeds    = 20
	propSteps    = 80
	mirrorOrigin = 0                // the primary whose stream node 1 mirrors
	mirrorInc    = 1                // the incarnation it streams in until it restarts
	moveBound    = 10 * time.Second // fails a session that neither asks nor ends: the sweep's only deadline
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

// newMirrorNode builds node 1 of a two-node R = 2 ring, so the test is
// the only source of its mirror's frames. Its catch-up pulls go to
// origin, or nowhere when origin is nil. Mirror engines come from
// factory.
func newMirrorNode(t testing.TB, retain int, factory func() cluster.Handler, origin cluster.Transport) *cluster.Node {
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
	node, err := cluster.NewNode(cluster.NodeConfig{Ring: ring, Self: 1, Local: local, Default: tuple.CO2,
		Transports:  []cluster.Transport{mirrorOrigin: origin, 1: nil},
		Replication: cluster.ReplicationConfig{NewMirror: factory, WindowLength: windowLen, Retain: retain}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close(); local.Close() })
	return node
}

// step is one event of a history (see do). Its numbers are read against
// the state it meets, so a history with steps dropped still plays.
type step struct {
	kind string
	a, b int
}

// draw draws a history of propSteps steps from seed. It reads the mirror
// for the first time at a random step and again after later ones, and
// the reference serves reads of its own at others.
func draw(seed int64) []step {
	rng := rand.New(rand.NewSource(seed))
	steps := []step{{"limit", 1 + rng.Intn(200), 0}, {"forged", rng.Intn(100), 0}, {"commit", 1 + rng.Intn(100), 0}}
	kinds := []string{"commit", "commit", "commit", "commit", "drop", "drop", "reorder", "resend", "resend", "resend",
		"forged", "prune", "prune", "restart", "answer", "answer", "answer", "answer", "stale", "stale", "fail"}
	first := 1 + rng.Intn(propSteps-1)
	for i := 1; i < propSteps; i++ {
		steps = append(steps, step{kinds[rng.Intn(len(kinds))], 1 + rng.Intn(100), rng.Intn(100)})
		switch {
		case i == first || i > first && rng.Intn(8) == 0:
			steps = append(steps, step{kind: "read"})
		case rng.Intn(3) == 0:
			steps = append(steps, step{kind: "serve"})
		}
	}
	return steps
}

// model is where the protocol has node 1's mirror stand, and the counts
// its history implies.
type model struct {
	pulling, regap            bool
	inc, next, snapFrom       uint64 // snapFrom: where the last snapshot reset restarted it
	rounds                    int    // the rounds the running pull has asked
	asked                     *wire.ShardTransfer
	cut                       wire.ReplicaCatchupResponse // the origin's answer when the round asked
	gaps, catchups, snapshots int64
}

// frame applies the sequencing rule to the frame [seq, end) of
// incarnation inc and returns the tuples it acks, -1 for a refusal. A
// gap, or another incarnation than the mirror's, starts a pull or has
// the running one pull again.
func (m *model) frame(inc, seq, end uint64) int {
	if m.inc == 0 { // no mirror yet: this frame's creates it
		m.inc = inc
	}
	switch {
	case inc == m.inc && end <= m.next:
		return 0
	case inc != m.inc || seq > m.next:
		m.gaps++
		m.regap = m.pulling
		if !m.pulling {
			m.pulling, m.rounds = true, 0
			m.catchups++
		}
		return -1
	}
	acked := int(end - m.next)
	m.next = end
	return acked
}

// chunk applies cr, the answer to the round the session waits on (nil:
// its exchange failed). A mirror that moved since the round asked takes
// nothing from it. A pull that is over starts again when a gap was
// refused while it ran.
func (m *model) chunk(cr *wire.ReplicaCatchupResponse) {
	asked := m.asked
	m.asked = nil
	over := cr == nil || m.rounds == cluster.MaxPullRounds
	if cr != nil && asked.Incarnation == m.inc && asked.Have == m.next {
		if cr.Snapshot {
			m.inc, m.next, m.snapFrom = cr.Incarnation, cr.From, cr.From
			m.snapshots++
		}
		lines := cr.Incarnation == m.inc && cr.From <= m.next // else the pull aborts
		if lines {
			m.next = max(m.next, cr.From+uint64(len(cr.Tuples)))
		}
		over = over || cr.Done || !lines
	}
	if over {
		m.pulling, m.regap, m.rounds = m.regap, false, 0
	}
}

// mirrorHistory plays one history into node 1's mirror of its origin's
// CO2 stream and into the eager reference beside it. It is the origin's
// transport: each round the mirror asks waits in Exchange for the
// scheduler's answer.
type mirrorHistory struct {
	retain int
	data   *rand.Rand // draws the tuples
	node   *cluster.Node
	asked  chan wire.ShardTransfer
	answer chan *wire.ReplicaCatchupResponse // nil: the exchange fails; closed with gone
	gone   chan struct{}                     // closed when the history ends: every round fails
	m      model
	last   cluster.MirrorPos // where the mirror stood at the last check

	// The origin: its stream in each incarnation (a tuple's index is its
	// sequence) and the stream's time, the incarnation it streams in,
	// where its log starts and the catch-up chunk it cuts.
	streams       map[uint64][]tuple.Raw
	clock         float64
	inc, logStart uint64
	limit         int

	ref      *server.Engine
	refHave  uint64 // the sequence of the mirror's incarnation the reference has applied
	refSnaps int64  // the snapshot resets it has taken

	answered int // compared answers that were not errors
	// warm counts compared windows whose cover started from its
	// predecessor's, orphaned those compared while the oldest retained
	// window had lost its predecessor to eviction.
	warm, orphaned int
}

func (h *mirrorHistory) Exchange(req wire.Message) (wire.Message, error) {
	select {
	case h.asked <- req.(wire.ShardTransfer):
		if cr := <-h.answer; cr != nil {
			return *cr, nil
		}
	case <-h.gone:
	}
	return nil, errors.New("held origin: no answer")
}

// failf aborts the history: play recovers the error.
func (h *mirrorHistory) failf(format string, args ...any) { panic(fmt.Errorf(format, args...)) }

func (h *mirrorHistory) end() uint64 { return uint64(len(h.streams[h.inc])) }

// cut answers a round asked from st as the origin's log stands: the
// suffix from the asked position, or a snapshot reset onto the log's
// start once the log is pruned past that position or the origin
// restarted.
func (h *mirrorHistory) cut(st wire.ShardTransfer) wire.ReplicaCatchupResponse {
	cr := wire.ReplicaCatchupResponse{From: st.Have, Incarnation: h.inc}
	if st.Incarnation != h.inc || st.Have < h.logStart || st.Have > h.end() {
		cr.Snapshot, cr.From = true, h.logStart
	}
	end := min(cr.From+uint64(h.limit), h.end())
	cr.Tuples, cr.Done = slices.Clone(h.streams[h.inc][cr.From:end]), end == h.end()
	return cr
}

// play plays steps on a fresh mirror and heals it.
func play(t *testing.T, seed int64, retain int, steps []step) (h *mirrorHistory, err error) {
	h = &mirrorHistory{retain: retain, data: rand.New(rand.NewSource(-seed)), streams: map[uint64][]tuple.Raw{}, inc: mirrorInc, limit: 200,
		asked: make(chan wire.ShardTransfer), answer: make(chan *wire.ReplicaCatchupResponse), gone: make(chan struct{}), ref: propEngine(retain)}
	h.node = newMirrorNode(t, retain, func() cluster.Handler { return propEngine(retain) }, h)
	defer func() {
		close(h.gone) // before the node closes, which waits for its sessions
		close(h.answer)
		h.node.Close()
		h.ref.Close()
		if r := recover(); r != nil {
			if err, _ = r.(error); err == nil {
				panic(r)
			}
		}
	}()
	for i, s := range steps {
		h.do(i, s)
	}
	h.heal()
	return h, nil
}

// playHistory plays steps, and fails t with the seed, retention and steps
// shrunk to those the history still fails with: one by one, steps are
// dropped while it does.
func playHistory(t *testing.T, seed int64, retain int, steps []step) *mirrorHistory {
	t.Helper()
	h, err := play(t, seed, retain, steps)
	if err == nil {
		return h
	}
	n := len(steps)
	for i := 0; i < len(steps); {
		try := slices.Delete(slices.Clone(steps), i, i+1)
		if _, e := play(t, seed, retain, try); e != nil {
			steps, err = try, e
		} else {
			i++
		}
	}
	t.Fatalf("seed %d, retain %d: %v\nshrunk history (%d of %d steps): %v", seed, retain, err, len(steps), n, steps)
	return nil
}

// do delivers step i, s.
func (h *mirrorHistory) do(i int, s step) {
	end, at := h.end(), uint64(0) // at: the mirror's position in the origin's stream
	if h.m.inc == h.inc {
		at = h.m.next
	}
	switch s.kind {
	case "limit": // the origin cuts catch-up chunks of a tuples
		h.limit = max(1, s.a)
	case "commit": // the origin commits a tuples and streams them
		h.send(end, h.grow(s.a))
	case "drop": // the origin commits a tuples; their frame is lost
		h.grow(s.a)
	case "reorder": // the origin commits a, then b tuples; the second frame lands first
		mid := h.grow(s.a)
		h.send(mid, h.grow(s.b))
		h.send(end, mid)
	case "resend": // b+1 sent tuples from a before the mirror's position land again
		if seq := at - uint64(s.a)%(at+1); seq < end {
			h.send(seq, min(end, seq+1+uint64(s.b)))
		}
	case "forged": // a frame of incarnation 0 is refused, and creates no mirror
		resp := h.node.HandleMessage(wire.ReplicaIngest{Origin: mirrorOrigin, Pollutant: tuple.CO2, Seq: uint64(s.a),
			Tuples: []tuple.Raw{{T: h.clock, S: 400}}})
		if _, refused := resp.(wire.ErrorResponse); !refused {
			h.failf("a frame of incarnation 0 answered %#v", resp)
		}
		h.settle()
	case "prune": // the origin's log keeps only its last a tuples
		h.logStart = max(h.logStart, end-min(end, uint64(s.a)))
	case "restart": // the origin restarts: a new incarnation whose log holds what it recovered
		h.streams[h.inc+1] = slices.Clone(h.streams[h.inc])
		h.inc, h.logStart = h.inc+1, 0
	case "answer", "stale", "fail": // the held round is answered as the origin's log stands, as it
		if h.m.asked == nil { //           stood when the round asked, or its exchange fails
			break
		}
		var answer *wire.ReplicaCatchupResponse // nil: the exchange fails
		switch cr := h.cut(*h.m.asked); s.kind {
		case "answer":
			answer = &cr
		case "stale":
			cut := h.m.cut
			answer = &cut
		}
		h.m.chunk(answer)
		h.answer <- answer // the session waits on it in Exchange
		h.settle()
	case "read":
		h.compare(fmt.Sprintf("read at step %d", i))
	case "serve":
		h.serveRef()
	default:
		h.failf("no step %v", s)
	}
}

// grow has the origin commit n more tuples and returns its stream's end.
// Time advances in steps of a minute, so about three tuples in four share
// their timestamp with the previous one; one in ten is late, by up to
// five windows. The sensor noise is low enough for a window's regions to
// meet τn in a few splits, so they stay large enough to start the next
// window's build.
func (h *mirrorHistory) grow(n int) uint64 {
	for range n {
		if h.data.Intn(4) == 0 {
			h.clock += 60 * float64(h.data.Intn(3))
		}
		ts := h.clock
		if h.data.Intn(10) == 0 {
			ts = max(0, ts-float64(1+h.data.Intn(5))*windowLen)
		}
		x, y := h.data.Float64()*2000-1000, h.data.Float64()*2000-1000
		h.streams[h.inc] = append(h.streams[h.inc], tuple.Raw{T: ts, X: x, Y: y, S: fieldVal(x, y) + h.data.NormFloat64()})
	}
	return h.end()
}

// send delivers the frame [seq, end) of the origin's stream and holds its
// answer to the model's.
func (h *mirrorHistory) send(seq, end uint64) {
	from, want := h.m.next, h.m.frame(h.inc, seq, end)
	resp := h.node.HandleMessage(wire.ReplicaIngest{Origin: mirrorOrigin, Pollutant: tuple.CO2, Seq: seq,
		Tuples: slices.Clone(h.streams[h.inc][seq:end]), Incarnation: h.inc})
	if ir, acked := resp.(wire.IngestResponse); acked != (want >= 0) || acked && int(ir.Ingested) != want {
		h.failf("frame [%d,%d) of incarnation %d at %d answered %#v, want %d tuples acked (-1: refused)", seq, end, h.inc, from, resp, want)
	}
	h.settle()
}

// settle waits on the mirror's moves until its session, unless it waits
// on a round, has asked the next or is over, and holds the mirror to the
// model. It then feeds the reference what the mirror applied: after a
// snapshot reset, a fresh engine from where the reset restarted it.
func (h *mirrorHistory) settle() {
	timer := time.NewTimer(moveBound)
	defer timer.Stop()
	m := &h.m
	for m.asked == nil {
		moved := cluster.NextMove(h.node)
		if pos, _ := cluster.MirrorAt(h.node, mirrorOrigin, tuple.CO2, nil); !pos.Pulling {
			if m.pulling {
				h.failf("the session is over; the history has it ask from %d of incarnation %d", m.next, m.inc)
			}
			break
		}
		select {
		case st := <-h.asked:
			if !m.pulling || st.Have != m.next || st.Incarnation != m.inc {
				h.failf("the session asked from %d of incarnation %d; the history has it (pulling: %v) at %d of %d",
					st.Have, st.Incarnation, m.pulling, m.next, m.inc)
			}
			m.rounds, m.asked, m.cut = m.rounds+1, &st, h.cut(st)
		case <-moved:
		case <-timer.C:
			h.failf("the mirror's session neither asked nor ended in %v", moveBound)
		}
	}
	pos, exists := cluster.MirrorAt(h.node, mirrorOrigin, tuple.CO2, nil)
	if pos.Inc == h.last.Inc && pos.Next < h.last.Next {
		h.failf("the mirror went back from %d to %d in incarnation %d", h.last.Next, pos.Next, pos.Inc)
	}
	h.last = pos
	rs, _ := h.node.ReplicationStats()
	if got, want := fmt.Sprint(exists, pos.Inc, pos.Next, rs.Gaps, rs.Catchups, rs.Snapshots),
		fmt.Sprint(m.inc != 0, m.inc, m.next, m.gaps, m.catchups, m.snapshots); got != want {
		h.failf("the mirror (held, incarnation, position; gaps, catch-ups, snapshot resets) reads %s; the history implies %s", got, want)
	}
	if m.snapshots > h.refSnaps {
		h.ref.Close()
		h.ref, h.refHave, h.refSnaps = propEngine(h.retain), m.snapFrom, m.snapshots
	}
	if pos.Next > h.refHave {
		resp := h.ref.HandleMessage(wire.IngestRequest{Pollutant: tuple.CO2, Tuples: h.streams[pos.Inc][h.refHave:pos.Next]})
		if _, ok := resp.(wire.IngestResponse); !ok {
			h.failf("reference refused tuples [%d,%d): %#v", h.refHave, pos.Next, resp)
		}
		h.refHave = pos.Next
	}
}

// heal ends a history: the origin streams on and answers every round as
// its log stands, until the mirror holds its stream. The mirror's log
// must then be that stream from where the log starts, bit for bit, and
// answer as the reference does.
func (h *mirrorHistory) heal() {
	for i := 0; h.m.asked != nil || h.m.inc != h.inc || h.m.next != h.end(); i++ {
		if i == 1<<14 {
			h.failf("the mirror did not converge in %d deliveries", i)
		}
		if end := h.end(); h.m.asked == nil {
			h.send(end, h.grow(1))
		}
		h.do(-1, step{kind: "answer"})
	}
	var log []tuple.Raw
	pos, _ := cluster.MirrorAt(h.node, mirrorOrigin, tuple.CO2, &log)
	bits := func(r tuple.Raw) [4]uint64 {
		return [4]uint64{math.Float64bits(r.T), math.Float64bits(r.X), math.Float64bits(r.Y), math.Float64bits(r.S)}
	}
	if !slices.EqualFunc(log, h.streams[h.inc][pos.Start:pos.Next],
		func(a, b tuple.Raw) bool { return bits(a) == bits(b) }) || h.retain == 0 && pos.Start > h.logStart {
		h.failf("healed, the mirror's log [%d,%d) is not the origin's stream from %d", pos.Start, pos.Next, h.logStart)
	}
	h.compare("end of history")
}

// compare asks the mirror (through ReplicaRead, which builds its engine
// on the first call) and the reference the same Model, Heatmap and Query
// requests in every window the stream has touched.
func (h *mirrorHistory) compare(when string) {
	if h.m.inc == 0 { // no mirror to read
		return
	}
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
				h.failf("%s: window %d %T: mirror answers %+v, an engine fed every frame %+v", when, c, req, got, want)
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
		h.failf("%v", err)
	}
	cv, err := h.ref.CoverAt(context.Background(), tuple.CO2, (float64(c)+0.5)*windowLen)
	if err != nil {
		return
	}
	cold, err := core.BuildCover(st.Window(c), c, windowLen, propConfig)
	if err != nil {
		h.failf("%v", err)
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
		h.failf("%v", err)
	}
	for _, c := range st.WindowIndexes() {
		if _, err := h.ref.CoverAt(context.Background(), tuple.CO2, (float64(c)+0.5)*windowLen); err != nil {
			h.failf("reference cover of window %d: %v", c, err)
		}
	}
}

// TestMirrorEquivalenceProperty: see the file comment.
func TestMirrorEquivalenceProperty(t *testing.T) {
	for _, retain := range []int{0, 3} {
		warm, orphaned := 0, 0
		for seed := int64(1); seed <= propSeeds; seed++ {
			h := playHistory(t, seed, retain, draw(seed))
			if h.answered == 0 {
				t.Fatalf("seed %d, retain %d: every compared read was an error", seed, retain)
			}
			warm, orphaned = warm+h.warm, orphaned+h.orphaned
		}
		t.Logf("retain %d: %d warm covers compared, %d windows compared after eviction took their predecessor", retain, warm, orphaned)
		if warm == 0 || retain > 0 && orphaned == 0 {
			t.Errorf("retain %d: the histories compared %d warm covers and %d windows whose predecessor was evicted", retain, warm, orphaned)
		}
	}
}

// TestStaleSnapshotLeavesMirror: a round's answer applies only while the
// mirror holds the position the round asked from. The origin has pruned
// its log past 30, so the round the mirror asks from 30 is cut as a
// snapshot reset to 31; the frames the mirror missed land meanwhile, and
// the snapshot arrives after them: applied, it would reset the mirror
// from 40 to 31. The session must ask again from 40 instead.
func TestStaleSnapshotLeavesMirror(t *testing.T) {
	playHistory(t, 1, 0, []step{{"forged", 0, 0}, {"commit", 30, 0}, {"drop", 5, 0}, {"prune", 4, 0},
		{"commit", 5, 0}, {"resend", 0, 9}, {"stale", 0, 0}})
}

// TestGapDuringCatchupPullsAgain: a gap refused while a catch-up session
// runs has the session pull again before it ends. The session's one
// round is answered with what the origin's log held when it asked, which
// ends before the frame the second gap lost; without a second pull the
// mirror would wait for the next gap to heal.
func TestGapDuringCatchupPullsAgain(t *testing.T) {
	playHistory(t, 1, 0, []step{{"forged", 0, 0}, {"commit", 10, 0}, {"drop", 5, 0}, {"commit", 5, 0},
		{"commit", 5, 0}, {"stale", 0, 0}, {"answer", 0, 0}})
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
		node := newMirrorNode(b, 0, func() cluster.Handler { return propEngine(0) }, nil)
		for seq := 0; seq < tuples; seq += frame {
			node.HandleMessage(wire.ReplicaIngest{Origin: mirrorOrigin, Pollutant: tuple.CO2, Seq: uint64(seq), Tuples: stream[seq : seq+frame], Incarnation: mirrorInc})
		}
		b.StartTimer()
		if _, ok := node.HandleMessage(read).(wire.ErrorResponse); !ok {
			b.Fatal("a read of an empty window answered")
		}
		b.StopTimer()
		node.Close()
	}
}
