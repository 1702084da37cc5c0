package cluster

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/colblock"
	"repro/internal/store"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// naiveLog is the slice-and-copy log colblock.Log replaced, kept as the model
// the ring is checked against.
type naiveLog struct {
	start  uint64
	tuples []tuple.Raw
}

func (m *naiveLog) append(tuples []tuple.Raw, retain int) {
	m.tuples = append(m.tuples, tuples...)
	if over := len(m.tuples) - retain; over > 0 {
		m.start += uint64(over)
		m.tuples = append(m.tuples[:0:0], m.tuples[over:]...)
	}
}

func (m *naiveLog) suffix(have uint64, limit int) wire.ReplicaCatchupResponse {
	next := m.start + uint64(len(m.tuples))
	resp := wire.ReplicaCatchupResponse{}
	var idx int
	switch {
	case have == next:
		return wire.ReplicaCatchupResponse{From: next, Done: true}
	case have > next || have < m.start:
		resp.Snapshot = true
		resp.From = m.start
	default:
		resp.From = have
		idx = int(have - m.start)
	}
	end := min(idx+limit, len(m.tuples))
	resp.Tuples = append([]tuple.Raw(nil), m.tuples[idx:end]...)
	resp.Done = end == len(m.tuples)
	return resp
}

// TestSeqLogMatchesNaiveModel drives the ring and the model with the
// same random appends — sizes from empty to larger than the cap, so the
// log crosses its cap many times — and after each compares start, next
// and every suffix a puller could ask for: behind the log (snapshot), at
// every retained position, at next (done) and past it (diverged), with
// limits that cut the chunk short and limits that do not.
func TestSeqLogMatchesNaiveModel(t *testing.T) {
	for _, retain := range []int{1, 7, 64} {
		rng := rand.New(rand.NewSource(int64(retain)))
		lg := colblock.Log{Retain: retain, Recycle: true}
		var model naiveLog
		var seq float64
		for step := 0; step < 400; step++ {
			if step == 200 {
				// A snapshot reset mid-history: both restart at a new sequence.
				from := model.start + uint64(len(model.tuples)) + 5
				lg.Reset(from)
				model = naiveLog{start: from}
			}
			b := make([]tuple.Raw, rng.Intn(2*retain+2))
			for i := range b {
				seq++
				b[i] = tuple.Raw{T: seq, X: rng.Float64(), Y: rng.Float64(), S: rng.Float64()}
			}
			lg.Append(b)
			model.append(b, retain)

			next := model.start + uint64(len(model.tuples))
			if lg.Start() != model.start || lg.Next() != next {
				t.Fatalf("retain %d step %d: [start,next) = [%d,%d), model [%d,%d)",
					retain, step, lg.Start(), lg.Next(), model.start, next)
			}
			if held, most := lg.Held(), retain+2*colblock.ChunkTuples; held > most {
				t.Fatalf("retain %d step %d: log holds memory for %d tuples, want ≤ %d", retain, step, held, most)
			}
			lo := uint64(0)
			if model.start > 2 {
				lo = model.start - 2
			}
			for have := lo; have <= next+2; have++ {
				for _, limit := range []int{1, 3, retain, retain + 1} {
					got, want := suffix(&lg, have, limit), model.suffix(have, limit)
					if len(got.Tuples) == 0 && len(want.Tuples) == 0 {
						got.Tuples, want.Tuples = nil, nil
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("retain %d step %d: suffix(%d, %d) over [%d,%d)\n got %+v\nwant %+v",
							retain, step, have, limit, model.start, next, got, want)
					}
				}
			}
		}
	}
}

// TestSeqLogSuffixIsACopy: a chunk handed to a puller must not alias the
// log's open chunk, whose memory later appends reuse.
func TestSeqLogSuffixIsACopy(t *testing.T) {
	lg := colblock.Log{Retain: 4, Recycle: true}
	lg.Append([]tuple.Raw{{T: 1}, {T: 2}, {T: 3}, {T: 4}})
	chunk := suffix(&lg, 0, 4).Tuples
	lg.Append([]tuple.Raw{{T: 5}, {T: 6}})
	if chunk[0].T != 1 || chunk[1].T != 2 {
		t.Errorf("suffix chunk changed under a later append: %+v", chunk)
	}
}

// sealedAndOpen counts the log's sealed chunks and the tuples its open
// chunk holds.
func sealedAndOpen(lg *colblock.Log) (sealed, open int) {
	chunks := lg.Chunks(nil)
	return len(chunks), lg.Len() - colblock.ChunksLen(chunks)
}

// fullSeqLog returns a log at its cap that has already released a sealed
// chunk: the steady state of a long-running primary.
func fullSeqLog(retain int) *colblock.Log {
	lg := &colblock.Log{Retain: retain, Recycle: true}
	lg.Append(make([]tuple.Raw, retain+colblock.ChunkTuples))
	return lg
}

// TestSeqLogAppendAtCapAllocatesNothing: at the cap an append packs a
// chunk into the memory of the chunk it releases.
func TestSeqLogAppendAtCapAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch under -race")
	}
	const retain = 1 << 12
	lg := fullSeqLog(retain)
	batch := make([]tuple.Raw, 256)
	if allocs := testing.AllocsPerRun(100, func() { lg.Append(batch) }); allocs != 0 {
		t.Errorf("append at the cap = %v allocs, want 0", allocs)
	}
	if held, most := lg.Held(), retain+2*colblock.ChunkTuples; lg.Len() != retain || held > most {
		t.Errorf("log retains %d tuples in memory for %d, want exactly the cap %d in ≤ %d", lg.Len(), held, retain, most)
	}
}

// BenchmarkReplLogAppendAtCap is one 256-tuple commit landing on a
// replication log that already retains logRetain tuples — the
// steady state of a long-running primary or mirror.
func BenchmarkReplLogAppendAtCap(b *testing.B) {
	lg := fullSeqLog(logRetain)
	batch := make([]tuple.Raw, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lg.Append(batch)
	}
}

// TestSeqLogGrowsByChunksWithoutMoving: a log larger than one chunk seals
// a chunk each time its open chunk fills with colblock.ChunkTuples tuples,
// and only then — the tuples of it that fit their size class, the rest
// staying open — and a sealed chunk's bytes never move or change while the
// log retains any of its tuples; once at its cap, it releases chunks from
// its head with the same answers as the naive model.
func TestSeqLogGrowsByChunksWithoutMoving(t *testing.T) {
	const retain = 2*colblock.ChunkTuples + 300 // two sealed chunks and an open one when full
	lg := colblock.Log{Retain: retain, Recycle: true}
	var model naiveLog
	rng := rand.New(rand.NewSource(5))
	var seq float64
	batch := func(n int) []tuple.Raw {
		b := make([]tuple.Raw, n)
		for i := range b {
			seq++
			b[i] = tuple.Raw{T: seq, X: rng.Float64()}
		}
		return b
	}
	compare := func(step int) {
		t.Helper()
		next := model.start + uint64(len(model.tuples))
		if lg.Start() != model.start || lg.Next() != next {
			t.Fatalf("step %d: [start,next) = [%d,%d), model [%d,%d)", step, lg.Start(), lg.Next(), model.start, next)
		}
		for _, have := range []uint64{model.start, model.start + uint64(len(model.tuples)/2), model.start + colblock.ChunkTuples - 1, next - 1} {
			for _, limit := range []int{1, colblock.ChunkTuples + 7, retain} {
				if got, want := suffix(&lg, have, limit), model.suffix(have, limit); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: suffix(%d, %d) over [%d,%d) differs from the model (%d vs %d tuples, from %d vs %d)",
						step, have, limit, model.start, next, len(got.Tuples), len(want.Tuples), got.From, want.From)
				}
			}
		}
	}

	// sealed maps the sequence just past every sealed chunk's last tuple to
	// the chunk's first byte and a copy of its bytes, as they were when
	// sealed. Every sealed chunk was sealed full.
	type sealedAs struct {
		at    *byte
		bytes []byte
	}
	sealed := make(map[uint64]sealedAs)
	checkSealed := func(step int) {
		t.Helper()
		end := lg.Start()
		for i, c := range lg.Chunks(nil) {
			end += uint64(c.Len())
			if !c.Full() || c.Len() > colblock.ChunkTuples {
				t.Fatalf("step %d: sealed chunk %d holds %d tuples, sealed full %v; want ≤ %d, sealed full", step, i, c.Len(), c.Full(), colblock.ChunkTuples)
			}
			was, ok := sealed[end]
			packed := c.Packed()
			if !ok {
				sealed[end] = sealedAs{at: &packed[0], bytes: slices.Clone(packed)}
				continue
			}
			if was.at != &packed[0] || !bytes.Equal(was.bytes, packed) {
				t.Fatalf("step %d: sealed chunk %d (up to sequence %d) moved or changed", step, i, end)
			}
		}
	}
	for step := 0; lg.Len() < retain; step++ {
		b := batch(min(256, retain-lg.Len()))
		sealed0, open0 := sealedAndOpen(&lg)
		lg.Append(b)
		model.append(b, retain)
		sealed, open := sealedAndOpen(&lg)
		if fills := open0+len(b) >= colblock.ChunkTuples; open >= colblock.ChunkTuples || fills != (sealed > sealed0) {
			t.Fatalf("step %d: %d open tuples and %d more sealed %d chunks, %d open; want a chunk sealed (%v) only when the open one fills",
				step, open0, len(b), sealed-sealed0, open, fills)
		}
		checkSealed(step)
		compare(step)
	}
	if sealed, open := sealedAndOpen(&lg); sealed != 2 || open >= colblock.ChunkTuples || lg.Held() > 3*colblock.ChunkTuples {
		t.Fatalf("full log holds %d sealed chunks and %d open in memory for %d, want 2 and < %d in ≤ %d", sealed, open, lg.Held(), colblock.ChunkTuples, 3*colblock.ChunkTuples)
	}
	for step := 0; step < 40; step++ { // several times through the whole log
		b := batch(1 + rng.Intn(700))
		lg.Append(b)
		model.append(b, retain)
		checkSealed(step)
		compare(step)
		if held, most := lg.Held(), retain+2*colblock.ChunkTuples; held > most {
			t.Fatalf("step %d: log holds memory for %d tuples, want ≤ %d", step, held, most)
		}
	}
	if allocs := testing.AllocsPerRun(50, func() { lg.Append(model.tuples[:700]) }); allocs != 0 && !raceEnabled {
		t.Errorf("append at the cap, across chunk boundaries = %v allocs, want 0", allocs)
	}

	// Below the cap an append allocates only when it opens the log: none of
	// these seals a chunk.
	small := colblock.Log{Retain: retain, Recycle: true}
	small.Append(batch(1))
	if allocs := testing.AllocsPerRun(100, func() { small.Append(model.tuples[:5]) }); allocs != 0 || len(small.Chunks(nil)) != 0 {
		t.Errorf("appends inside the open chunk = %v allocs (%d sealed chunks), want 0 (0)", allocs, len(small.Chunks(nil)))
	}
}

// BenchmarkReplLogFillToCap is a log's whole growth: 256-tuple commits
// into an empty log until it retains logRetain tuples. B/op is what
// growing costs on top of the 4 MiB the full log holds.
func BenchmarkReplLogFillToCap(b *testing.B) {
	batch := make([]tuple.Raw, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lg := colblock.Log{Retain: logRetain, Recycle: true}
		for lg.Len() < logRetain {
			lg.Append(batch)
		}
	}
}

// TestUncappedSeqLogMatchesNaiveModel: a mirror's log has no cap and
// loses tuples only from its head, through drop. Random appends and drops
// — drops emptying whole chunks, which move to the end for reuse — keep
// start, next, the head, the replayed runs and the suffixes equal to the
// model's.
func TestUncappedSeqLogMatchesNaiveModel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	lg := colblock.Log{Recycle: true}
	var model naiveLog
	var seq float64
	for step := 0; step < 300; step++ {
		if step == 150 {
			from := lg.Next() + 3
			lg.Reset(from)
			model = naiveLog{start: from}
		}
		b := make([]tuple.Raw, rng.Intn(3*colblock.ChunkTuples/2))
		for i := range b {
			seq++
			b[i] = tuple.Raw{T: seq, X: rng.Float64()}
		}
		lg.Append(b)
		model.tuples = append(model.tuples, b...)
		if k := rng.Intn(len(model.tuples) + 1); rng.Intn(3) == 0 {
			lg.Drop(k)
			model.start += uint64(k)
			model.tuples = model.tuples[k:]
		}
		next := model.start + uint64(len(model.tuples))
		if lg.Start() != model.start || lg.Next() != next {
			t.Fatalf("step %d: [start,next) = [%d,%d), model [%d,%d)", step, lg.Start(), lg.Next(), model.start, next)
		}
		var replayed []tuple.Raw
		lg.Runs(func(run []tuple.Raw) bool {
			replayed = append(replayed, run...)
			return true
		})
		if len(replayed) != len(model.tuples) || (len(replayed) > 0 && !reflect.DeepEqual(replayed, model.tuples)) {
			t.Fatalf("step %d: runs replay %d tuples, model holds %d", step, len(replayed), len(model.tuples))
		}
		for _, have := range []uint64{model.start, model.start + uint64(len(model.tuples)/3), next} {
			if got, want := suffix(&lg, have, colblock.ChunkTuples+5), model.suffix(have, colblock.ChunkTuples+5); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: suffix(%d) differs from the model", step, have)
			}
		}
	}
}

// TestRetentionMatchesStoreEviction: retention names a tuple of a window
// it has seen evicted exactly when a store of the same window length and
// Retain, fed the same tuples, holds no such window — late tuples for
// windows already evicted included.
func TestRetentionMatchesStoreEviction(t *testing.T) {
	const window, retain = 10.0, 3
	rng := rand.New(rand.NewSource(4))
	k := retention{window: window, retain: retain}
	st, err := store.Open(store.Config{WindowLength: window, Retain: retain})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	clock := 0.0
	seen := make(map[int]bool)
	for step := 0; step < 200; step++ {
		b := make(tuple.Batch, 1+rng.Intn(6))
		for i := range b {
			clock += rng.Float64() * 4
			b[i] = tuple.Raw{T: max(0, clock-float64(rng.Intn(2))*float64(rng.Intn(6))*window)}
		}
		if err := st.Append(b); err != nil {
			t.Fatal(err)
		}
		k.add(b)
		for _, tp := range b {
			seen[tuple.WindowIndex(tp.T, window)] = true
		}
		held := st.WindowIndexes()
		for c := range seen {
			tp := tuple.Raw{T: float64(c)*window + 1}
			if slices.Contains(held, c) == k.evicted(tp.T) {
				t.Fatalf("step %d: window %d held by the store = %v, evicted by retention = %v (store holds %v, retention %v)",
					step, c, slices.Contains(held, c), k.evicted(tp.T), held, k.newest)
			}
		}
	}
}

// TestPackedSeqLogProperty drives logs through seeded random histories —
// appends from one tuple to two chunks; drops by count and by eviction,
// with one tuple in eight late and the eviction boundary creeping a few
// seconds at a time as well as jumping, so it keeps landing inside a
// chunk and right after a chunk's first retained tuple; snapshot resets
// — capped below a chunk, above it and not at all, and after every step
// holds them to the naive model: the sequence space, the replay and
// every suffix bit for bit, and the memory ceiling. A failure names its seed. Under the race detector, which has
// nothing to find in a log with no goroutines, one seed runs per cap.
func TestPackedSeqLogProperty(t *testing.T) {
	seeds := int64(8)
	if raceEnabled {
		seeds = 1
	}
	for _, retain := range []int{0, 700, 2*colblock.ChunkTuples + 300} {
		for seed := int64(1); seed <= seeds; seed++ {
			packedLogHistory(t, seed, retain)
		}
	}
}

func packedLogHistory(t *testing.T, seed int64, retain int) {
	name := fmt.Sprintf("seed %d, retain %d", seed, retain)
	rng := rand.New(rand.NewSource(seed))
	lg := colblock.Log{Retain: retain, Recycle: true}
	var model naiveLog
	var clock, cut float64 // stream time; times before cut are evicted
	evicted := func(t float64) bool { return t < cut }
	gen := func(n int) []tuple.Raw {
		b := make([]tuple.Raw, n)
		for i := range b {
			clock += float64(rng.Intn(3))
			ts := clock
			if rng.Intn(8) == 0 {
				ts = max(0, ts-float64(rng.Intn(3000))) // late
			}
			y := rng.NormFloat64() * 1000
			switch rng.Intn(40) {
			case 0:
				y = math.Copysign(0, -1)
			case 1:
				y = 5e-324
			}
			b[i] = tuple.Raw{T: ts, X: rng.Float64() * 3000, Y: y, S: float64(rng.Intn(800)) / 8}
		}
		return b
	}
	for step := 0; step < 200; step++ {
		op := rng.Intn(10)
		switch {
		case op < 5:
			b := gen(1 + rng.Intn(2*colblock.ChunkTuples))
			lg.Append(b)
			if retain > 0 {
				model.append(b, retain)
			} else {
				model.tuples = append(model.tuples, b...)
			}
		case op < 7 && retain == 0:
			k := rng.Intn(len(model.tuples) + 1)
			if rng.Intn(2) == 0 { // a few tuples: the head stays in its chunk
				k = min(k, rng.Intn(40))
			}
			lg.Drop(k)
			model.start += uint64(k)
			model.tuples = model.tuples[k:]
		case op < 9 && retain == 0:
			if rng.Intn(2) == 0 { // a step: the boundary creeps through a chunk
				cut += float64(rng.Intn(4))
			} else {
				cut = max(cut, clock-float64(rng.Intn(4000)))
			}
			lg.DropWhile(evicted)
			k := 0
			for k < len(model.tuples) && evicted(model.tuples[k].T) {
				k++
			}
			model.start += uint64(k)
			model.tuples = model.tuples[k:]
		case op == 9:
			from := model.start + uint64(len(model.tuples)) + uint64(rng.Intn(5))
			lg.Reset(from)
			model = naiveLog{start: from}
		}

		next := model.start + uint64(len(model.tuples))
		if lg.Start() != model.start || lg.Next() != next {
			t.Fatalf("%s, step %d: [start,next) = [%d,%d), model [%d,%d)", name, step, lg.Start(), lg.Next(), model.start, next)
		}
		var replayed []tuple.Raw
		lg.Runs(func(run []tuple.Raw) bool {
			replayed = append(replayed, run...)
			return true
		})
		if !bitEqualTuples(replayed, model.tuples) {
			t.Fatalf("%s, step %d: runs replay %d tuples that differ from the model's %d", name, step, len(replayed), len(model.tuples))
		}
		for range 4 {
			have := model.start + uint64(rng.Intn(len(model.tuples)+1))
			limit := 1 + rng.Intn(3*colblock.ChunkTuples)
			got, want := suffix(&lg, have, limit), model.suffix(have, limit)
			if got.From != want.From || got.Snapshot != want.Snapshot || got.Done != want.Done || !bitEqualTuples(got.Tuples, want.Tuples) {
				t.Fatalf("%s, step %d: suffix(%d, %d) over [%d,%d) differs from the model", name, step, have, limit, model.start, next)
			}
		}
		if retain > 0 {
			if held, most := lg.Held(), retain+2*colblock.ChunkTuples; held > most {
				t.Fatalf("%s, step %d: log holds memory for %d tuples, want ≤ %d", name, step, held, most)
			}
		} else if chunks := lg.Chunks(nil); len(chunks) > 0 && chunks[0].Len() == 0 {
			t.Fatalf("%s, step %d: the oldest sealed chunk retains none of its tuples", name, step)
		}
	}
}

// bitEqualTuples compares tuples bit for bit (negative zero included).
func bitEqualTuples(a, b []tuple.Raw) bool {
	return slices.EqualFunc(a, b, func(x, y tuple.Raw) bool {
		return math.Float64bits(x.T) == math.Float64bits(y.T) && math.Float64bits(x.X) == math.Float64bits(y.X) &&
			math.Float64bits(x.Y) == math.Float64bits(y.Y) && math.Float64bits(x.S) == math.Float64bits(y.S)
	})
}
