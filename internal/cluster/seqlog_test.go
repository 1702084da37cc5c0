package cluster

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/store"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// naiveLog is the slice-and-copy log seqLog replaced, kept as the model
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
		lg := seqLog{retain: retain}
		var model naiveLog
		var seq float64
		for step := 0; step < 400; step++ {
			if step == 200 {
				// A snapshot reset mid-history: both restart at a new sequence.
				from := model.start + uint64(len(model.tuples)) + 5
				lg.reset(from)
				model = naiveLog{start: from}
			}
			b := make([]tuple.Raw, rng.Intn(2*retain+2))
			for i := range b {
				seq++
				b[i] = tuple.Raw{T: seq, X: rng.Float64(), Y: rng.Float64(), S: rng.Float64()}
			}
			lg.append(b)
			model.append(b, retain)

			next := model.start + uint64(len(model.tuples))
			if lg.start != model.start || lg.next() != next {
				t.Fatalf("retain %d step %d: [start,next) = [%d,%d), model [%d,%d)",
					retain, step, lg.start, lg.next(), model.start, next)
			}
			if held := lg.slots(); held > retain {
				t.Fatalf("retain %d step %d: ring holds capacity for %d tuples", retain, step, held)
			}
			lo := uint64(0)
			if model.start > 2 {
				lo = model.start - 2
			}
			for have := lo; have <= next+2; have++ {
				for _, limit := range []int{1, 3, retain, retain + 1} {
					got, want := lg.suffix(have, limit), model.suffix(have, limit)
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
// ring, which later appends overwrite in place.
func TestSeqLogSuffixIsACopy(t *testing.T) {
	lg := seqLog{retain: 4}
	lg.append([]tuple.Raw{{T: 1}, {T: 2}, {T: 3}, {T: 4}})
	chunk := lg.suffix(0, 4).Tuples
	lg.append([]tuple.Raw{{T: 5}, {T: 6}})
	if chunk[0].T != 1 || chunk[1].T != 2 {
		t.Errorf("suffix chunk changed under a later append: %+v", chunk)
	}
}

// slots counts the tuples the log's chunks have memory for, spare
// capacity included.
func (l *seqLog) slots() int {
	n := 0
	for _, c := range l.chunks {
		n += cap(c)
	}
	return n
}

// fullSeqLog returns a log already at its cap.
func fullSeqLog(retain int) *seqLog {
	lg := &seqLog{retain: retain}
	lg.append(make([]tuple.Raw, retain))
	return lg
}

// TestSeqLogAppendAtCapAllocatesNothing: at the cap an append overwrites
// the oldest tuples in place.
func TestSeqLogAppendAtCapAllocatesNothing(t *testing.T) {
	lg := fullSeqLog(1 << 12)
	batch := make([]tuple.Raw, 256)
	if allocs := testing.AllocsPerRun(100, func() { lg.append(batch) }); allocs != 0 {
		t.Errorf("append at the cap = %v allocs, want 0", allocs)
	}
	if lg.size != 1<<12 || lg.slots() != 1<<12 {
		t.Errorf("ring is %d/%d tuples, want exactly the cap %d", lg.size, lg.slots(), 1<<12)
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
		lg.append(batch)
	}
}

// TestSeqLogGrowsByChunksWithoutMoving: a log larger than one chunk opens
// chunks as it fills — one per seqChunk tuples, none of the earlier ones
// moving, the last cut so the total is exactly retain — and, once full,
// wraps across chunk boundaries with the same answers as the naive model.
func TestSeqLogGrowsByChunksWithoutMoving(t *testing.T) {
	const retain = 2*seqChunk + 300 // three chunks, the last one short
	lg := seqLog{retain: retain}
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
		if lg.start != model.start || lg.next() != next {
			t.Fatalf("step %d: [start,next) = [%d,%d), model [%d,%d)", step, lg.start, lg.next(), model.start, next)
		}
		for _, have := range []uint64{model.start, model.start + uint64(len(model.tuples)/2), model.start + seqChunk - 1, next - 1} {
			for _, limit := range []int{1, seqChunk + 7, retain} {
				if got, want := lg.suffix(have, limit), model.suffix(have, limit); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: suffix(%d, %d) over [%d,%d) differs from the model (%d vs %d tuples, from %d vs %d)",
						step, have, limit, model.start, next, len(got.Tuples), len(want.Tuples), got.From, want.From)
				}
			}
		}
	}

	var opened []*tuple.Raw // the first slot of every chunk, as it was when the chunk was opened
	for step := 0; lg.size < retain; step++ {
		b := batch(256)
		lg.append(b)
		model.append(b, retain)
		if want := (min(lg.n, retain) + seqChunk - 1) / seqChunk; len(lg.chunks) != want {
			t.Fatalf("step %d: %d tuples in %d chunks, want %d", step, lg.n, len(lg.chunks), want)
		}
		for i, c := range lg.chunks {
			if i == len(opened) {
				opened = append(opened, &c[0])
			} else if opened[i] != &c[0] {
				t.Fatalf("step %d: chunk %d moved when the log grew", step, i)
			}
		}
		compare(step)
	}
	if lg.slots() != retain || len(lg.chunks) != 3 || len(lg.chunks[2]) != 300 {
		t.Fatalf("full log holds %d slots in %d chunks, want exactly %d in 3", lg.slots(), len(lg.chunks), retain)
	}
	for step := 0; step < 40; step++ { // several times round the ring
		b := batch(1 + rng.Intn(700))
		lg.append(b)
		model.append(b, retain)
		compare(step)
	}
	if allocs := testing.AllocsPerRun(50, func() { lg.append(model.tuples[:700]) }); allocs != 0 {
		t.Errorf("append at the cap, across chunk boundaries = %v allocs, want 0", allocs)
	}

	// Below the cap an append allocates only when it opens a chunk: none of
	// these leaves the first one.
	small := seqLog{retain: retain}
	small.append(batch(1))
	if allocs := testing.AllocsPerRun(100, func() { small.append(model.tuples[:5]) }); allocs != 0 || len(small.chunks) != 1 {
		t.Errorf("appends inside an open chunk = %v allocs (%d chunks), want 0 (1)", allocs, len(small.chunks))
	}
}

// BenchmarkReplLogFillToCap is a log's whole growth: 256-tuple commits
// into an empty log until it retains logRetain tuples. B/op is what
// growing costs on top of the 4 MiB the full log holds.
func BenchmarkReplLogFillToCap(b *testing.B) {
	batch := make([]tuple.Raw, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lg := seqLog{retain: logRetain}
		for lg.n < logRetain {
			lg.append(batch)
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
	var lg seqLog
	var model naiveLog
	var seq float64
	for step := 0; step < 300; step++ {
		if step == 150 {
			from := lg.next() + 3
			lg.reset(from)
			model = naiveLog{start: from}
		}
		b := make([]tuple.Raw, rng.Intn(3*seqChunk/2))
		for i := range b {
			seq++
			b[i] = tuple.Raw{T: seq, X: rng.Float64()}
		}
		lg.append(b)
		model.tuples = append(model.tuples, b...)
		if k := rng.Intn(len(model.tuples) + 1); rng.Intn(3) == 0 {
			lg.drop(k)
			model.start += uint64(k)
			model.tuples = model.tuples[k:]
		}
		next := model.start + uint64(len(model.tuples))
		if lg.start != model.start || lg.next() != next {
			t.Fatalf("step %d: [start,next) = [%d,%d), model [%d,%d)", step, lg.start, lg.next(), model.start, next)
		}
		if lg.n > 0 && lg.at(0) != model.tuples[0] {
			t.Fatalf("step %d: head %v, model %v", step, lg.at(0), model.tuples[0])
		}
		var replayed []tuple.Raw
		lg.runs(func(run []tuple.Raw) bool {
			replayed = append(replayed, run...)
			return true
		})
		if len(replayed) != len(model.tuples) || (len(replayed) > 0 && !reflect.DeepEqual(replayed, model.tuples)) {
			t.Fatalf("step %d: runs replay %d tuples, model holds %d", step, len(replayed), len(model.tuples))
		}
		for _, have := range []uint64{model.start, model.start + uint64(len(model.tuples)/3), next} {
			if got, want := lg.suffix(have, seqChunk+5), model.suffix(have, seqChunk+5); !reflect.DeepEqual(got, want) {
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
			if slices.Contains(held, c) == k.evicted(tp) {
				t.Fatalf("step %d: window %d held by the store = %v, evicted by retention = %v (store holds %v, retention %v)",
					step, c, slices.Contains(held, c), k.evicted(tp), held, k.newest)
			}
		}
	}
}
