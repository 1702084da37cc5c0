package colblock

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/tuple"
)

// sliceLog is the model a Log is held to: the retained tuples in a plain
// slice, and the sequence of the first.
type sliceLog struct {
	start  uint64
	tuples []tuple.Raw
}

func (m *sliceLog) drop(k int) {
	m.start += uint64(k)
	m.tuples = m.tuples[k:]
}

// pendingRead is a read whose sealed part is unpacked only after the log
// has moved on: want is what the model held at the read.
type pendingRead struct {
	refs []Chunk
	want []tuple.Raw
}

// FuzzLogMatchesSlice drives a Log — capped or not, recycling its chunks'
// bytes or not — through the appends, seals, drops, evictions, resets,
// reads and hand-backs the fuzzer spells, and holds it after every step to
// the same steps on a plain slice: the sequence space, every read, the
// replay, the sealed chunks and the bounding box, bit for bit. A hand-back
// gives the pool a donor log's chunks and, when the log does not recycle,
// the chunks it has let go of, which the next seals pack into. A log that
// does not recycle also keeps each read's chunk references until its
// chunks are handed back and unpacks them then, and holds every chunk it
// retains from one step to the next to the same bytes: a sealed chunk must
// never change while the log holds it, whatever it and the pool did
// meanwhile.
func FuzzLogMatchesSlice(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 200, 1, 6, 0, 9, 6, 10, 20, 2, 7, 0, 40, 17, 3, 60, 6, 1, 1, 7})
	f.Add([]byte{1, 1, 0, 7, 255, 2, 0, 9, 128, 3, 4, 10, 200, 4, 30, 2, 6, 5, 5, 6, 0, 200, 7})
	f.Add([]byte{2, 1, 0, 4, 0, 3, 1, 200, 1, 2, 0, 6, 9, 3, 30, 6, 3, 3, 5, 2, 7})
	f.Add([]byte{3, 0, 0, 2, 100, 4, 0, 2, 100, 5, 2, 4, 9, 4, 200, 6, 40, 40, 6, 255, 1, 7})
	f.Add([]byte{4, 0, 1, 0, 0, 8, 0, 3, 0, 9, 2, 7, 3, 128, 6, 0, 255, 5, 1, 0, 1, 1, 7})
	// A short chunk sealed early, a longer run after it, a drop of the
	// first tuple, then an eviction that may cover the whole first chunk.
	f.Add([]byte{0, 0, 0, 1, 2, 2, 0, 2, 4, 3, 1, 4, 200, 7, 4, 100, 7, 6, 0, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 1<<12 {
			return
		}
		retain := [...]int{0, 0, 5, 700, ChunkTuples + 300}[data[0]%5]
		lg := Log{Retain: retain, Recycle: data[1]&1 == 1}
		var model sliceLog
		var clock, cut, donorClock float64
		var pending []pendingRead
		checkPending := func() {
			for i, p := range pending {
				got := make([]tuple.Raw, len(p.want))
				unpackRefs(got, p.refs)
				if !bitEqualBatches(got, p.want) {
					t.Fatalf("read %d: its sealed chunks changed after the read", i)
				}
			}
			pending = nil
		}
		// kept holds a copy of each sealed chunk the log held after the
		// last step, and seen every chunk it held after some step and has
		// not been handed back, both by the address of the chunk's first
		// byte.
		kept := map[*byte][]byte{}
		seen := map[*byte]Chunk{}
		data = data[2:]
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		// pick is a position in [0, n], spread by one byte.
		pick := func(n int) int { return next() * (n + 1) / 256 }
		for step := 0; len(data) > 0; step++ {
			switch op := next() % 9; op {
			case 0, 1: // append up to two chunks of tuples
				n := next()<<3 | next()&7
				b := fuzzTuples(rand.New(rand.NewSource(int64(step))), n, &clock)
				lg.Append(b)
				model.tuples = append(model.tuples, b...)
				if over := len(model.tuples) - retain; retain > 0 && over > 0 {
					model.drop(over)
				}
			case 2:
				lg.Seal()
			case 3:
				k := pick(len(model.tuples))
				lg.Drop(k)
				model.drop(k)
			case 4: // evict by time: the cut creeps, or jumps
				if b := next(); b < 128 {
					cut += float64(b % 4)
				} else {
					cut = max(cut, clock-float64(b)*8)
				}
				evicted := func(t float64) bool { return t < cut }
				lg.DropWhile(evicted)
				k := 0
				for k < len(model.tuples) && evicted(model.tuples[k].T) {
					k++
				}
				model.drop(k)
			case 5:
				from := model.start + uint64(len(model.tuples)+next()%5)
				lg.Reset(from)
				model = sliceLog{start: from}
			case 6:
				off := pick(len(model.tuples))
				end := off + pick(len(model.tuples)-off)
				want := model.tuples[off:end]
				dst := make([]tuple.Raw, len(want))
				refs := lg.refer(dst, off, nil)
				unpackRefs(dst, refs)
				if !bitEqualBatches(dst, want) {
					t.Fatalf("step %d: refer [%d, %d) differs from the slice", step, off, end)
				}
				got := make([]tuple.Raw, len(want))
				lg.CopyOut(got, off)
				if !bitEqualBatches(got, want) {
					t.Fatalf("step %d: CopyOut [%d, %d) differs from the slice", step, off, end)
				}
				if !lg.Recycle {
					pending = append(pending, pendingRead{refs: refs, want: slices.Clone(want[:ChunksLen(refs)])})
				}
			case 7:
				var replayed []tuple.Raw
				lg.Runs(func(run []tuple.Raw) bool {
					replayed = append(replayed, run...)
					return true
				})
				if !bitEqualBatches(replayed, model.tuples) {
					t.Fatalf("step %d: Runs replay %d tuples that differ from the slice's %d", step, len(replayed), len(model.tuples))
				}
				refs := lg.Chunks(nil)
				sealed := make([]tuple.Raw, ChunksLen(refs))
				unpackRefs(sealed, refs)
				if len(sealed) > len(model.tuples) || !bitEqualBatches(sealed, model.tuples[:len(sealed)]) {
					t.Fatalf("step %d: the sealed chunks hold %d tuples that are not the slice's first", step, len(sealed))
				}
				got, gok := lg.Bounds()
				want, wok := tuple.Batch(model.tuples).Bounds()
				if gok != wok || !sameRect(got, want) {
					t.Fatalf("step %d: Bounds %+v,%v, slice %+v,%v", step, got, gok, want, wok)
				}
			case 8:
				var donor Log
				donor.Append(fuzzTuples(rand.New(rand.NewSource(int64(step))), 1+next()<<3, &donorClock))
				donor.Seal()
				give := donor.Chunks(nil)
				if !lg.Recycle {
					checkPending()
					for p, c := range seen {
						if _, held := kept[p]; !held {
							give = append(give, c)
							delete(seen, p)
						}
					}
				}
				HandBack(give)
			}
			if lg.Start() != model.start || lg.Len() != len(model.tuples) || lg.Next() != model.start+uint64(len(model.tuples)) {
				t.Fatalf("step %d: log [%d,%d) of %d tuples, slice [%d,+%d)", step, lg.Start(), lg.Next(), lg.Len(), model.start, len(model.tuples))
			}
			chunks := lg.Chunks(nil)
			if !lg.Recycle {
				held := make(map[*byte]bool, len(chunks))
				for _, c := range chunks {
					p := &c.packed[0]
					held[p] = true
					if b, ok := kept[p]; !ok {
						kept[p], seen[p] = slices.Clone(c.packed), c
					} else if !bytes.Equal(b, c.packed) {
						t.Fatalf("step %d: a chunk the log held throughout changed its bytes", step)
					}
				}
				for p := range kept {
					if !held[p] {
						delete(kept, p)
					}
				}
			}
			if len(chunks) > 0 && chunks[0].Len() == 0 {
				t.Fatalf("step %d: the oldest sealed chunk retains none of its tuples", step)
			}
			for i, c := range chunks[:max(len(chunks)-1, 0)] {
				if c.n != ChunkTuples {
					t.Fatalf("step %d: sealed chunk %d of %d packs %d tuples; only the newest may be short of %d", step, i, len(chunks), c.n, ChunkTuples)
				}
			}
			if retain > 0 && lg.Held() > retain+2*ChunkTuples {
				t.Fatalf("step %d: log holds memory for %d tuples, want ≤ %d", step, lg.Held(), retain+2*ChunkTuples)
			}
		}
		checkPending()
	})
}

// fuzzTuples returns n tuples on a clock that moves a few seconds at a
// time, one in eight late; positions and samples are mostly plain, now
// and then negative zero, a denormal, an infinity or a NaN.
func fuzzTuples(rng *rand.Rand, n int, clock *float64) []tuple.Raw {
	b := make([]tuple.Raw, n)
	special := [...]float64{math.Copysign(0, -1), 5e-324, math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8_0000_0000_0abc)}
	val := func(scale float64) float64 {
		if k := rng.Intn(40); k < len(special) {
			return special[k]
		}
		return math.Round(rng.NormFloat64()*scale*8) / 8
	}
	for i := range b {
		*clock += float64(rng.Intn(3))
		ts := *clock
		if rng.Intn(8) == 0 {
			ts = max(0, ts-float64(rng.Intn(3000)))
		}
		b[i] = tuple.Raw{T: ts, X: val(1000), Y: val(1000), S: val(50)}
	}
	return b
}

// sameRect compares bounding boxes: equal corners, a NaN where the other
// has one (which NaN a min or max over NaNs returns is not pinned).
func sameRect(a, b geo.Rect) bool {
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
	}
	return same(a.Min.X, b.Min.X) && same(a.Min.Y, b.Min.Y) && same(a.Max.X, b.Max.X) && same(a.Max.Y, b.Max.Y)
}

// TestLogSealsEarlyAndRefills: a chunk sealed before it is full holds what
// the open chunk held; the next append unpacks it into a new open chunk,
// so however often the log is sealed, every chunk but the newest is full,
// and a read returns the tuples in append order.
func TestLogSealsEarlyAndRefills(t *testing.T) {
	var lg Log
	var want []tuple.Raw
	var clock float64
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{3, 700, 500, 1, 1500} {
		b := fuzzTuples(rng, n, &clock)
		lg.Append(b)
		lg.Seal()
		want = append(want, b...)
	}
	chunks := lg.Chunks(nil)
	if lg.Held() != len(want) || ChunksLen(chunks) != len(want) {
		t.Fatalf("sealed log holds %d tuples in %d chunks, memory for %d; want all %d sealed", ChunksLen(chunks), len(chunks), lg.Held(), len(want))
	}
	if sizes := []int{ChunkTuples, ChunkTuples, len(want) - 2*ChunkTuples}; len(chunks) != len(sizes) {
		t.Fatalf("%d chunks, want %v", len(chunks), sizes)
	} else {
		for i, c := range chunks {
			if c.Len() != sizes[i] {
				t.Fatalf("chunk %d holds %d tuples, want %d", i, c.Len(), sizes[i])
			}
		}
	}
	got := make([]tuple.Raw, len(want))
	lg.CopyOut(got, 0)
	if !bitEqualBatches(got, want) {
		t.Fatal("a read across sealed-early chunks differs from what was appended")
	}
}

// TestDropWhileAcrossAnEmptiedChunk: when the oldest chunk's dropped head
// held its newest time, DropWhile must unpack it to learn that every
// retained tuple of it is evicted, drop it, and go on to settle the next
// chunk from its own tuples.
func TestDropWhileAcrossAnEmptiedChunk(t *testing.T) {
	var lg Log
	var model sliceLog
	add := func(n int, t0 float64) {
		b := make([]tuple.Raw, n)
		for i := range b {
			b[i] = tuple.Raw{T: t0 + float64(i), X: float64(i), Y: 1, S: 2}
		}
		lg.Append(b)
		model.tuples = append(model.tuples, b...)
	}
	add(1, 1e6) // the oldest chunk's newest tuple, dropped below
	add(ChunkTuples-1, 1)
	add(ChunkTuples, 2000)
	add(10, 4000)
	lg.Drop(1)
	model.drop(1)
	for _, cut := range []float64{2500, 2600, 4005} {
		lg.DropWhile(func(t float64) bool { return t < cut })
		k := 0
		for k < len(model.tuples) && model.tuples[k].T < cut {
			k++
		}
		model.drop(k)
		if lg.Start() != model.start || lg.Len() != len(model.tuples) {
			t.Fatalf("cut %v: log holds [%d, +%d), want [%d, +%d)", cut, lg.Start(), lg.Len(), model.start, len(model.tuples))
		}
		got := make([]tuple.Raw, lg.Len())
		lg.CopyOut(got, 0)
		if !bitEqualBatches(got, model.tuples) {
			t.Fatalf("cut %v: the log's tuples differ from the slice's", cut)
		}
	}
}
