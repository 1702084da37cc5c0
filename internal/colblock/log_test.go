package colblock

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
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
		lg.Expect(int(data[1]>>1) << 7) // up to 19 chunks foreseen
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
				if !c.full {
					t.Fatalf("step %d: sealed chunk %d of %d (%d tuples) was sealed early; only the newest may be", step, i, len(chunks), c.n)
				}
			}
			for i, c := range chunks {
				if k, _ := slices.BinarySearch(sizeClasses, len(c.packed)); c.n > ChunkTuples || k < len(sizeClasses) && cap(c.packed) != sizeClasses[k] {
					t.Fatalf("step %d: sealed chunk %d of %d packs %d tuples into %d bytes of %d; want ≤ %d tuples in memory of the run's size class", step, i, len(chunks), c.n, len(c.packed), cap(c.packed), ChunkTuples)
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
// so however often the log is sealed, every chunk but the newest was
// sealed full — holding the tuples of a full open chunk that fit their
// size class, the rest left for the next chunk — and a read returns the
// tuples in append order.
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
	// The full chunks hold what a full open chunk's seal keeps of the
	// tuples that follow the last one; the newest, sealed early, the rest.
	var sizes []int
	for at := 0; at+ChunkTuples <= len(want); {
		_, n := packChunk(want[at:at+ChunkTuples], true)
		sizes = append(sizes, n)
		at += n
	}
	rest := len(want)
	for _, n := range sizes {
		rest -= n
	}
	sizes = append(sizes, rest)
	if len(chunks) != len(sizes) || len(sizes) != 3 {
		t.Fatalf("%d chunks, want %v", len(chunks), sizes)
	}
	for i, c := range chunks {
		if c.Len() != sizes[i] || c.Full() != (i < len(chunks)-1) {
			t.Fatalf("chunk %d holds %d tuples (sealed full %v), want %d (%v)", i, c.Len(), c.Full(), sizes[i], i < len(chunks)-1)
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

// TestFullChunksFitTheirSizeClass: the fleet's day appended window by
// window, in 256-tuple batches, each window sealed when the stream leaves
// it, as a store keeps it. Every chunk sealed full holds a run that wastes
// at most 1/64 of its size class — ≈ 22.5 KB runs of 1 024 tuples took
// 24 KiB objects before fitting — in memory of exactly that class, and the
// log reads back what was appended, bit for bit. A full chunk of constant
// tuples, whose 52-byte run fits no class below its own, is sealed whole.
func TestFullChunksFitTheirSizeClass(t *testing.T) {
	var packed, held, full, fitted int
	for _, w := range lausanneWindows() {
		var lg Log
		for lo := 0; lo < len(w.Tuples); lo += 256 {
			lg.Append(w.Tuples[lo:min(lo+256, len(w.Tuples))])
		}
		lg.Seal()
		for _, c := range lg.Chunks(nil) {
			packed += len(c.packed)
			held += cap(c.packed)
			if !c.Full() {
				continue
			}
			full++
			if c.n < ChunkTuples {
				fitted++
			}
			if waste := cap(c.packed) - len(c.packed); waste*64 > cap(c.packed) {
				t.Errorf("window %d: a full chunk of %d tuples packs to %d B in %d, wasting more than 1/64", w.Window, c.n, len(c.packed), cap(c.packed))
			}
			if k, _ := slices.BinarySearch(sizeClasses, len(c.packed)); cap(c.packed) != sizeClasses[k] {
				t.Errorf("window %d: a run of %d B is held in %d B, not its size class %d", w.Window, len(c.packed), cap(c.packed), sizeClasses[k])
			}
		}
		got := make([]tuple.Raw, lg.Len())
		lg.CopyOut(got, 0)
		if !bitEqualBatches(got, w.Tuples) {
			t.Errorf("window %d reads back %d tuples that differ from the %d appended", w.Window, len(got), len(w.Tuples))
		}
	}
	t.Logf("%d full chunks, %d of them fitted short of %d tuples; all chunks: %d B of runs in %d B of memory (%.2f %% rounding)",
		full, fitted, ChunkTuples, packed, held, 100*float64(held-packed)/float64(held))
	if full == 0 || fitted == 0 {
		t.Errorf("%d full chunks, %d fitted: the day must seal and fit some", full, fitted)
	}

	var lg Log
	same := make([]tuple.Raw, ChunkTuples+5)
	for i := range same {
		same[i] = tuple.Raw{T: 7, X: 1, Y: 2, S: 3}
	}
	lg.Append(same)
	if chunks := lg.Chunks(nil); len(chunks) != 1 || chunks[0].Len() != ChunkTuples || !chunks[0].Full() || len(chunks[0].Packed()) != 52 {
		t.Errorf("a full chunk of constant tuples sealed into %d chunks (first: %d tuples, full %v, %d B), want one whole chunk of %d in 52 B",
			len(chunks), chunks[0].Len(), chunks[0].Full(), len(chunks[0].Packed()), ChunkTuples)
	}
	got := make([]tuple.Raw, lg.Len())
	lg.CopyOut(got, 0)
	if !bitEqualBatches(got, same) {
		t.Error("the constant log reads back other tuples")
	}
}

// TestSizeClassesAreTheAllocators holds the size classes a full chunk is
// fitted to to the runtime's: runtime.MemStats.BySize, which lists the
// classes up to 18 KiB, and above those the capacity the allocator rounds
// a growing slice up to, which is what chunk memory is (chunkBytes).
func TestSizeClassesAreTheAllocators(t *testing.T) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if len(sizeClasses) < len(ms.BySize)-1 {
		t.Fatalf("%d size classes, want at least BySize's %d", len(sizeClasses), len(ms.BySize)-1)
	}
	for i, bs := range ms.BySize[1:] {
		if int(bs.Size) != sizeClasses[i] {
			t.Errorf("size class %d is %d B, BySize says %d", i, sizeClasses[i], bs.Size)
		}
	}
	prev := 0
	for _, c := range sizeClasses {
		if lo, hi := cap(slices.Grow([]byte(nil), prev+1)), cap(slices.Grow([]byte(nil), c)); lo != c || hi != c {
			t.Errorf("size class %d B: the allocator rounds %d B up to %d and %d B to %d", c, prev+1, lo, c, hi)
		}
		prev = c
	}
	if over := cap(slices.Grow([]byte(nil), prev+1)); over <= prev {
		t.Errorf("%d B, over the largest class %d, rounds up to %d", prev+1, prev, over)
	}
}
