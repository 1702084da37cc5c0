package colblock

import (
	"fmt"
	"math"
	"runtime/metrics"
	"slices"
	"sync"

	"repro/internal/geo"
	"repro/internal/tuple"
)

// ChunkTuples is the most tuples one chunk of a Log holds (32 KiB raw).
const ChunkTuples = 1 << 10

// Log is a stream of tuples held in memory packed: the positions
// [Start, Next) of a sequence space, in the order they were appended. A
// store window keeps its in-memory tuples in one, a replica one per
// mirror, and a primary the tuples its replication log holds by value.
//
// Storage is chunks of at most ChunkTuples tuples. Only the newest, the
// open chunk, holds tuple.Raw values, in memory with room for ChunkTuples
// of them from its first tuple on. A chunk is sealed — packed as one run
// (≈ 22 B a tuple instead of 32, lossless bit for bit) into memory of the
// run's size class — when it fills, and when its owner calls Seal.
//
// A full chunk is fitted to its size class. The allocator rounds every
// allocation up to a class (a 22.5 KB run takes a 24 KiB object), so when
// the whole chunk's run would leave more than 1/64 of its class unused,
// the log seals only the longest prefix whose run fits the class below,
// and the rest (a few dozen tuples on a sensor fleet's stream) stay at the
// open chunk's front for the next seal. A chunk too small for any class
// below is sealed whole. Seal seals the open chunk whole, however full, and
// its raw memory goes back to a pool the next open chunk is taken from, so
// no raw chunk outlives a garbage collection.
//
// A sealed chunk never changes while the log holds it; but the next append
// after Seal unpacks the chunk Seal sealed into a new open chunk, and the
// log lets the packed one go, so however often a log is sealed, every
// chunk but its newest was sealed full (Chunk.Full). The log loses tuples
// only from its head: a capped log (Retain) those past its cap, any log
// those Drop, DropWhile and Reset let go. A sealed chunk goes once none of
// its tuples is retained.
//
// Chunk memory is reused. A seal packs into bytes of the run's size class
// that some log's chunk held before, handed back (HandBack, or Recycle)
// once nothing read them any more, and into new memory when none wait.
// Handed-back bytes wait in a pool the collector empties, so none outlives
// two collections.
//
// A Log must not be copied once used: its first chunks' references live
// in it. It has no lock of its own: its owner's mutex guards it, and a read
// (CopyOut, Runs) unpacks under it. Chunks hands out the sealed chunks by
// reference, to be read after the lock is released only by an owner that
// hands none of them back meanwhile (a store's checkpoint writes its
// snapshot from them).
type Log struct {
	// Retain caps the retained tuples; 0 keeps every tuple until Drop,
	// DropWhile or Reset lets it go.
	Retain int
	// Recycle hands the bytes of every chunk the log lets go of back as it
	// lets go, for the next seal to pack into: a log at its cap then
	// allocates nothing while the collector leaves the pool be. Set it only
	// when no Chunk of the log is read after the owner's lock is released.
	Recycle bool

	start  uint64       // sequence of the oldest retained tuple
	sealed []Chunk      // chunks sealed full, oldest first; the newest may be sealed early
	first  [2]Chunk     // the array sealed starts in (a fleet window seals two)
	expect int          // the sealed chunks Expect foresees
	open   *[]tuple.Raw // the newest tuples; nil when there are none
	head   int          // leading tuples of the oldest sealed chunk already dropped
	n      int          // retained tuples
}

// Chunk is a sealed chunk of a Log, or the part of one a read refers to:
// a packed run of n tuples, which never changes, of which the tuples
// [from, to) are meant. minT and maxT bound the times of the chunk's
// retained tuples (minT only its first retained one's) and box its
// positions: what DropWhile and Bounds need without unpacking it.
type Chunk struct {
	packed     []byte
	n          int
	from, to   int
	minT, maxT float64
	box        geo.Rect
	full       bool
}

// Len is the number of tuples the chunk refers to.
func (c Chunk) Len() int { return c.to - c.from }

// Full reports whether the chunk was sealed from a full open chunk (and
// holds the tuples that fit their size class), not by Seal: a log unpacks
// only a chunk Seal sealed again.
func (c Chunk) Full() bool { return c.full }

// Packed is the chunk's packed run, all n of its tuples (Unpack reads it
// back). It does not change until the chunk's bytes are handed back.
func (c Chunk) Packed() []byte { return c.packed }

// ChunksLen is the number of tuples refs refer to.
func ChunksLen(refs []Chunk) int {
	n := 0
	for _, c := range refs {
		n += c.Len()
	}
	return n
}

// rawChunks lends open chunks; a sealed chunk's raw memory goes back.
var rawChunks = sync.Pool{New: func() any { return new([]tuple.Raw) }}

// unpackBufs lends reads a chunk's worth of tuples to unpack into.
var unpackBufs = sync.Pool{New: func() any { return new([ChunkTuples]tuple.Raw) }}

// sizeClasses are the allocator's size classes, ascending: the sizes it
// rounds a small allocation up to, read once from the runtime's histogram
// of allocations by size, whose buckets are the classes. An allocation
// larger than the largest class is a large object, which takes whole pages.
// Nil if the runtime does not report the histogram: then nothing is fitted.
var sizeClasses = readSizeClasses()

func readSizeClasses() []int {
	s := []metrics.Sample{{Name: "/gc/heap/allocs-by-size:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return nil
	}
	// The buckets are [1, 9), [9, 17), …, [32769, +Inf): each bound past
	// the first is one byte over a class.
	b := s[0].Value.Float64Histogram().Buckets
	classes := make([]int, 0, len(b))
	for _, lo := range b[1 : len(b)-1] {
		classes = append(classes, int(lo)-1)
	}
	return classes
}

// fitClass is the size class a full chunk's packed run of n bytes is
// fitted to, or 0 when it is not: the class below n's own when that one is
// more than n/64 larger than n, or the largest class when n is over it (a
// large object, rounded up to whole pages). A run that fits no class below
// is not fitted.
func fitClass(n int) int {
	i, _ := slices.BinarySearch(sizeClasses, n)
	switch {
	case i == 0:
		return 0
	case i == len(sizeClasses):
		return sizeClasses[i-1]
	case (sizeClasses[i]-n)*64 <= n:
		return 0
	}
	return sizeClasses[i-1]
}

// Handed-back chunk bytes wait in spares for the next seal to pack into,
// one pool for each size class: a run takes only spares of its own class,
// so a chunk never holds memory of a class larger than its run's. They are
// sync.Pools, which the collector empties. A spare rides in a box (*[]byte)
// so that neither handing back nor taking allocates: chunkBytes parks the
// emptied box in boxes, and handBack fills one from there.
var (
	spares = make([]sync.Pool, len(sizeClasses)) // spares[i]: capacity sizeClasses[i]
	boxes  sync.Pool
)

// HandBack gives the bytes of chunks to the next seals, of any Log, to
// pack into. The caller must hold the last references to them: no log
// retains them any more, and nothing reads them again.
func HandBack(chunks []Chunk) {
	for _, c := range chunks {
		handBack(c.packed)
	}
}

// handBack pools b for chunkBytes, if its capacity is a size class (every
// chunk's is, but a large object's).
func handBack(b []byte) {
	i, ok := slices.BinarySearch(sizeClasses, cap(b))
	if !ok {
		return
	}
	box, _ := boxes.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = b[:0]
	spares[i].Put(box)
}

// chunkBytes returns empty memory of n's size class: handed-back bytes when
// some of that class wait, or else new memory, which the allocator rounds
// up to the class.
func chunkBytes(n int) []byte {
	if i, _ := slices.BinarySearch(sizeClasses, n); i < len(spares) {
		if box, ok := spares[i].Get().(*[]byte); ok {
			b := *box
			*box = nil
			boxes.Put(box)
			return b
		}
	}
	return slices.Grow([]byte(nil), n)
}

// Start is the sequence of the oldest retained tuple.
func (l *Log) Start() uint64 { return l.start }

// Next is the sequence the next appended tuple takes.
func (l *Log) Next() uint64 { return l.start + uint64(l.n) }

// Len is the number of retained tuples; 0 for a nil log.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return l.n
}

// Held is the number of tuples the log has memory for: the open chunk's
// room and every sealed chunk's tuples, dropped ones included.
func (l *Log) Held() int {
	n := 0
	if l.open != nil {
		n = cap(*l.open)
	}
	for _, c := range l.sealed {
		n += c.n
	}
	return n
}

// Expect tells the log about how many tuples it will hold, so that once
// its sealed chunks outgrow the array they start in it allocates one for
// all of them, at 7/8 of ChunkTuples a chunk (a fitted chunk holds at
// least that), not one per doubling.
func (l *Log) Expect(tuples int) { l.expect = tuples/(ChunkTuples-ChunkTuples/8) + 1 }

// Append extends the log with tuples, dropping the oldest beyond a cap.
func (l *Log) Append(tuples []tuple.Raw) {
	if over := len(tuples) - l.Retain; l.Retain > 0 && over > 0 {
		// More than the log retains in one go: only its tail survives.
		l.Reset(l.Next() + uint64(over))
		tuples = tuples[over:]
	}
	for len(tuples) > 0 {
		if l.open == nil {
			l.open = rawChunks.Get().(*[]tuple.Raw)
			l.reopen()
		}
		o := *l.open
		k := min(len(tuples), ChunkTuples-len(o))
		if cap(o)-len(o) < k {
			o = append(make([]tuple.Raw, 0, ChunkTuples), o...)
		}
		*l.open = append(o, tuples[:k]...)
		l.n += k
		tuples = tuples[k:]
		if len(*l.open) == ChunkTuples {
			// The open chunk's memory keeps what the seal left and takes
			// the next tuples.
			l.seal(true)
		}
	}
	if l.Retain > 0 && l.n > l.Retain {
		l.Drop(l.n - l.Retain)
	}
}

// Seal packs the open chunk, however full, and gives its raw memory back.
// The next append takes a new open chunk, and unpacks into it the chunk
// Seal packed if that is not full (reopen).
func (l *Log) Seal() {
	if l.open != nil {
		l.seal(false)
		l.releaseOpen()
	}
}

// seal packs the open chunk into a new sealed chunk: all of it, or, when
// full is set (the open chunk is full), the tuples that fit their size
// class (packChunk), which leave the rest at the open chunk's front.
func (l *Log) seal(full bool) {
	o := *l.open
	if len(o) == 0 {
		return
	}
	packed, n := packChunk(o, full)
	c := Chunk{packed: packed, n: n, to: n, full: full}
	c.minT, c.maxT, _ = tuple.Batch(o[:n]).TimeSpan()
	c.box, _ = tuple.Batch(o[:n]).Bounds()
	if l.sealed == nil {
		l.sealed = l.first[:0]
	}
	if n := len(l.sealed); n == cap(l.sealed) && l.expect > n {
		l.sealed = slices.Grow(l.sealed, l.expect-n)
	}
	l.sealed = append(l.sealed, c)
	*l.open = o[:copy(o, o[n:])]
}

// reopen moves a last sealed chunk that Seal sealed (not full) back into
// the open chunk, just taken from the pool, so that appends after an early
// seal fill it up instead of starting a chunk of their own. Its retained
// tuples are unpacked to the open chunk's front: a dropped head is left
// behind.
func (l *Log) reopen() {
	last := len(l.sealed) - 1
	if last < 0 || l.sealed[last].full {
		return
	}
	c := l.sealed[last]
	o := *l.open
	if cap(o) < ChunkTuples {
		o = make([]tuple.Raw, 0, ChunkTuples)
	}
	o = o[:c.n]
	unpackChunk(o, c.packed)
	if last == 0 {
		o = o[:copy(o, o[l.head:])]
		l.head = 0
	}
	*l.open = o
	l.let(c)
	l.sealed[last] = Chunk{}
	l.sealed = l.sealed[:last]
}

// releaseOpen gives the open chunk's memory back to the pool.
func (l *Log) releaseOpen() {
	if l.open != nil {
		*l.open = (*l.open)[:0]
		rawChunks.Put(l.open)
		l.open = nil
	}
}

// let records that the log let go of chunk c.
func (l *Log) let(c Chunk) {
	if l.Recycle {
		handBack(c.packed)
	}
}

// Reset empties the log and restarts its sequence space at from (a
// snapshot reset).
func (l *Log) Reset(from uint64) {
	for _, c := range l.sealed {
		l.let(c)
	}
	clear(l.sealed)
	l.sealed = l.sealed[:0]
	l.releaseOpen()
	l.start, l.head, l.n = from, 0, 0
}

// Drop removes the k oldest tuples. A sealed chunk left with no retained
// tuple goes; tuples dropped from the open chunk are copied over by the
// ones it keeps.
func (l *Log) Drop(k int) {
	l.start += uint64(k)
	l.head += k
	l.n -= k
	gone := 0
	for ; gone < len(l.sealed) && l.head >= l.sealed[gone].n; gone++ {
		l.head -= l.sealed[gone].n
		l.let(l.sealed[gone])
	}
	l.sealed = slices.Delete(l.sealed, 0, gone)
	if len(l.sealed) > 0 && l.head > 0 && k > 0 {
		// The oldest chunk's first retained tuple is another one now, of
		// a time the chunk does not record.
		l.sealed[0].minT = math.Inf(-1)
	}
	switch {
	case l.n == 0:
		l.releaseOpen()
		l.head = 0
	case len(l.sealed) == 0 && l.head > 0:
		o := *l.open
		*l.open = o[:copy(o, o[l.head:])]
		l.head = 0
	}
}

// DropWhile drops the log's leading tuples as long as evicted reports
// their timestamps. evicted must be monotone: if it reports t, it reports
// every earlier time. The oldest sealed chunk is unpacked only when its
// time bounds leave open whether its first retained tuple is evicted and
// whether all of them are; it then records that tuple's time, so the
// next call settles from the bounds alone until evicted's answer moves.
func (l *Log) DropWhile(evicted func(t float64) bool) {
	for l.n > 0 {
		if len(l.sealed) == 0 {
			o := *l.open
			k := 0
			for k < len(o) && evicted(o[k].T) {
				k++
			}
			l.Drop(k)
			return
		}
		c := l.sealed[0]
		switch {
		case !evicted(c.minT):
			return
		case evicted(c.maxT):
			l.Drop(c.n - l.head)
			continue
		}
		buf := unpackBufs.Get().(*[ChunkTuples]tuple.Raw)
		run := buf[:c.n]
		unpackChunk(run, c.packed)
		k := l.head
		for k < c.n && evicted(run[k].T) {
			k++
		}
		first := 0.0
		if k < c.n {
			first = run[k].T
		}
		unpackBufs.Put(buf)
		// k reaches the chunk's end when the time maxT bounds its retained
		// tuples by was a dropped one's: the chunk goes, and the next one
		// is settled.
		l.Drop(k - l.head)
		if k < c.n {
			l.sealed[0].minT = first
			return
		}
	}
}

// unpackChunk decodes a sealed chunk into dst. The log packed it itself,
// so a failure is a bug, not bad input.
func unpackChunk(dst []tuple.Raw, packed []byte) {
	if err := Unpack(dst, packed); err != nil {
		panic("colblock: log chunk: " + err.Error())
	}
}

// Runs calls fn on the retained tuples in order, one run at a time, until
// fn returns false. fn must not keep a run: it is the open chunk's memory
// or a pooled buffer.
func (l *Log) Runs(fn func(run []tuple.Raw) bool) {
	if len(l.sealed) > 0 {
		buf := unpackBufs.Get().(*[ChunkTuples]tuple.Raw)
		defer unpackBufs.Put(buf)
		for i, c := range l.sealed {
			run := buf[:c.n]
			unpackChunk(run, c.packed)
			if i == 0 {
				run = run[l.head:]
			}
			if !fn(run) {
				return
			}
		}
	}
	if l.open != nil && len(*l.open) > 0 {
		fn(*l.open)
	}
}

// refer fills dst with the retained tuples [off, off+len(dst)), in part:
// those in the open chunk it copies to the end of dst, and for those in
// sealed chunks it appends references to refs, whose tuples make up the
// front of dst — unpackRefs(dst, refs) decodes them.
func (l *Log) refer(dst []tuple.Raw, off int, refs []Chunk) []Chunk {
	if off < 0 || off+len(dst) > l.Len() {
		panic(fmt.Sprintf("colblock: read of [%d, %d) from a log of %d tuples", off, off+len(dst), l.Len()))
	}
	if len(dst) == 0 {
		return refs
	}
	p := l.head + off
	for _, c := range l.sealed {
		if len(dst) == 0 {
			return refs
		}
		if p >= c.n {
			p -= c.n
			continue
		}
		k := min(c.n-p, len(dst))
		c.from, c.to = p, p+k
		refs = append(refs, c)
		dst, p = dst[k:], 0
	}
	if len(dst) > 0 {
		copy(dst, (*l.open)[p:])
	}
	return refs
}

// Chunks appends references to the log's sealed chunks, which hold every
// retained tuple the open chunk does not, to refs. They stay as they are
// until the log lets them go and someone hands their bytes back.
func (l *Log) Chunks(refs []Chunk) []Chunk {
	for i, c := range l.sealed {
		if i == 0 {
			c.from = l.head
		}
		refs = append(refs, c)
	}
	return refs
}

// CopyOut fills dst with the retained tuples [off, off+len(dst)),
// unpacking under the caller's lock. It allocates nothing.
func (l *Log) CopyOut(dst []tuple.Raw, off int) {
	refs := refBufs.Get().(*[]Chunk)
	*refs = l.refer(dst, off, (*refs)[:0])
	unpackRefs(dst, *refs)
	clear(*refs)
	refBufs.Put(refs)
}

// refBufs lends CopyOut its chunk references.
var refBufs = sync.Pool{New: func() any { return new([]Chunk) }}

// unpackRefs fills the front of dst with the tuples refs refer to, in
// order: a chunk referred to whole is unpacked straight into dst, the part
// of one through a pooled buffer, both through one pooled scratch.
func unpackRefs(dst []tuple.Raw, refs []Chunk) {
	if len(refs) == 0 {
		return
	}
	sc := scratches.Get().(*scratch)
	defer scratches.Put(sc)
	unpackChunks(dst, refs, &sc.cols, &sc.keys)
}

// unpackChunks is unpackRefs through the given scratch columns and keys.
func unpackChunks(dst []tuple.Raw, refs []Chunk, cols *[4][]float64, keys *[]uint64) {
	var buf *[ChunkTuples]tuple.Raw
	for _, c := range refs {
		whole := c.from == 0 && c.to == c.n
		var run []tuple.Raw
		if whole {
			run = dst[:c.n]
		} else {
			if buf == nil {
				buf = unpackBufs.Get().(*[ChunkTuples]tuple.Raw)
				defer unpackBufs.Put(buf)
			}
			run = buf[:c.n]
		}
		if err := unpack(run, c.packed, cols, keys); err != nil {
			panic("colblock: log chunk: " + err.Error())
		}
		if !whole {
			copy(dst, buf[c.from:c.to])
		}
		dst = dst[c.Len():]
	}
}

// Bounds is the exact bounding box of the retained tuples' positions; ok
// is false for an empty log. A sealed chunk answers from its box, except
// the oldest when some of its tuples are dropped: that one is unpacked.
func (l *Log) Bounds() (r geo.Rect, ok bool) {
	add := func(b geo.Rect) {
		if ok {
			r = r.Union(b)
		} else {
			r, ok = b, true
		}
	}
	for i, c := range l.sealed {
		if i > 0 || l.head == 0 {
			add(c.box)
			continue
		}
		buf := unpackBufs.Get().(*[ChunkTuples]tuple.Raw)
		unpackChunk(buf[:c.n], c.packed)
		b, _ := tuple.Batch(buf[l.head:c.n]).Bounds()
		add(b)
		unpackBufs.Put(buf)
	}
	if l.open != nil {
		if b, some := tuple.Batch(*l.open).Bounds(); some {
			add(b)
		}
	}
	return r, ok
}
