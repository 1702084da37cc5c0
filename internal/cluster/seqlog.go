package cluster

import (
	"math"
	"slices"
	"sync"

	"repro/internal/colblock"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// seqLog is the retained part of one replication stream: the tuples of
// sequence space [start, next). A replica keeps one per mirror, uncapped
// (retain 0), which its owner prunes from the head with dropWhile, and
// answers catch-up and handoff pulls from it; a primary keeps the tuples
// its replication log holds by value in one (replLog).
//
// Storage is chunks of seqChunk tuples. Only the newest, the open chunk,
// holds tuple.Raw values; when it fills it is sealed — packed into
// colblock's columns, ≈ 23 B a tuple instead of 32, lossless bit for bit —
// and its memory takes the next tuples. A sealed chunk never changes. The
// log loses tuples only from its head: a capped log those past its cap,
// an uncapped one those dropWhile names. A sealed chunk goes once none of
// its tuples is retained, and its bytes are kept as the spare the next
// seal packs into, so a log at its cap allocates nothing while its chunks
// pack to the size they had. Its memory ceiling is retain × the packed
// size, plus the open chunk, the part of the oldest chunk already
// dropped and the spare. Reads unpack sealed chunks: into the caller's
// memory where a whole chunk is wanted, through a pooled one otherwise.
// A seqLog has no lock of its own — its owner's mutex guards it — and
// suffix copies out under that lock.
type seqLog struct {
	retain int           // cap on retained tuples; 0 = uncapped
	start  uint64        // sequence of the oldest retained tuple
	sealed []sealedChunk // full chunks, oldest first
	open   []tuple.Raw   // the newest tuples, fewer than seqChunk
	head   int           // leading tuples of the oldest chunk already dropped
	n      int           // retained tuples
	spare  []byte        // a released chunk's bytes, for the next seal
}

// sealedChunk is one full chunk packed as a colblock run. maxT bounds
// the timestamps of its retained tuples from above, and minT its first
// retained tuple's from below — all dropWhile needs to know without
// unpacking it.
type sealedChunk struct {
	packed     []byte
	minT, maxT float64
}

// seqChunk is the chunk length, in tuples (32 KiB unpacked).
const seqChunk = 1 << 10

// next is the sequence the next appended tuple takes.
func (l *seqLog) next() uint64 { return l.start + uint64(l.n) }

// reset empties the log and restarts its sequence space at from (a
// snapshot reset). The open chunk and one sealed chunk's bytes are kept
// for the replay that follows.
func (l *seqLog) reset(from uint64) {
	if len(l.sealed) > 0 {
		l.spare = l.sealed[0].packed
	}
	clear(l.sealed)
	l.sealed, l.open = l.sealed[:0], l.open[:0]
	l.start, l.head, l.n = from, 0, 0
}

// append extends the log with tuples, dropping the oldest beyond a cap.
func (l *seqLog) append(tuples []tuple.Raw) {
	if over := len(tuples) - l.retain; l.retain > 0 && over > 0 {
		// More than the log retains in one go: only its tail survives.
		l.reset(l.next() + uint64(over))
		tuples = tuples[over:]
	}
	for len(tuples) > 0 {
		if l.open == nil {
			l.open = make([]tuple.Raw, 0, seqChunk)
		}
		k := min(len(tuples), cap(l.open)-len(l.open))
		l.open = append(l.open, tuples[:k]...)
		l.n += k
		tuples = tuples[k:]
		if len(l.open) == cap(l.open) {
			l.seal()
		}
	}
	if l.retain > 0 && l.n > l.retain {
		l.drop(l.n - l.retain)
	}
}

// packBufs lends seal the buffer it packs into before the run is copied
// to memory of its exact size.
var packBufs = sync.Pool{New: func() any { return new([]byte) }}

// seal packs the full open chunk and empties it. The run goes into the
// spare when it fits, else into fresh memory just large enough.
func (l *seqLog) seal() {
	buf := packBufs.Get().(*[]byte)
	*buf = colblock.Pack((*buf)[:0], l.open)
	packed := l.spare[:0]
	if cap(packed) < len(*buf) {
		packed = nil
	}
	c := sealedChunk{packed: append(packed, *buf...)}
	packBufs.Put(buf)
	l.spare = nil
	live := l.open
	if len(l.sealed) == 0 {
		live = live[l.head:]
	}
	c.minT, c.maxT, _ = tuple.Batch(live).TimeSpan()
	l.sealed = append(l.sealed, c)
	l.open = l.open[:0]
}

// drop removes the k oldest tuples. A sealed chunk left with no retained
// tuple goes, its bytes kept as the spare.
func (l *seqLog) drop(k int) {
	l.start += uint64(k)
	l.head += k
	l.n -= k
	for ; len(l.sealed) > 0 && l.head >= seqChunk; l.head -= seqChunk {
		l.spare = l.sealed[0].packed
		l.sealed = slices.Delete(l.sealed, 0, 1)
	}
	if len(l.sealed) > 0 && l.head > 0 && k > 0 {
		// The oldest chunk's first retained tuple is another one now, of
		// a time the chunk does not record.
		l.sealed[0].minT = math.Inf(-1)
	}
	if l.n == 0 {
		l.open, l.head = l.open[:0], 0
	}
}

// dropWhile drops the log's leading tuples as long as evicted reports
// their timestamps. evicted must be monotone: if it reports t, it reports
// every earlier time. The oldest sealed chunk is unpacked only when its
// time bounds leave open whether its first retained tuple is evicted and
// whether all of them are; it then records that tuple's time, so the
// next call settles from the bounds alone until evicted's answer moves.
func (l *seqLog) dropWhile(evicted func(t float64) bool) {
	for l.n > 0 {
		if len(l.sealed) == 0 {
			k := 0
			for k < l.n && evicted(l.open[l.head+k].T) {
				k++
			}
			l.drop(k)
			return
		}
		c := &l.sealed[0]
		switch {
		case !evicted(c.minT):
			return
		case evicted(c.maxT):
			l.drop(seqChunk - l.head)
			continue
		}
		buf := unpackBufs.Get().(*[seqChunk]tuple.Raw)
		run := buf[:]
		unpack(run, c.packed)
		k := l.head
		for evicted(run[k].T) { // stops by maxT at the latest
			k++
		}
		l.drop(k - l.head)
		c.minT = run[k].T
		unpackBufs.Put(buf)
		return
	}
}

// unpackBufs lends reads a chunk's worth of tuples to unpack into.
var unpackBufs = sync.Pool{New: func() any { return new([seqChunk]tuple.Raw) }}

// unpack decodes a sealed chunk into dst. The log packed it itself, so a
// failure is a bug, not bad input.
func unpack(dst []tuple.Raw, packed []byte) {
	if err := colblock.Unpack(dst, packed); err != nil {
		panic("cluster: replication log chunk: " + err.Error())
	}
}

// runs calls fn on the retained tuples in sequence order, one run at a
// time, until fn returns false. fn must not keep a run: it is the open
// chunk's memory or a pooled buffer.
func (l *seqLog) runs(fn func(run []tuple.Raw) bool) {
	open := l.open
	if len(l.sealed) == 0 {
		open = open[l.head:]
	} else {
		buf := unpackBufs.Get().(*[seqChunk]tuple.Raw)
		defer unpackBufs.Put(buf)
		run := buf[:]
		for i, c := range l.sealed {
			unpack(run, c.packed)
			from := 0
			if i == 0 {
				from = l.head
			}
			if !fn(run[from:]) {
				return
			}
		}
	}
	if len(open) > 0 {
		fn(open)
	}
}

// copyOut fills dst with the retained tuples from sequence start+off on;
// dst must not reach past next.
func (l *seqLog) copyOut(dst []tuple.Raw, off int) {
	var buf *[seqChunk]tuple.Raw
	for p := l.head + off; len(dst) > 0; {
		i, at := p/seqChunk, p%seqChunk
		var k int
		switch {
		case i == len(l.sealed):
			k = copy(dst, l.open[at:])
		case at == 0 && len(dst) >= seqChunk:
			unpack(dst[:seqChunk], l.sealed[i].packed)
			k = seqChunk
		default:
			if buf == nil {
				buf = unpackBufs.Get().(*[seqChunk]tuple.Raw)
				defer unpackBufs.Put(buf)
			}
			unpack(buf[:], l.sealed[i].packed)
			k = copy(dst, buf[at:])
		}
		dst = dst[k:]
		p += k
	}
}

// suffix answers a puller that holds the stream up to have with a copy
// of at most limit tuples (suffixOf).
func (l *seqLog) suffix(have uint64, limit int) wire.ReplicaCatchupResponse {
	resp, _ := suffixOf(l.start, l.n, have, limit, func(dst []tuple.Raw, off int) error {
		l.copyOut(dst, off)
		return nil
	})
	return resp
}

// otherIncarnation is the position a puller holding another incarnation's
// stream is answered as: past every log's end, so it takes a snapshot
// reset.
const otherIncarnation = math.MaxUint64

// suffixOf answers a puller that holds the stream up to have, from a log
// retaining the n tuples from sequence start on, with a copy of at most
// limit of them: the suffix from have while the log still covers it,
// otherwise a snapshot reset that restarts the puller at the log's start.
// Done reports that the chunk reaches the log's end. copyOut fills dst
// with the retained tuples from start+off on; its error is suffixOf's.
func suffixOf(start uint64, n int, have uint64, limit int, copyOut func(dst []tuple.Raw, off int) error) (wire.ReplicaCatchupResponse, error) {
	next := start + uint64(n)
	if have == next {
		return wire.ReplicaCatchupResponse{From: next, Done: true}, nil
	}
	resp := wire.ReplicaCatchupResponse{From: have}
	if have > next || have < start {
		// Behind the log (pruned past it) or ahead of it (the log's owner
		// restarted): the suffix no longer reconstructs the puller's
		// state, so reset it and replay the full retained log.
		resp.Snapshot, resp.From = true, start
	}
	off := int(resp.From - start)
	count := min(n-off, limit)
	if count > 0 {
		resp.Tuples = make([]tuple.Raw, count)
		if err := copyOut(resp.Tuples, off); err != nil {
			return wire.ReplicaCatchupResponse{}, err
		}
	}
	resp.Done = off+count == n
	return resp, nil
}
