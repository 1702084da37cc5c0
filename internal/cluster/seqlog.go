package cluster

import (
	"repro/internal/tuple"
	"repro/internal/wire"
)

// seqLog is the retained part of one replication stream: the tuples of
// sequence space [start, next). A primary keeps one per pollutant
// (replLog), capped at retain tuples; a replica keeps one per mirror,
// uncapped (retain 0), which its owner prunes from the head with drop.
// Both answer catch-up and handoff pulls from it.
//
// Storage is fixed-size chunks, and nothing the log stored moves when it
// opens another. A capped log is a ring over them: it opens one more
// chunk whenever it outgrows those it has, until they hold retain tuples
// (the last chunk is cut short so they never hold more), and an append at
// the cap overwrites the oldest tuples in place: it allocates nothing,
// copies only what it was handed, and the log's memory ceiling is
// retain × 32 B with no transient second copy. An uncapped log opens
// chunks at its end as it grows, and drop moves the chunks it empties
// from the front to the end for reuse. A seqLog has no lock of its own —
// its owner's mutex guards it — and suffix copies out under that lock.
type seqLog struct {
	retain int           // cap on retained tuples; 0 = uncapped
	start  uint64        // sequence of the oldest retained tuple
	chunks [][]tuple.Raw // storage, seqChunk tuples each but a capped log's last
	size   int           // slots in chunks (≤ retain when capped)
	head   int           // slot of sequence start
	n      int           // retained tuples, ≤ size
}

// seqChunk is the growth step of a log's storage, in tuples (32 KiB).
const seqChunk = 1 << 10

// next is the sequence the next appended tuple takes.
func (l *seqLog) next() uint64 { return l.start + uint64(l.n) }

// reset empties the log and restarts its sequence space at from (a
// snapshot reset); the chunks are kept for the replay that follows.
func (l *seqLog) reset(from uint64) { l.start, l.head, l.n = from, 0, 0 }

// from returns the slots from p to the end of p's chunk.
func (l *seqLog) from(p int) []tuple.Raw { return l.chunks[p/seqChunk][p%seqChunk:] }

// at returns the retained tuple of sequence start+off.
func (l *seqLog) at(off int) tuple.Raw { return l.from((l.head + off) % l.size)[0] }

// append extends the log with tuples, dropping the oldest beyond a cap.
func (l *seqLog) append(tuples []tuple.Raw) {
	if over := len(tuples) - l.retain; l.retain > 0 && over > 0 {
		// More than the log retains in one go: only its tail survives.
		l.reset(l.next() + uint64(over))
		tuples = tuples[over:]
	}
	if len(tuples) == 0 {
		return
	}
	if l.retain == 0 {
		// Uncapped: the log lies in slots [head, head+n), and new chunks
		// extend it at the end.
		for l.head+l.n+len(tuples) > l.size {
			l.chunks = append(l.chunks, make([]tuple.Raw, seqChunk))
			l.size += seqChunk
		}
	} else {
		// Until the chunks hold retain tuples nothing has been overwritten,
		// so the log lies in slots [0, n) and new chunks extend it in place.
		for want := min(l.n+len(tuples), l.retain); l.size < want; {
			if l.chunks == nil {
				l.chunks = make([][]tuple.Raw, 0, (l.retain+seqChunk-1)/seqChunk)
			}
			c := make([]tuple.Raw, min(seqChunk, l.retain-l.size))
			l.chunks = append(l.chunks, c)
			l.size += len(c)
		}
		if over := l.n + len(tuples) - l.size; over > 0 {
			l.start += uint64(over)
			l.head = (l.head + over) % l.size
			l.n -= over
		}
	}
	p := (l.head + l.n) % l.size
	l.n += len(tuples)
	for len(tuples) > 0 {
		k := copy(l.from(p), tuples)
		tuples = tuples[k:]
		p = (p + k) % l.size
	}
}

// drop removes the k oldest tuples of an uncapped log. A chunk it empties
// moves to the end of the table, where the next appends fill it.
func (l *seqLog) drop(k int) {
	l.start += uint64(k)
	l.head += k
	l.n -= k
	for l.head >= seqChunk {
		first := l.chunks[0]
		copy(l.chunks, l.chunks[1:])
		l.chunks[len(l.chunks)-1] = first
		l.head -= seqChunk
	}
}

// runs calls fn on the retained tuples in sequence order, one run of
// contiguous storage at a time, until fn returns false. fn must not keep
// a run: later appends overwrite it.
func (l *seqLog) runs(fn func(run []tuple.Raw) bool) {
	for p, left := l.head, l.n; left > 0; {
		run := l.from(p % l.size)
		run = run[:min(len(run), left)]
		if !fn(run) {
			return
		}
		left -= len(run)
		p += len(run)
	}
}

// copyOut fills dst with the retained tuples from sequence start+off on;
// dst must not reach past next.
func (l *seqLog) copyOut(dst []tuple.Raw, off int) {
	for p := l.head + off; len(dst) > 0; {
		p %= l.size
		k := copy(dst, l.from(p))
		dst = dst[k:]
		p += k
	}
}

// suffix answers a puller that holds the stream up to have with a copy
// of at most limit tuples: the suffix from have while the log still
// covers it, otherwise a snapshot reset that restarts the puller at the
// log's start. Done reports that the chunk reaches next.
func (l *seqLog) suffix(have uint64, limit int) wire.ReplicaCatchupResponse {
	next := l.next()
	if have == next {
		return wire.ReplicaCatchupResponse{From: next, Done: true}
	}
	resp := wire.ReplicaCatchupResponse{From: have}
	if have > next || have < l.start {
		// Behind the log (pruned past it) or ahead of it (the log's owner
		// restarted): the suffix no longer reconstructs the puller's
		// state, so reset it and replay the full retained log.
		resp.Snapshot, resp.From = true, l.start
	}
	off := int(resp.From - l.start)
	count := min(l.n-off, limit)
	if count > 0 {
		resp.Tuples = make([]tuple.Raw, count)
		l.copyOut(resp.Tuples, off)
	}
	resp.Done = off+count == l.n
	return resp
}
