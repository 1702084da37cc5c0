package cluster

import (
	"repro/internal/tuple"
	"repro/internal/wire"
)

// seqLog is the retained tail of one replication stream: the tuples of
// sequence space [start, next), at most retain of them. A primary keeps
// one per pollutant (replLog) and a replica one per mirror, and both
// answer catch-up and handoff pulls from it.
//
// Storage is a ring over fixed-size chunks: the log opens one more chunk
// whenever it outgrows those it has, until they hold retain tuples (the
// last chunk is cut short so they never hold more), and nothing it already
// stored moves when it does. An append at the cap overwrites the oldest
// tuples in place: it allocates nothing, copies only what it was handed,
// and the log's memory ceiling is retain × 32 B with no transient second
// copy. A seqLog has no lock of its own — its owner's mutex guards it —
// and suffix copies out under that lock.
type seqLog struct {
	retain int           // cap on retained tuples, > 0
	start  uint64        // sequence of the oldest retained tuple
	chunks [][]tuple.Raw // ring storage, seqChunk tuples each but the last
	size   int           // slots in chunks, ≤ retain
	head   int           // slot of sequence start; 0 until size reaches retain
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

// append extends the log with tuples, dropping the oldest beyond retain.
func (l *seqLog) append(tuples []tuple.Raw) {
	if over := len(tuples) - l.retain; over > 0 {
		// More than the log retains in one go: only its tail survives.
		l.reset(l.next() + uint64(over))
		tuples = tuples[over:]
	}
	if len(tuples) == 0 {
		return
	}
	// Until the chunks hold retain tuples nothing has been overwritten, so
	// the log lies in slots [0, n) and new chunks extend it in place.
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
	p := (l.head + l.n) % l.size
	l.n += len(tuples)
	for len(tuples) > 0 {
		k := copy(l.from(p), tuples)
		tuples = tuples[k:]
		p = (p + k) % l.size
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
