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
// Storage is a ring over a buffer that grows with the log until it holds
// retain tuples and never beyond. An append at the cap therefore
// overwrites the oldest tuples in place: it allocates nothing, copies
// only what it was handed, and the log's memory ceiling is retain × 32 B
// with no transient second copy. A seqLog has no lock of its own — its
// owner's mutex guards it — and suffix copies out under that lock.
type seqLog struct {
	retain int         // cap on retained tuples, > 0
	start  uint64      // sequence of the oldest retained tuple
	buf    []tuple.Raw // ring storage; len(buf) ≤ retain
	head   int         // index in buf of sequence start
	n      int         // retained tuples, ≤ len(buf)
}

// next is the sequence the next appended tuple takes.
func (l *seqLog) next() uint64 { return l.start + uint64(l.n) }

// reset empties the log and restarts its sequence space at from (a
// snapshot reset); the buffer is kept for the replay that follows.
func (l *seqLog) reset(from uint64) { l.start, l.head, l.n = from, 0, 0 }

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
	if need := l.n + len(tuples); need > len(l.buf) && len(l.buf) < l.retain {
		// Grow as append would (1.25×), but never past retain.
		grown := make([]tuple.Raw, min(l.retain, max(need, len(l.buf)+len(l.buf)/4)))
		l.copyOut(grown[:l.n], 0)
		l.buf, l.head = grown, 0
	}
	if over := l.n + len(tuples) - len(l.buf); over > 0 {
		l.start += uint64(over)
		l.head = (l.head + over) % len(l.buf)
		l.n -= over
	}
	tail := (l.head + l.n) % len(l.buf)
	k := copy(l.buf[tail:], tuples)
	copy(l.buf, tuples[k:])
	l.n += len(tuples)
}

// copyOut fills dst with the retained tuples from sequence start+off on;
// dst must not reach past next.
func (l *seqLog) copyOut(dst []tuple.Raw, off int) {
	if len(dst) == 0 {
		return
	}
	k := copy(dst, l.buf[(l.head+off)%len(l.buf):])
	copy(dst[k:], l.buf)
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
