package cluster

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/colblock"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// LocalStore is what a primary's replication log reads of the store its
// local engine commits one pollutant into: the windows it holds, a
// window's length, and a range of a window in append order. A retained
// window's positions must never move: tuples are only appended to it, and
// eviction drops it whole. ReadAppended fails rather than return tuples
// other than those once appended at [off, off+len(dst)). *store.Store
// implements it.
type LocalStore interface {
	WindowIndexes() []int
	WindowLen(c int) int
	ReadAppended(dst []tuple.Raw, c, off int) error
}

// replLog is one pollutant's replication log on a primary: the stream of
// its committed tuples, sequence space [start, start+n) of incarnation
// inc, as runs of tuples of one window each, oldest first. A run is an
// index into the local store — window c, positions [off, off+n) — or,
// when the store cannot be trusted to hold it for as long as the log
// must, its tuples by value (vals, a packed colblock.Log).
//
// The store holds each window's tuples in append order, and that order
// is commit order: localIngest commits one batch per pollutant at a time
// under mu, and the engine appends each batch whole. So a run's positions
// never move until its window is evicted, and eviction is oldest-first.
// A run is kept by value only when it is late — its window is older than
// the newest the stream has reached, and the store's retention is bounded
// — or its window was gone by the time the commit was acked: such a run's
// window can be evicted while runs before it in the log are still alive.
// An in-order run stays readable until its window is evicted, and by then
// every run before it is dead too, so the log sheds its head by the rule a
// mirror log follows (retention.evicted) and never loses a run it still
// needs. Without a store every run is by value, and the by-value tuples
// are capped at logRetain, vals' cap (a puller behind the head takes a
// snapshot reset); with a store and unbounded retention nothing is ever
// late, and the log indexes the store's whole history.
type replLog struct {
	mu     sync.Mutex
	st     LocalStore   // nil: every run by value
	window float64      // the windows' length; 0 when not known
	keep   retention    // the store's retention, fed the committed stream
	inc    uint64       // the incarnation the sequence space belongs to
	start  uint64       // sequence of the oldest retained tuple
	n      int          // retained tuples
	runs   []logRun     // oldest first
	vals   colblock.Log // the by-value runs' tuples, in log order
	// newest is the newest window the stream has reached (reached false:
	// none yet).
	newest  int
	reached bool
	// at is commit's scratch: per window, where the commit's next tuple
	// of it sits in the store.
	at map[int]int
}

// logRun is one run of the log: n tuples of window c, at positions
// [off, off+n) of the store's window, or by value when off < 0.
type logRun struct {
	c, off, n int
}

// byValue reports whether the run's tuples are in the log's vals.
func (r logRun) byValue() bool { return r.off < 0 }

// newReplLog returns an empty log of incarnation inc over st (nil: none),
// whose windows are window long and retained by keep, seeded with one
// indexed run per window st holds, oldest first: the stream a restarted
// primary recovered, which a mirror of an earlier incarnation resets onto.
func newReplLog(st LocalStore, window float64, keep retention, inc uint64) *replLog {
	lg := &replLog{st: st, window: window, keep: keep, inc: inc, vals: colblock.Log{Retain: logRetain, Recycle: true}}
	if st == nil {
		return lg
	}
	lg.at = make(map[int]int)
	for _, c := range st.WindowIndexes() {
		if n := st.WindowLen(c); n > 0 {
			lg.add(c, 0, nil, n)
			lg.keep.addWindow(c)
			lg.newest, lg.reached = c, true
		}
	}
	return lg
}

// next is the sequence the next committed tuple takes.
func (l *replLog) next() uint64 { return l.start + uint64(l.n) }

// windowOf is the window index of time t (0 when the log knows no window
// length, which only a log without a store may not, and then its
// retention keeps everything).
func (l *replLog) windowOf(t float64) int {
	if l.window <= 0 {
		return 0
	}
	return tuple.WindowIndex(t, l.window)
}

// commit appends one batch the local engine has just acked. Caller holds
// mu, and held it across the engine's commit: the store's windows end
// with this batch's tuples, so each window's run starts where the
// window's length, less the batch's tuples in it, says.
func (l *replLog) commit(tuples []tuple.Raw) {
	if l.st != nil {
		clear(l.at)
		for _, tp := range tuples {
			l.at[l.windowOf(tp.T)]--
		}
		for c, k := range l.at {
			l.at[c] = l.st.WindowLen(c) + k
		}
	}
	for len(tuples) > 0 {
		c := l.windowOf(tuples[0].T)
		k := 1
		for k < len(tuples) && l.windowOf(tuples[k].T) == c {
			k++
		}
		late := l.reached && c < l.newest
		if !late {
			l.newest, l.reached = c, true
		}
		off := -1
		if l.st != nil {
			if at := l.at[c]; at >= 0 && (!late || l.keep.retain == 0) {
				off = at
			}
			l.at[c] += k
		}
		l.add(c, off, tuples[:k], k)
		l.keep.addWindow(c)
		tuples = tuples[k:]
	}
	l.trim()
}

// add appends a run of k tuples of window c: at off in the store, or —
// off < 0 — the tuples themselves, by value. A run continuing the last
// one (same window, same kind, the next positions) extends it.
func (l *replLog) add(c, off int, tuples []tuple.Raw, k int) {
	l.n += k
	if i := len(l.runs) - 1; i >= 0 && l.runs[i].c == c &&
		(off < 0 && l.runs[i].byValue() || off >= 0 && l.runs[i].off+l.runs[i].n == off) {
		l.runs[i].n += k
	} else {
		l.runs = append(l.runs, logRun{c: c, off: off, n: k})
	}
	if off < 0 {
		from := l.vals.Start()
		l.vals.Append(tuples)
		l.capped(int(l.vals.Start() - from))
	}
}

// capped moves the log's head past the d oldest by-value tuples, which
// vals let go at its cap, and past every indexed run before them.
func (l *replLog) capped(d int) {
	gone := 0 // runs left with no tuple
	for ; d > 0; gone++ {
		r := &l.runs[gone]
		k := r.n
		if r.byValue() {
			k = min(k, d)
			d -= k
		}
		l.start += uint64(k)
		l.n -= k
		if r.n -= k; r.n > 0 {
			break
		}
	}
	l.runs = l.runs[gone:]
}

// trim sheds the log's head: the runs of windows the store has evicted.
func (l *replLog) trim() {
	k := 0
	for k < len(l.runs) && l.keep.evictedWindow(l.runs[k].c) {
		k++
	}
	l.drop(k)
}

// drop removes the k oldest runs. Like capped, it reslices: the next
// append past the array's end copies only the live runs.
func (l *replLog) drop(k int) {
	for _, r := range l.runs[:k] {
		if r.byValue() {
			l.vals.Drop(r.n)
		}
		l.start += uint64(r.n)
		l.n -= r.n
	}
	l.runs = l.runs[k:]
}

// copyOut fills dst with the retained tuples from sequence start+off on;
// dst must not reach past next. It fails when the store cannot give back
// an indexed run (ReadAppended's error). Consecutive by-value runs lie
// consecutive in vals and are copied in one go.
func (l *replLog) copyOut(dst []tuple.Raw, off int) error {
	v := 0 // the place in vals of runs[i]'s first tuple, for a by-value run
	for i := 0; i < len(l.runs) && len(dst) > 0; {
		r := l.runs[i]
		switch {
		case off >= r.n:
			off -= r.n
			if r.byValue() {
				v += r.n
			}
			i++
		case !r.byValue():
			k := min(r.n-off, len(dst))
			if err := l.st.ReadAppended(dst[:k], r.c, r.off+off); err != nil {
				return fmt.Errorf("window %d: %w", r.c, err)
			}
			dst, off = dst[k:], 0
			i++
		default:
			k, j := r.n-off, i+1
			for ; j < len(l.runs) && l.runs[j].byValue() && k < len(dst); j++ {
				k += l.runs[j].n
			}
			k = min(k, len(dst))
			l.vals.CopyOut(dst[:k], v+off)
			dst, off = dst[k:], 0
			for ; i < j; i++ {
				v += l.runs[i].n
			}
		}
	}
	return nil
}

// suffix answers a puller that holds the stream of incarnation inc up to
// have (suffix; a position in another incarnation's sequence space
// is one the log does not cover). Caller holds mu.
func (l *replLog) suffix(have, inc uint64, limit int) (wire.ReplicaCatchupResponse, error) {
	if inc != l.inc {
		have = otherIncarnation
	}
	resp, err := suffixOf(l.start, l.n, have, limit, l.copyOut)
	resp.Incarnation = l.inc
	return resp, err
}

// valueTuples counts the tuples the log holds by value.
func (l *replLog) valueTuples() int { return l.vals.Len() }

// suffix answers a puller that holds the stream of l up to have with a
// copy of at most limit tuples (suffixOf). Caller holds the lock that
// guards l.
func suffix(l *colblock.Log, have uint64, limit int) wire.ReplicaCatchupResponse {
	resp, _ := suffixOf(l.Start(), l.Len(), have, limit, func(dst []tuple.Raw, off int) error {
		l.CopyOut(dst, off)
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
