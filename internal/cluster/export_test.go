package cluster

import "repro/internal/tuple"

// MirrorPos is where a mirror stands: the incarnation it holds, the
// first and next sequence of its log, and whether a pull session runs.
type MirrorPos struct {
	Inc, Start, Next uint64
	Pulling          bool
}

// MirrorAt reports where n's mirror of origin's pol stream stands, and
// false when n holds none. With log not nil, it also copies the tuples
// the mirror's log holds into *log.
func MirrorAt(n *Node, origin int, pol tuple.Pollutant, log *[]tuple.Raw) (MirrorPos, bool) {
	mir := n.repl.lookupMirror(origin, pol)
	if mir == nil {
		return MirrorPos{}, false
	}
	mir.mu.Lock()
	defer mir.mu.Unlock()
	if log != nil {
		*log = make([]tuple.Raw, mir.log.Len())
		mir.log.CopyOut(*log, 0)
	}
	return MirrorPos{Inc: mir.inc, Start: mir.log.Start(), Next: mir.log.Next(), Pulling: mir.pulling}, true
}

// Incarnation returns n's replication incarnation, which its frames carry.
func Incarnation(n *Node) uint64 { return n.repl.inc }

// SetCatchupChunk caps catch-up and transfer chunks at n tuples until
// the returned func restores the cap.
func SetCatchupChunk(n int) (restore func()) {
	old := maxCatchupChunk
	maxCatchupChunk = n
	return func() { maxCatchupChunk = old }
}

// MirrorChunks sums, over n's mirror logs, the tuples their sealed chunks
// hold, the bytes of those chunks' packed runs, and the memory the runs
// are held in (their capacity).
func MirrorChunks(n *Node) (tuples, packed, held int) {
	n.repl.mirMu.Lock()
	defer n.repl.mirMu.Unlock()
	for _, m := range n.repl.mirrors {
		m.mu.Lock()
		for _, c := range m.log.Chunks(nil) {
			tuples += c.Len()
			packed += len(c.Packed())
			held += cap(c.Packed())
		}
		m.mu.Unlock()
	}
	return tuples, packed, held
}

// LogTuples counts the tuples held across n's own replication logs: the
// stream n committed as a primary, over every pollutant.
func LogTuples(n *Node) int {
	n.repl.logMu.Lock()
	logs := make([]*replLog, 0, len(n.repl.logs))
	for _, lg := range n.repl.logs {
		logs = append(logs, lg)
	}
	n.repl.logMu.Unlock()
	total := 0
	for _, lg := range logs {
		lg.mu.Lock()
		total += lg.n
		lg.mu.Unlock()
	}
	return total
}

// LogValueTuples counts the tuples n's own replication logs hold by
// value, over every pollutant: the copies a primary keeps beside its
// stores.
func LogValueTuples(n *Node) int {
	n.repl.logMu.Lock()
	defer n.repl.logMu.Unlock()
	total := 0
	for _, lg := range n.repl.logs {
		lg.mu.Lock()
		total += lg.valueTuples()
		lg.mu.Unlock()
	}
	return total
}

// NextMove returns a channel closed the next time one of n's mirrors
// moves — a frame or a catch-up chunk applied, a pull session over,
// mirrors dropped — or nil, which never closes, when n does not
// replicate. A caller takes it before checking a condition, and waits
// only if the condition does not hold yet, so no move between the check
// and the wait is missed.
func NextMove(n *Node) <-chan struct{} {
	if n.repl == nil {
		return nil
	}
	return n.repl.nextMove()
}

// MaxPullRounds is the rounds one pull session asks at most.
const MaxPullRounds = maxPullRounds

// MaxBatchShare is the router's cap on the items of one forwarded batch
// share.
var MaxBatchShare = maxBatchShare

// ChunkCaps returns the caps on the tuples of one forwarded upload leg
// and of one catch-up chunk.
func ChunkCaps() (ingest, catchup int) { return maxIngestChunk, maxCatchupChunk }
