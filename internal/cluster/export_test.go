package cluster

import (
	"reflect"
	"time"

	"repro/internal/tuple"
	"repro/internal/wire"
)

// ApplyCatchup applies one catch-up chunk to n's mirror of origin's pol
// stream, as a catch-up session does with each chunk it pulls from where
// the mirror stands — so a test can script gaps, catch-ups and snapshot
// resets without a live origin.
func ApplyCatchup(n *Node, origin int, pol tuple.Pollutant, cr wire.ReplicaCatchupResponse) bool {
	mir := n.repl.getMirror(origin, pol)
	mir.mu.Lock()
	asked := streamPos{inc: mir.inc, seq: mir.log.Next()}
	mir.mu.Unlock()
	return n.repl.applyChunk(mir, asked, cr)
}

// SetCatchupChunk caps catch-up and transfer chunks at n tuples until
// the returned func restores the cap.
func SetCatchupChunk(n int) (restore func()) {
	old := maxCatchupChunk
	maxCatchupChunk = n
	return func() { maxCatchupChunk = old }
}

// MirrorTuples counts the tuples held across n's mirror logs, over every
// origin and pollutant.
func MirrorTuples(n *Node) int {
	n.repl.mirMu.Lock()
	mirrors := make([]*mirror, 0, len(n.repl.mirrors))
	for _, m := range n.repl.mirrors {
		mirrors = append(mirrors, m)
	}
	n.repl.mirMu.Unlock()
	total := 0
	for _, m := range mirrors {
		m.mu.Lock()
		total += m.log.Len()
		m.mu.Unlock()
	}
	return total
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

// HoldsMirror reports whether n holds a mirror of origin's pol stream.
func HoldsMirror(n *Node, origin int, pol tuple.Pollutant) bool {
	n.repl.mirMu.Lock()
	defer n.repl.mirMu.Unlock()
	_, ok := n.repl.mirrors[mirrorKey{origin: origin, pol: pol}]
	return ok
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

// NextMove notes where the replication of ns stands: wait blocks until
// one of their mirrors moves after that — a frame or a catch-up chunk
// applied, a pull session over, mirrors dropped — or until deadline, and
// reports whether one did. A caller takes it before checking a
// condition, and waits only if the condition does not hold yet, so no
// move between the check and the wait is missed.
func NextMove(ns ...*Node) (wait func(deadline time.Time) bool) {
	var cases []reflect.SelectCase
	for _, n := range ns {
		if n != nil && n.repl != nil {
			cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(n.repl.nextMove())})
		}
	}
	return func(deadline time.Time) bool {
		timer := time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		chosen, _, _ := reflect.Select(append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(timer.C)}))
		return chosen < len(cases)
	}
}

// MaxBatchShare is the router's cap on the items of one forwarded batch
// share.
var MaxBatchShare = maxBatchShare

// ChunkCaps returns the caps on the tuples of one forwarded upload leg
// and of one catch-up chunk.
func ChunkCaps() (ingest, catchup int) { return maxIngestChunk, maxCatchupChunk }
