package cluster

import (
	"repro/internal/tuple"
	"repro/internal/wire"
)

// ApplyCatchup applies one catch-up chunk to n's mirror of origin's pol
// stream, as a catch-up session does with each chunk it pulls — so a
// test can script gaps, catch-ups and snapshot resets without a live
// origin.
func ApplyCatchup(n *Node, origin int, pol tuple.Pollutant, cr wire.ReplicaCatchupResponse) bool {
	return n.repl.applyChunk(n.repl.getMirror(origin, pol), cr)
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
		total += m.log.n
		m.mu.Unlock()
	}
	return total
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
