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
