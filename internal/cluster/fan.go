package cluster

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/tuple"
	"repro/internal/wire"
)

// maxIdleLegWorkers caps the leg workers a node keeps waiting for work; one
// that finishes a leg while this many wait exits.
const maxIdleLegWorkers = 64

// A fan is one request's legs, one per node, and the state they answer
// into. The caller runs one leg itself, the local one where there is one,
// and hands the rest to the node's leg workers. Fans are pooled: a worker
// touches its fan until the leg's wg.Done, so a fan goes back (free) only
// once spread has returned.
type fan struct {
	n      *Node
	ctx    context.Context
	ring   *Ring
	retry  bool
	do     func(f *fan, node int) // batchLeg, ingestLeg or scatterLeg
	owners []int                  // the nodes with a leg
	wg     sync.WaitGroup

	batch   wire.BatchQueryRequest // batchLeg's
	split   *batchSplit
	out     []wire.BatchQueryItem
	pol     tuple.Pollutant // ingestLeg's
	groups  [][]tuple.Raw
	tally   *ingestTally // own, or the tally of the fan a re-split came from
	own     ingestTally
	unacked atomic.Bool  // some chunk was not answered IngestResponse
	req     wire.Message // scatterLeg's
	legs    []leg
	grids   []wire.HeatmapResponse // scatterHeatmap's leg rasters, by node
}

var fans = sync.Pool{New: func() any { return new(fan) }}

func (n *Node) newFan(ctx context.Context, ring *Ring, do func(*fan, int)) *fan {
	f := fans.Get().(*fan)
	f.n, f.ctx, f.ring, f.do = n, ctx, ring, do
	return f
}

// spread runs the leg of every node in owners and returns once all have
// finished: the handed-off legs are on their way while the caller runs
// its own.
func (f *fan) spread() {
	mine := len(f.owners) - 1
	if i := slices.Index(f.owners, f.n.self); i >= 0 {
		mine = i
	}
	for i, o := range f.owners {
		if i != mine {
			f.wg.Add(1)
			f.n.dispatch(legTask{f, o})
		}
	}
	if mine >= 0 {
		f.do(f, f.owners[mine])
	}
	f.wg.Wait()
}

func (f *fan) free() {
	clear(f.legs)
	clear(f.groups)
	clear(f.grids)
	*f = fan{owners: f.owners[:0], legs: f.legs[:0], groups: f.groups[:0], grids: f.grids[:0]}
	fans.Put(f)
}

// legTask is a handed-off leg; run marks it done, after which the fan may
// be reused.
type legTask struct {
	f    *fan
	node int
}

func (t legTask) run() {
	t.f.do(t.f, t.node)
	t.f.wg.Done()
}

// dispatch hands t to an idle leg worker, or starts one when none is idle,
// so it never waits — not behind a leg stuck dialing a dead peer either.
// After Close the caller runs t itself.
func (n *Node) dispatch(t legTask) {
	select {
	case n.legc <- t:
		return
	default:
	}
	n.tmu.RLock()
	closed := n.closed
	if !closed {
		n.legWG.Add(1) // before Close's Wait, which follows closed under tmu
	}
	n.tmu.RUnlock()
	if closed {
		t.run()
		return
	}
	go n.legWork(t)
}

// legWork runs t, then every leg handed to it, until maxIdleLegWorkers
// others wait or the node closes.
func (n *Node) legWork(t legTask) {
	defer n.legWG.Done()
	for t.f != nil {
		t.run()
		if n.legIdle.Add(1) > maxIdleLegWorkers {
			n.legIdle.Add(-1)
			return
		}
		select {
		case t = <-n.legc:
		case <-n.legStop:
			t = legTask{}
		}
		n.legIdle.Add(-1)
	}
}
