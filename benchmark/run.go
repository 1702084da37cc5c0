package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// runner drives the operation sequence through the client connections:
// a closed loop in which every connection takes the next operation from
// one shared cursor, so a run is a fixed amount of work.
type runner struct {
	in      *inputs
	clients []*client

	// Per operation, written by the connection that ran it.
	latency []int64 // ns from send to reply decoded; 0 = failed or not run
	bytes   []int32 // bytes on the client socket
	size    []int32 // bytes of the response frame or body
	keep    map[int]bool
	kept    map[int]reply

	failed   [numKinds]atomic.Int64
	errOnce  sync.Once
	firstErr error

	// low is the number of leading operations that are complete.
	mu   sync.Mutex
	cond *sync.Cond
	done []bool
	low  int
}

func newRunner(in *inputs, keep map[int]bool) *runner {
	r := &runner{
		in:      in,
		latency: make([]int64, len(in.ops)),
		bytes:   make([]int32, len(in.ops)),
		size:    make([]int32, len(in.ops)),
		keep:    keep,
		kept:    make(map[int]reply, len(keep)),
		done:    make([]bool, len(in.ops)),
	}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// reset forgets an earlier pass over the sequence (a repeated set-up).
func (r *runner) reset() {
	clear(r.latency)
	clear(r.bytes)
	clear(r.size)
	clear(r.done)
	clear(r.kept)
	r.low = 0
	for k := range r.failed {
		r.failed[k].Store(0)
	}
}

// run executes operations [lo, hi) on every connection and returns when
// all are complete.
func (r *runner) run(lo, hi int) {
	var cursor atomic.Int64
	cursor.Store(int64(lo))
	var wg sync.WaitGroup
	for _, c := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= hi {
					return
				}
				r.one(c, i)
			}
		}()
	}
	wg.Wait()
}

func (r *runner) one(c *client, i int) {
	o := &r.in.ops[i]
	if o.live {
		r.waitFor(i - reorderWindow)
	}
	start := time.Now()
	n, rep, err := c.do(i, o, r.keep[i])
	elapsed := time.Since(start)
	if err != nil {
		r.failed[o.kind].Add(1)
		r.errOnce.Do(func() { r.firstErr = fmt.Errorf("op %d (%s): %w", i, kindNames[o.kind], err) })
	} else {
		r.latency[i] = int64(elapsed)
		r.bytes[i] = int32(n)
		r.size[i] = int32(rep.size)
	}
	r.mu.Lock()
	if err == nil && r.keep[i] {
		r.kept[i] = rep
	}
	r.done[i] = true
	for r.low < len(r.done) && r.done[r.low] {
		r.low++
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}

// waitFor blocks until operations 0..i are all complete.
func (r *runner) waitFor(i int) {
	r.mu.Lock()
	for r.low <= i {
		r.cond.Wait()
	}
	r.mu.Unlock()
}

func (r *runner) failures() (total int64) {
	for k := range r.failed {
		total += r.failed[k].Load()
	}
	return total
}
