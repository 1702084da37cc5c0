// Package ctxfix is the ctxcheck golden fixture. The fixture directory
// sits under internal/, so the analyzer treats it as library code.
package ctxfix

import (
	"context"
	"sync"
	"time"
)

type Engine struct {
	ch   chan int
	stop chan struct{}
	wg   sync.WaitGroup
}

func (e *Engine) handle() error {
	ctx := context.Background() // want `Background\(\) in library code swallows the caller's cancellation`
	_ = ctx
	todo := context.TODO() // want `TODO\(\) in library code swallows the caller's cancellation`
	_ = todo
	return nil
}

func (e *Engine) lifecycle() {
	// The registry owns this context; workers die on Close, not on any
	// caller's deadline.
	//ctxcheck:allow worker lifetime is bound to Close, not to a caller
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_ = ctx
}

// staleDirective excuses a root context that has since been threaded
// away: the directive itself is flagged.
func (e *Engine) staleDirective(ctx context.Context) {
	/* want `unused directive: //ctxcheck:allow suppresses no ctxcheck finding` */ //ctxcheck:allow the poll is deadline-bounded
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	_ = ctx
}

func (e *Engine) bareDirective() {
	//ctxcheck:allow
	ctx := context.Background() // want `Background\(\) in library code swallows the caller's cancellation`
	_ = ctx
}

// Wait blocks on a channel receive with no context: flagged.
func (e *Engine) Wait() int { // want `exported Wait blocks \(channel receive\) but takes no context\.Context`
	return <-e.ch
}

// WaitCtx threads a context: fine.
func (e *Engine) WaitCtx(ctx context.Context) (int, error) {
	select {
	case v := <-e.ch:
		return v, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// Close blocks but is exempt: the io.Closer contract has no context.
func (e *Engine) Close() error {
	close(e.stop)
	e.wg.Wait()
	return nil
}

// Drain blocks in a defaultless select: flagged.
func (e *Engine) Drain() { // want `exported Drain blocks \(select without default\) but takes no context\.Context`
	select {
	case <-e.ch:
	case <-e.stop:
	}
}

// Poll only attempts non-blocking communication: fine.
func (e *Engine) Poll() (int, bool) {
	select {
	case v := <-e.ch:
		return v, true
	default:
		return 0, false
	}
}

// Flush ranges over a channel: flagged.
func (e *Engine) Flush() { // want `exported Flush blocks \(range over channel\) but takes no context\.Context`
	for range e.ch {
	}
}

// Throttle sleeps: flagged.
func (e *Engine) Throttle() { // want `exported Throttle blocks \(time\.Sleep\) but takes no context\.Context`
	time.Sleep(time.Millisecond)
}

// Settle is audited: the wait is bounded by the worker queue depth.
//
//ctxcheck:allow wait bounded by queue depth; see fixture
func (e *Engine) Settle() {
	e.wg.Wait()
}

// launch blocks but is unexported: the rule covers exported API only.
func (e *Engine) launch() {
	e.ch <- 1
}

// SpawnWorker only blocks inside a goroutine closure with its own
// lifecycle: fine.
func (e *Engine) SpawnWorker() {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		<-e.stop
	}()
}

// hidden is an unexported type; its exported methods are not API.
type hidden struct{ ch chan int }

func (h *hidden) Recv() int { return <-h.ch }
