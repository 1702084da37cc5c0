package ingest

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/tuple"
)

// TestSubmitAllocs: a submission's one-shot result channel is reused once
// its result has been received, so a warm TrySubmit allocates nothing,
// where a fresh channel per upload cost two allocations (the channel and
// its buffer).
func TestSubmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	// One P: a channel given back to its pool is the next one taken.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p, err := NewPipeline(func(tuple.Pollutant, tuple.Batch) error { return nil }, PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	b := pipeBatch(0, 8)
	submit := func() {
		if err := p.TrySubmit(context.Background(), tuple.CO2, b); err != nil {
			t.Fatal(err)
		}
	}
	submit()
	allocs := testing.AllocsPerRun(100, submit)
	t.Logf("warm TrySubmit = %.2f allocs", allocs)
	if allocs != 0 {
		t.Errorf("warm TrySubmit = %.2f allocs, want 0", allocs)
	}
}

// TestAbandonedSubmissionKeepsItsChannel: a wait abandoned while the sink
// holds its upload leaves the submission's result channel to the worker,
// which still sends on it. The channel never goes back to the pool, so no
// later submission receives the abandoned upload's result, or any other
// but its own.
func TestAbandonedSubmissionKeepsItsChannel(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var hold atomic.Bool
	p, err := NewPipeline(func(_ tuple.Pollutant, b tuple.Batch) error {
		if hold.CompareAndSwap(true, false) {
			entered <- struct{}{}
			<-release
		}
		return fmt.Errorf("applied the upload at T=%v", b[0].T)
	}, PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for r := range 20 {
		hold.Store(true)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- p.Submit(ctx, tuple.CO2, pipeBatch(float64(3*r), 1)) }()
		<-entered // the sink holds the upload
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: the abandoned wait returned %v, want context.Canceled", r, err)
		}
		release <- struct{}{}
		for _, t0 := range []float64{float64(3*r + 1), float64(3*r + 2)} {
			want := fmt.Sprintf("applied the upload at T=%v", t0)
			if err := p.Submit(context.Background(), tuple.CO2, pipeBatch(t0, 1)); err == nil || err.Error() != want {
				t.Fatalf("round %d: the upload at T=%v received %v, want its own result %q", r, t0, err, want)
			}
		}
	}
}
