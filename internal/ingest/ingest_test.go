package ingest

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/tuple"
)

func mkData(n int, dt float64) tuple.Batch {
	b := make(tuple.Batch, n)
	for i := range b {
		b[i] = tuple.Raw{T: float64(i) * dt, S: 400}
	}
	return b
}

func TestNewReplayerValidation(t *testing.T) {
	if _, err := NewReplayer(mkData(5, 10), 0); err == nil {
		t.Error("zero batch seconds should error")
	}
	unsorted := tuple.Batch{{T: 10}, {T: 5}}
	if _, err := NewReplayer(unsorted, 10); err == nil {
		t.Error("unsorted data should error")
	}
}

func TestReplayerBatching(t *testing.T) {
	// 10 tuples 10 s apart; 30 s batches → batches of 3,3,3,1.
	r, err := NewReplayer(mkData(10, 10), 30)
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	total := 0
	for {
		b, ok := r.Next()
		if !ok {
			break
		}
		sizes = append(sizes, len(b))
		total += len(b)
	}
	if total != 10 {
		t.Fatalf("replayed %d tuples, want 10", total)
	}
	want := []int{3, 3, 3, 1}
	if len(sizes) != len(want) {
		t.Fatalf("batch sizes %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("batch sizes %v, want %v", sizes, want)
		}
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d", r.Remaining())
	}
}

func TestReplayerEmptyData(t *testing.T) {
	r, err := NewReplayer(nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Next(); ok {
		t.Error("empty replayer should be exhausted immediately")
	}
}

// collectSink records ingested batches; it can fail on demand.
type collectSink struct {
	batches []tuple.Batch
	failOn  int // 1-based batch index to reject (0 = never)
	calls   int
}

func (c *collectSink) Ingest(b tuple.Batch) error {
	c.calls++
	if c.failOn != 0 && c.calls == c.failOn {
		return errors.New("sink failure injected")
	}
	c.batches = append(c.batches, b.Clone())
	return nil
}

func TestServiceValidation(t *testing.T) {
	sink := &collectSink{}
	if _, err := NewService(nil, sink, Config{}); err == nil {
		t.Error("nil source should error")
	}
	r, _ := NewReplayer(mkData(1, 1), 1)
	if _, err := NewService(r, nil, Config{}); err == nil {
		t.Error("nil sink should error")
	}
}

func TestServicePumpsEverything(t *testing.T) {
	r, err := NewReplayer(mkData(100, 5), 60)
	if err != nil {
		t.Fatal(err)
	}
	sink := &collectSink{}
	svc, err := NewService(r, sink, Config{}) // no pacing
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Tuples != 100 || st.Rejected != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.LastStreamT != 495 {
		t.Errorf("LastStreamT = %v, want 495", st.LastStreamT)
	}
	total := 0
	for _, b := range sink.batches {
		total += len(b)
	}
	if total != 100 {
		t.Errorf("sink received %d tuples", total)
	}
}

func TestServiceSkipsRejectedBatches(t *testing.T) {
	r, err := NewReplayer(mkData(90, 10), 100) // 9 batches of 10
	if err != nil {
		t.Fatal(err)
	}
	sink := &collectSink{failOn: 2}
	svc, err := NewService(r, sink, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", st.Rejected)
	}
	if st.Tuples != 80 {
		t.Errorf("Tuples = %d, want 80 (one 10-tuple batch dropped)", st.Tuples)
	}
}

func TestServiceCancellation(t *testing.T) {
	// Real-time pacing (speedup 1) with 60 s gaps would run for minutes;
	// cancellation must interrupt the sleep promptly.
	r, err := NewReplayer(mkData(100, 60), 60)
	if err != nil {
		t.Fatal(err)
	}
	sink := &collectSink{}
	svc, err := NewService(r, sink, Config{Speedup: 1})
	if err != nil {
		t.Fatal(err)
	}
	svc.maxGap = time.Hour
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = svc.Run(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Run = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("cancellation did not interrupt pacing sleep")
	}
}

func TestServicePacingSpeedsUp(t *testing.T) {
	// 10 batches spaced 60 stream-seconds apart at speedup 6000 →
	// ~10 ms per gap, so the run takes roughly 90 ms, not 10 minutes.
	r, err := NewReplayer(mkData(10, 60), 60)
	if err != nil {
		t.Fatal(err)
	}
	sink := &collectSink{}
	svc, err := NewService(r, sink, Config{Speedup: 6000})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := svc.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed > 3*time.Second {
		t.Errorf("paced run took %v, expected well under a second", elapsed)
	}
	if svc.Stats().Tuples != 10 {
		t.Errorf("Tuples = %d", svc.Stats().Tuples)
	}
}

func TestServiceBatchGapCap(t *testing.T) {
	// An enormous stream gap must be capped by the service's gap bound.
	data := tuple.Batch{{T: 0, S: 1}, {T: 1e9, S: 1}}
	r, err := NewReplayer(data, 10)
	if err != nil {
		t.Fatal(err)
	}
	sink := &collectSink{}
	svc, err := NewService(r, sink, Config{Speedup: 1})
	if err != nil {
		t.Fatal(err)
	}
	svc.maxGap = 20 * time.Millisecond
	start := time.Now()
	if err := svc.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("batch gap cap not applied")
	}
}
