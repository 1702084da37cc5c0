// Package ingest implements the streaming ingestion pipeline of the
// EnviroMeter architecture: the path from the community-driven sensing
// fleet into the server's raw-tuple database (Figure 1, left). Buses
// upload their samples in small batches as they drive; the service
// validates and appends each batch, invalidating affected model covers,
// and keeps counters an operator would watch.
//
// A Replayer adapts a recorded (or simulated) dataset into that batch
// stream, optionally faster than real time — how the demo replayed a
// month of lausanne-data in minutes.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/tuple"
)

// Source yields raw-tuple batches in non-decreasing stream-time order.
type Source interface {
	// Next returns the next batch. ok is false when the source is
	// exhausted. An empty batch with ok true is allowed (a reporting
	// period with no samples).
	Next() (batch tuple.Batch, ok bool)
}

// Sink consumes validated batches (implemented by server.Engine.Ingest).
type Sink interface {
	Ingest(b tuple.Batch) error
}

// Replayer is a Source that cuts a recorded dataset into batches covering
// BatchSeconds of stream time each — the cadence at which a bus flushes
// its sample buffer.
type Replayer struct {
	data         tuple.Batch
	batchSeconds float64
	pos          int
}

// NewReplayer returns a replayer over data, which must be sorted by time.
func NewReplayer(data tuple.Batch, batchSeconds float64) (*Replayer, error) {
	if batchSeconds <= 0 {
		return nil, fmt.Errorf("ingest: batch seconds %v, want > 0", batchSeconds)
	}
	if !data.SortedByTime() {
		return nil, errors.New("ingest: replay data must be time sorted")
	}
	return &Replayer{data: data, batchSeconds: batchSeconds}, nil
}

// Next implements Source.
func (r *Replayer) Next() (tuple.Batch, bool) {
	if r.pos >= len(r.data) {
		return nil, false
	}
	start := r.pos
	cutoff := r.data[start].T + r.batchSeconds
	for r.pos < len(r.data) && r.data[r.pos].T < cutoff {
		r.pos++
	}
	return r.data[start:r.pos], true
}

// Remaining returns how many tuples have not been replayed yet.
func (r *Replayer) Remaining() int { return len(r.data) - r.pos }

// Stats counts what the service has processed.
type Stats struct {
	Batches     int64
	Tuples      int64
	Rejected    int64   // batches refused by validation/sink
	LastStreamT float64 // largest stream time ingested
}

// Config tunes a Service.
type Config struct {
	// Speedup is stream seconds per wall-clock second. 0 (or
	// +Inf-equivalent ≤ 0) means "as fast as possible" — no pacing, the
	// benchmark loading mode. 1 is real time; 3600 replays an hour per
	// second.
	Speedup float64
}

// maxBatchGap bounds the wall-clock pause between batches when pacing, so
// a long stream-time gap cannot stall a replay.
const maxBatchGap = time.Second

// Service pumps a Source into a Sink.
type Service struct {
	src    Source
	sink   Sink
	cfg    Config
	maxGap time.Duration // maxBatchGap; tests lower it

	mu    sync.Mutex
	stats Stats
}

// NewService builds a service. src and sink must be non-nil.
func NewService(src Source, sink Sink, cfg Config) (*Service, error) {
	if src == nil || sink == nil {
		return nil, errors.New("ingest: nil source or sink")
	}
	return &Service{src: src, sink: sink, cfg: cfg, maxGap: maxBatchGap}, nil
}

// Run pumps until the source is exhausted or ctx is canceled. It returns
// nil on clean exhaustion, ctx.Err() on cancellation. Sink errors on
// individual batches are counted (Rejected) and skipped: one bus
// uploading garbage must not stall the city's ingestion.
func (s *Service) Run(ctx context.Context) error {
	var lastT float64
	first := true
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		batch, ok := s.src.Next()
		if !ok {
			return nil
		}
		if len(batch) == 0 {
			continue
		}
		// Pace according to the stream-time gap since the last batch.
		if s.cfg.Speedup > 0 && !first {
			gap := (batch[0].T - lastT) / s.cfg.Speedup
			if wall := time.Duration(gap * float64(time.Second)); wall > 0 {
				wall = min(wall, s.maxGap)
				timer := time.NewTimer(wall)
				select {
				case <-ctx.Done():
					timer.Stop()
					return ctx.Err()
				case <-timer.C:
				}
			}
		}
		first = false
		lastT = batch[len(batch)-1].T

		err := s.sink.Ingest(batch)
		s.mu.Lock()
		s.stats.Batches++
		if err != nil {
			s.stats.Rejected++
		} else {
			s.stats.Tuples += int64(len(batch))
			if lastT > s.stats.LastStreamT {
				s.stats.LastStreamT = lastT
			}
		}
		s.mu.Unlock()
	}
}

// Stats returns a snapshot of the counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
