// Package ingest implements the streaming ingestion pipeline of the
// EnviroMeter architecture: the path from the community-driven sensing
// fleet into the server's raw-tuple database (Figure 1, left). Buses
// upload their samples in small batches as they drive; the pipeline
// validates, queues and appends each batch, acknowledging it once the
// store holds it, and keeps counters an operator would watch.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/tuple"
)

// ErrSaturated is returned by a rejecting submit when the pollutant's
// ingest queue is full — the HTTP layer maps it to 429.
var ErrSaturated = errors.New("ingest: queue saturated")

// ErrPipelineClosed is returned by submits after Close.
var ErrPipelineClosed = errors.New("ingest: pipeline closed")

// ErrInvalidBatch marks a submission rejected by validation before it
// was queued — the caller's payload is at fault, not the pipeline (the
// HTTP layer maps it to 400, unlike sink I/O failures).
var ErrInvalidBatch = errors.New("ingest: invalid batch")

// PipelineConfig tunes a Pipeline. The zero value is usable.
type PipelineConfig struct {
	// QueueDepth bounds the submissions queued (accepted but not yet
	// applied) per pollutant. 0 = 64.
	QueueDepth int
}

// maxBatchTuples caps how many tuples one coalesced store append may
// carry.
const maxBatchTuples = 4096

// PipelineStats counts what the pipeline has processed.
type PipelineStats struct {
	// Submitted is the number of accepted submissions.
	Submitted int64 `json:"submitted"`
	// Tuples is the number of tuples in accepted submissions.
	Tuples int64 `json:"tuples"`
	// Appends is the number of sink calls (coalesced groups applied).
	Appends int64 `json:"appends"`
	// Coalesced is the number of submissions that rode along in another
	// submission's append instead of paying their own.
	Coalesced int64 `json:"coalesced"`
	// Rejected counts saturation rejections (ErrSaturated).
	Rejected int64 `json:"rejected"`
	// Errors counts sink failures (each may span several submissions).
	Errors int64 `json:"errors"`
	// Queued is the current number of queued-but-unapplied submissions
	// across all pollutants.
	Queued int64 `json:"queued"`
}

// submission is one accepted upload awaiting its append ack.
type submission struct {
	b    tuple.Batch
	errc chan error
}

// errcs holds submissions' one-shot result channels. A channel goes back
// once its result has been received; one whose wait was abandoned is left
// to the worker that still sends on it.
var errcs = sync.Pool{New: func() any {
	return make(chan error, 1) //bounded: one-shot result; the worker sends exactly once
}}

// Pipeline is the asynchronous ingest path: a bounded queue per
// pollutant, drained by one worker each, which coalesces small uploads
// into larger sink appends. A submission is acknowledged only after the
// sink call covering it returns — with a durable store under the sink,
// only after the append's fsync. Batches are validated on
// submit, so a coalesced append can only fail for reasons (I/O) that
// legitimately concern every upload in it.
type Pipeline struct {
	sink func(p tuple.Pollutant, b tuple.Batch) error
	cfg  PipelineConfig

	mu     sync.RWMutex // guards queues map and closed vs. channel sends
	queues map[tuple.Pollutant]chan submission
	closed bool
	wg     sync.WaitGroup

	submitted atomic.Int64
	tuples    atomic.Int64
	appends   atomic.Int64
	coalesced atomic.Int64
	rejected  atomic.Int64
	errors    atomic.Int64
	queued    atomic.Int64
}

// NewPipeline builds a pipeline draining into sink, which is called from
// one goroutine per pollutant and must be safe for concurrent use across
// pollutants.
func NewPipeline(sink func(p tuple.Pollutant, b tuple.Batch) error, cfg PipelineConfig) (*Pipeline, error) {
	if sink == nil {
		return nil, errors.New("ingest: nil pipeline sink")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	return &Pipeline{
		sink:   sink,
		cfg:    cfg,
		queues: make(map[tuple.Pollutant]chan submission),
	}, nil
}

// Submit enqueues one upload for pol and blocks until the append
// covering it completes, returning that append's error. When the queue
// is full it waits for space (or ctx) — a bulk loader self-paces against
// the store. Cancelling ctx abandons the wait — the upload may still be
// applied.
func (p *Pipeline) Submit(ctx context.Context, pol tuple.Pollutant, b tuple.Batch) error {
	return p.submit(ctx, pol, b, false)
}

// TrySubmit is Submit that never waits for queue space: a full queue
// fails fast with ErrSaturated. The server's ingest edge uses it to shed
// small bus uploads as 429s instead of holding their connections open.
func (p *Pipeline) TrySubmit(ctx context.Context, pol tuple.Pollutant, b tuple.Batch) error {
	return p.submit(ctx, pol, b, true)
}

func (p *Pipeline) submit(ctx context.Context, pol tuple.Pollutant, b tuple.Batch, try bool) error {
	if len(b) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := b.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidBatch, err)
	}
	q, err := p.queue(pol)
	if err != nil {
		return err
	}
	sub := submission{b: b, errc: errcs.Get().(chan error)}

	// The queued gauge rises before the send so it never undercounts (the
	// worker may drain the submission before the send's caller resumes).
	p.queued.Add(1)

	// The read lock serializes the channel send against Close's channel
	// close; the worker keeps draining until close, so a blocked send
	// always completes.
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		p.queued.Add(-1)
		return ErrPipelineClosed
	}
	if try {
		select {
		case q <- sub:
		default:
			p.mu.RUnlock()
			p.queued.Add(-1)
			p.rejected.Add(1)
			return ErrSaturated
		}
	} else {
		select {
		case q <- sub: //lockcheck:allow audited: the read lock only serializes against Close; the worker drains until close, so the send completes
		case <-ctx.Done():
			p.mu.RUnlock()
			p.queued.Add(-1)
			return ctx.Err()
		}
	}
	p.mu.RUnlock()
	p.submitted.Add(1)
	p.tuples.Add(int64(len(b)))

	select {
	case err := <-sub.errc:
		errcs.Put(sub.errc)
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// queue resolves (lazily creating) pol's queue and worker.
func (p *Pipeline) queue(pol tuple.Pollutant) (chan submission, error) {
	p.mu.RLock()
	q, ok := p.queues[pol]
	closed := p.closed
	p.mu.RUnlock()
	if closed {
		return nil, ErrPipelineClosed
	}
	if ok {
		return q, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrPipelineClosed
	}
	if q, ok = p.queues[pol]; ok {
		return q, nil
	}
	q = make(chan submission, p.cfg.QueueDepth)
	p.queues[pol] = q
	p.wg.Add(1)
	go p.worker(pol, q)
	return q, nil
}

// worker drains one pollutant's queue, coalescing whatever is already
// waiting — up to maxBatchTuples — into a single sink append, then
// acknowledges every coalesced submission with that append's result.
func (p *Pipeline) worker(pol tuple.Pollutant, q chan submission) {
	defer p.wg.Done()
	for sub := range q {
		subs := []submission{sub}
		n := len(sub.b)
	coalesce:
		for n < maxBatchTuples {
			select {
			case more, ok := <-q:
				if !ok {
					break coalesce
				}
				subs = append(subs, more)
				n += len(more.b)
			default:
				break coalesce
			}
		}
		b := subs[0].b
		if len(subs) > 1 {
			merged := make(tuple.Batch, 0, n)
			for _, s := range subs {
				merged = append(merged, s.b...)
			}
			b = merged
			p.coalesced.Add(int64(len(subs) - 1))
		}
		err := p.sink(pol, b)
		if err != nil {
			p.errors.Add(1)
		}
		p.appends.Add(1)
		p.queued.Add(-int64(len(subs)))
		for _, s := range subs {
			s.errc <- err
		}
	}
}

// Stats returns a snapshot of the pipeline counters.
func (p *Pipeline) Stats() PipelineStats {
	return PipelineStats{
		Submitted: p.submitted.Load(),
		Tuples:    p.tuples.Load(),
		Appends:   p.appends.Load(),
		Coalesced: p.coalesced.Load(),
		Rejected:  p.rejected.Load(),
		Errors:    p.errors.Load(),
		Queued:    p.queued.Load(),
	}
}

// Close stops accepting submissions, drains everything already queued
// (each queued upload is still applied and acknowledged), and waits for
// the workers to exit.
func (p *Pipeline) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	for _, q := range p.queues {
		close(q)
	}
	p.mu.Unlock()
	p.wg.Wait()
	return nil
}
