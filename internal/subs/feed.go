// Package subs implements server-push continuous-query subscriptions:
// long-lived registrations of a point set (typically a commuter route)
// that re-evaluate incrementally when an overlapping model cover is
// invalidated and push deltas — changed points only, with sequence
// numbers — to a bounded per-subscription queue. The read-side push
// machinery stays physically separate from the ingest path: the ingest
// sink only marks windows dirty through the maintainer's invalidation
// hook; evaluation happens on the registry's own workers.
package subs

import (
	"errors"
	"sync"
)

// ErrClosed is returned by operations on a closed subscription or
// registry.
var ErrClosed = errors.New("subs: closed")

// PendingErr marks a point whose value has not been pushed yet (a
// cluster-merged subscription before the owner's first push arrives).
const PendingErr = "subs: value pending"

// PointValue is one point of a push event: the index into the
// subscribed point set plus either a value or an evaluation error.
type PointValue struct {
	Index int     `json:"i"`
	Value float64 `json:"value,omitempty"`
	Err   string  `json:"error,omitempty"`
}

// Event is one push. A delta carries only the points whose value (or
// error) changed since the last push. A resync carries every point and
// tells the consumer to discard cached state: it is sent as the initial
// snapshot, after a slow-consumer overflow dropped an event, and on
// explicit Snapshot calls. Err, when set, is a subscription-level
// condition (for example a dead shard owner) — point values outside the
// event stay valid but may go stale.
type Event struct {
	Seq    uint64       `json:"seq"`
	Resync bool         `json:"resync,omitempty"`
	Err    string       `json:"error,omitempty"`
	Points []PointValue `json:"points,omitempty"`
}

// pointState is the last pushed state of one point.
type pointState struct {
	val   float64
	err   string
	known bool
}

// feedCounters are per-feed push statistics, accumulated into the
// registry totals when the feed closes.
type feedCounters struct {
	Pushes      int64 // events enqueued (deltas, resyncs, errors)
	DeltaPoints int64 // point values carried by delta events
	Dropped     int64 // events dropped on slow consumers
	Resyncs     int64 // resync events enqueued
}

// Feed is a subscription as its consumer holds it, local or routed: a
// bounded push-event queue over the last-pushed value vector. Producers
// offer value updates; when the consumer falls behind and the queue is
// full, the oldest queued event is dropped and the newest becomes a full
// resync so the consumer can never observe a silent gap. A subscription
// ends one way, when its consumer closes the feed.
type Feed struct {
	id      uint64
	ch      chan Event
	onClose func()

	mu     sync.Mutex
	last   []pointState
	seq    uint64
	closed bool
	ctr    feedCounters
}

// NewFeed builds a feed over points point slots with a queue of
// queueDepth events. onClose, if non-nil, runs once when the feed is
// closed, after the event channel closes.
func NewFeed(id uint64, points int, onClose func()) *Feed {
	return &Feed{
		id:      id,
		ch:      make(chan Event, queueDepth),
		onClose: onClose,
		last:    make([]pointState, points),
	}
}

// ID is the server-assigned subscription ID.
func (f *Feed) ID() uint64 { return f.id }

// Events is the push stream. Close (and registry shutdown) closes it.
func (f *Feed) Events() <-chan Event { return f.ch }

// Seq is the sequence number of the newest event produced so far.
func (f *Feed) Seq() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq
}

// Len reports the number of point slots.
func (f *Feed) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.last)
}

// Snapshot returns the full current value vector as a resync event
// carrying the current sequence number. It does not advance the
// sequence, so a snapshot is idempotent and interleaves safely with the
// event stream (skip queued events with Seq <= the snapshot's).
func (f *Feed) Snapshot() Event {
	f.mu.Lock()
	defer f.mu.Unlock()
	return Event{Seq: f.seq, Resync: true, Points: f.snapshotLocked()}
}

func (f *Feed) snapshotLocked() []PointValue {
	pts := make([]PointValue, len(f.last))
	for i, st := range f.last {
		pts[i] = PointValue{Index: i, Value: st.val, Err: st.err}
		if !st.known {
			pts[i] = PointValue{Index: i, Err: PendingErr}
		}
	}
	return pts
}

// Prime seeds the full value vector and enqueues the initial resync
// event (sequence 1). It must be called once, before Apply.
func (f *Feed) Prime(points []PointValue) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	for _, p := range points {
		f.storeLocked(p)
	}
	f.seq++
	f.ctr.Resyncs++
	f.offerLocked(Event{Seq: f.seq, Resync: true, Points: f.snapshotLocked()})
}

// Apply updates the value vector with points and enqueues a delta event
// carrying only the entries whose value or error actually changed. An
// update where nothing changed produces no event.
func (f *Feed) Apply(points []PointValue) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	changed := points[:0:0]
	for _, p := range points {
		if f.storeLocked(p) {
			changed = append(changed, p)
		}
	}
	if len(changed) == 0 {
		return
	}
	f.seq++
	f.ctr.DeltaPoints += int64(len(changed))
	f.offerLocked(Event{Seq: f.seq, Points: changed})
}

// Fail enqueues a subscription-level error event (for example, a shard
// owner became unreachable). The feed stays open: other producers may
// still push values.
func (f *Feed) Fail(msg string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.seq++
	f.offerLocked(Event{Seq: f.seq, Err: msg})
}

// storeLocked records p and reports whether it changed the slot.
func (f *Feed) storeLocked(p PointValue) bool {
	if p.Index < 0 || p.Index >= len(f.last) {
		return false
	}
	st := &f.last[p.Index]
	if st.known && st.val == p.Value && st.err == p.Err {
		return false
	}
	*st = pointState{val: p.Value, err: p.Err, known: true}
	return true
}

// offerLocked enqueues ev, dropping the oldest queued event when the
// consumer is behind; the event sent after a drop is converted into a
// full resync so the consumer never misses state.
func (f *Feed) offerLocked(ev Event) {
	f.ctr.Pushes++
	select {
	case f.ch <- ev:
		return
	default:
	}
	// Queue full: drop the oldest, then send a full resync in place of
	// ev (the slot we freed makes this send non-blocking — the feed
	// mutex serializes producers and the consumer only drains).
	select {
	case <-f.ch:
		f.ctr.Dropped++
	default:
	}
	f.ctr.Resyncs++
	//lockcheck:allow audited drop-oldest: the slot freed above makes this send non-blocking
	f.ch <- Event{Seq: ev.Seq, Resync: true, Err: ev.Err, Points: f.snapshotLocked()}
}

// Close tears the subscription down and closes Events. It returns
// ErrClosed, and changes nothing, if the feed was already closed.
func (f *Feed) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	f.closed = true
	close(f.ch)
	f.mu.Unlock()
	if f.onClose != nil {
		f.onClose()
	}
	return nil
}

// counters snapshots the feed's push statistics.
func (f *Feed) counters() feedCounters {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ctr
}
