package wire

import (
	"math/bits"
	"sync"
	"unsafe"

	"repro/internal/tuple"
)

// KeepBytes is the largest buffer kept for reuse: by a proto connection
// between frames, and by the lending pools below. It is room for the
// everyday frames and what they decode to — a 256-tuple upload (≈ 5.6 KiB
// packed, 8.2 KiB at worst; 8 KiB of tuples decoded), a
// 100-point route reply (2.4 KiB), a 64×64 raster (a frame of ≈ 7 KiB, at
// most 34 KiB; 32 KiB of values) — while a rare large one does not stay
// pinned to an idle connection or a pool.
const KeepBytes = 64 << 10

// What grows with a frame is lent, not allocated, on the serving path.
// The two answers — a batch's items and a raster's values — are borrowed
// by the handler that fills them (LendAnswer, LendRaster). All four bodies
// — those two answers and the two requests, a batch's query points and an
// upload's tuples — are borrowed by whoever decodes them
// (Binary.DecodeLent): a serve loop its requests, a client its answers.
// They go back with Recycle once nothing reads them: a served exchange's
// after its response has been written (proto.Releaser), a peer's answer
// after the node that asked has merged it. There is one pool per element
// type, shared by everything that lends one, so whoever takes a slice back
// returns it to the pool it came from. The raster pool also lends the
// batch codec the scratch it lays a batch's columns out in (batch.go),
// which it takes back before it returns.
//
// A lent slice also keeps the Message it last travelled in: Recycle hands
// the box back with the slice, and whoever next borrows that slice for
// the same message — a batch request or answer, or an upload of the same
// pollutant, decoded or answered at the same length — gets the box
// instead of boxing the value anew (inBox). A box never changes once
// made, so a message kept past Recycle shares its box with the next
// borrower as well as its bulk.
var (
	items   = lendPool[BatchQueryItem]{maxLen: KeepBytes / int(unsafe.Sizeof(BatchQueryItem{}))}
	rasters = lendPool[float64]{maxLen: KeepBytes / 8}
	queries = lendPool[QueryRequest]{maxLen: KeepBytes / int(unsafe.Sizeof(QueryRequest{}))}
	raws    = lendPool[tuple.Raw]{maxLen: KeepBytes / int(unsafe.Sizeof(tuple.Raw{}))}
)

// LendAnswer lends the answer to a batch of n items: a
// BatchQueryResponse holding them, boxed, and the items themselves. Their
// contents are undefined: the borrower writes every item, and answers
// with the message, which holds exactly those items.
func LendAnswer(n int) (Message, []BatchQueryItem) {
	s, box := items.lend(n)
	return inBox(box, BatchQueryResponse{Items: s}), s
}

// LendRaster lends a raster of n values. Its contents are undefined: the
// borrower writes every value.
func LendRaster(n int) []float64 {
	s, _ := rasters.lend(n)
	return s
}

// ReturnRaster takes back a raster from LendRaster once nothing reads it.
func ReturnRaster(v []float64) { rasters.take(v, nil) }

// LendTuples lends a slice of n tuples. Its contents are undefined: the
// borrower writes every tuple.
func LendTuples(n int) []tuple.Raw {
	s, _ := raws.lend(n)
	return s
}

// ReturnTuples takes back tuples from LendTuples once nothing reads them.
func ReturnTuples(v []tuple.Raw) { raws.take(v, nil) }

// Recycle takes back the lent memory of an exchange nothing reads any
// more: a batch request's points and an upload's tuples — also inside a
// Forwarded or ReplicaRead — and a batch response's items and a heatmap
// response's values, each with the box it travelled in: pass a message as
// it was decoded or lent, not a value taken out of it, which would be
// boxed again. Either message may be nil, and any other message is left
// alone. The tuples of an IngestRequest, bare or Forwarded, go back only
// when resp is the IngestResponse that acknowledges them: an upload
// answered otherwise may still sit in an ingest queue (its submitter gave
// up waiting), which reads it later. The caller must own that memory — it
// lent it, or decoded the messages itself — because the next borrower
// overwrites it.
func Recycle(req, resp Message) {
	recycle(resp)
	if _, acked := resp.(IngestResponse); acked || !carriesUpload(req) {
		recycle(req)
	}
}

func recycle(m Message) {
	switch v := m.(type) {
	case BatchQueryRequest:
		queries.take(v.Items, m)
	case IngestRequest:
		raws.take(v.Tuples, m)
	case ReplicaIngest:
		raws.take(v.Tuples, m)
	case Forwarded:
		recycle(v.Inner)
	case ReplicaRead:
		recycle(v.Inner)
	case BatchQueryResponse:
		clear(v.Items) // drop the error texts the items refer to
		items.take(v.Items, m)
	case HeatmapResponse:
		rasters.take(v.Values, m)
	}
}

// carriesUpload reports whether m is an IngestRequest, bare or forwarded
// to its owner.
func carriesUpload(m Message) bool {
	if f, ok := m.(Forwarded); ok {
		m = f.Inner
	}
	_, ok := m.(IngestRequest)
	return ok
}

// inBox returns m as a Message: box itself when it holds m already — the
// same slice, so the same message — and m boxed anew otherwise. Its three
// message types are the ones a lend reuses a box for; a box of any other
// type, or a nil one, never holds m.
func inBox[M interface {
	Message
	BatchQueryRequest | BatchQueryResponse | IngestRequest
}](box Message, m M) Message {
	switch v := any(m).(type) {
	case BatchQueryRequest:
		if b, ok := box.(BatchQueryRequest); ok && sameSlice(b.Items, v.Items) {
			return box
		}
	case BatchQueryResponse:
		if b, ok := box.(BatchQueryResponse); ok && sameSlice(b.Items, v.Items) {
			return box
		}
	case IngestRequest:
		if b, ok := box.(IngestRequest); ok && b.Pollutant == v.Pollutant && sameSlice(b.Tuples, v.Tuples) {
			return box
		}
	}
	return m
}

// sameSlice reports whether a and b are one slice: the same array, length
// and capacity.
func sameSlice[T any](a, b []T) bool {
	return unsafe.SliceData(a) == unsafe.SliceData(b) && len(a) == len(b) && cap(a) == cap(b)
}

// lendPool lends slices of T with a power-of-two capacity, one sync.Pool
// per capacity: a borrower of n elements gets a slice of the next power of
// two up, so a 30-item route leg and a 100-item route do not trade one
// pool's slices back and forth. A slice rides in a slot, with the box it
// last travelled in, so that neither lending nor taking back allocates:
// lend parks the emptied slot in spare, and take fills one from there.
type lendPool[T any] struct {
	maxLen int // the largest capacity kept: KeepBytes of T
	bySize [bits.UintSize]sync.Pool
	spare  sync.Pool
}

// slot is a pooled slice and the message it was last taken back in (nil
// when it came back bare).
type slot[T any] struct {
	s   []T
	box Message
}

// lend returns n elements, and the box their slice last travelled in: nil
// when it has none, or when the slice is new.
func (p *lendPool[T]) lend(n int) ([]T, Message) {
	if n <= 0 {
		return nil, nil
	}
	c := bits.Len(uint(n - 1)) // 1<<c is the least power of two ≥ n
	if n > p.maxLen || 1<<c > p.maxLen {
		return make([]T, n), nil
	}
	if sl, ok := p.bySize[c].Get().(*slot[T]); ok {
		s, box := sl.s[:n], sl.box
		*sl = slot[T]{}
		p.spare.Put(sl)
		return s, box
	}
	return make([]T, n, 1<<c), nil
}

// take keeps s for the next borrower, with box, the message s travelled
// in (nil when none).
func (p *lendPool[T]) take(s []T, box Message) {
	c := bits.Len(uint(cap(s))) - 1
	if c < 0 || cap(s) != 1<<c || cap(s) > p.maxLen {
		return // not a lent slice, or too large to keep
	}
	sl, _ := p.spare.Get().(*slot[T])
	if sl == nil {
		sl = new(slot[T])
	}
	*sl = slot[T]{s: s[:0], box: box}
	p.bySize[c].Put(sl)
}
