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
// by the handler that fills them (LendItems, LendRaster). All four bodies
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
var (
	items   = lendPool[BatchQueryItem]{maxLen: KeepBytes / int(unsafe.Sizeof(BatchQueryItem{}))}
	rasters = lendPool[float64]{maxLen: KeepBytes / 8}
	queries = lendPool[QueryRequest]{maxLen: KeepBytes / int(unsafe.Sizeof(QueryRequest{}))}
	raws    = lendPool[tuple.Raw]{maxLen: KeepBytes / int(unsafe.Sizeof(tuple.Raw{}))}
)

// LendItems lends a slice of n batch items. Its contents are undefined:
// the borrower writes every item.
func LendItems(n int) []BatchQueryItem { return items.lend(n) }

// LendRaster lends a raster of n values. Its contents are undefined: the
// borrower writes every value.
func LendRaster(n int) []float64 { return rasters.lend(n) }

// ReturnRaster takes back a raster from LendRaster once nothing reads it.
func ReturnRaster(v []float64) { rasters.take(v) }

// LendTuples lends a slice of n tuples. Its contents are undefined: the
// borrower writes every tuple.
func LendTuples(n int) []tuple.Raw { return raws.lend(n) }

// ReturnTuples takes back tuples from LendTuples once nothing reads them.
func ReturnTuples(v []tuple.Raw) { raws.take(v) }

// Recycle takes back the lent memory of an exchange nothing reads any
// more: a batch request's points and an upload's tuples — also inside a
// Forwarded or ReplicaRead — and a batch response's items and a heatmap
// response's values. Either message may be nil, and any other message is
// left alone. The tuples of an IngestRequest, bare or Forwarded, go back
// only when resp is the IngestResponse that acknowledges them: an upload
// answered otherwise may still sit in an ingest queue (its submitter gave
// up waiting), which reads it later. The caller must own that memory — it lent it, or
// decoded the messages itself — because the next borrower overwrites it.
func Recycle(req, resp Message) {
	recycle(resp)
	if _, acked := resp.(IngestResponse); acked || !carriesUpload(req) {
		recycle(req)
	}
}

func recycle(m Message) {
	switch v := m.(type) {
	case BatchQueryRequest:
		queries.take(v.Items)
	case IngestRequest:
		raws.take(v.Tuples)
	case ReplicaIngest:
		raws.take(v.Tuples)
	case Forwarded:
		recycle(v.Inner)
	case ReplicaRead:
		recycle(v.Inner)
	case BatchQueryResponse:
		clear(v.Items) // drop the error texts the items refer to
		items.take(v.Items)
	case HeatmapResponse:
		rasters.take(v.Values)
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

// lendPool lends slices of T with a power-of-two capacity, one sync.Pool
// per capacity: a borrower of n elements gets a slice of the next power of
// two up, so a 30-item route leg and a 100-item route do not trade one
// pool's slices back and forth. A slice rides in a box (*[]T) so that
// neither lending nor taking back allocates: lend parks the emptied box in
// spare, and take fills one from there.
type lendPool[T any] struct {
	maxLen int // the largest capacity kept: KeepBytes of T
	bySize [bits.UintSize]sync.Pool
	spare  sync.Pool
}

func (p *lendPool[T]) lend(n int) []T {
	if n <= 0 {
		return nil
	}
	c := bits.Len(uint(n - 1)) // 1<<c is the least power of two ≥ n
	if n > p.maxLen || 1<<c > p.maxLen {
		return make([]T, n)
	}
	if b, ok := p.bySize[c].Get().(*[]T); ok {
		s := (*b)[:n]
		*b = nil
		p.spare.Put(b)
		return s
	}
	return make([]T, n, 1<<c)
}

func (p *lendPool[T]) take(s []T) {
	c := bits.Len(uint(cap(s))) - 1
	if c < 0 || cap(s) != 1<<c || cap(s) > p.maxLen {
		return // not a lent slice, or too large to keep
	}
	b, _ := p.spare.Get().(*[]T)
	if b == nil {
		b = new([]T)
	}
	*b = s[:0]
	p.bySize[c].Put(b)
}
