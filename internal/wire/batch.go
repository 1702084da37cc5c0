// A route batch is the frame the system sends most: a commuter's route
// is a hundred points that share one time and one pollutant and lie
// metres apart, and its answer is a hundred values of one smooth cover.
// So both travel as blocks of the residual coder (residual.go), one row a
// column, each with no row below it: a value is predicted by the item
// before it, the first by 0.
//
//	BatchQueryRequest (tag 30):
//	  tag | n u16 | counts: 2n bytes | residuals
//	  four columns of n values, in this order: T, X and Y as their IEEE
//	  bits, and the pollutant widened to a uint64 (so at most 2 residual
//	  bytes: the decoder refuses a pollutant that does not fit a byte)
//
//	BatchQueryResponse (tag 31):
//	  tag | n u16 | counts: ⌈n/2⌉ bytes | residuals | failures
//	  one column of n values: an item's value, or for a failed item its
//	  predecessor's (a residual of 0); then one entry per failed item, in
//	  ascending index: index u16 | status u8 | length u16 | text, where
//	  the status is 1 for an untyped failure and the ErrCode (≥ 2) for a
//	  typed one, and the text is never empty
//
// A request frame ends where its residuals do, and an answer where its
// last failure does. A request is at most BatchRequestFrameBytes(n), 28 B
// an item.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/tuple"
)

// batchHeader is a batch frame's fixed part: tag and item count.
const batchHeader = 1 + 2

// batchColumns is the number of columns of a BatchQueryRequest: T, X, Y
// and the pollutant.
const batchColumns = 4

// failureHeader is a failed answer's fixed part: index, status and text
// length.
const failureHeader = 2 + 1 + 2

// BatchRequestFrameBytes is the largest BatchQueryRequest of n items: its
// header, four count nibbles an item, eight residual bytes for each of T,
// X and Y, and two for the pollutant.
func BatchRequestFrameBytes(n int) int { return batchHeader + countBytes(batchColumns*n) + (3*8+2)*n }

// A refused batch allocates nothing, not even its error.
var (
	errBatchHeader    = fmt.Errorf("%w: batch header", ErrMalformed)
	errBatchShort     = fmt.Errorf("%w: batch shorter than its counts", ErrMalformed)
	errBatchLength    = fmt.Errorf("%w: BatchQueryRequest length disagrees with its counts", ErrMalformed)
	errBatchPollutant = fmt.Errorf("%w: BatchQueryRequest pollutant over 255", ErrMalformed)
	errFailureCut     = fmt.Errorf("%w: BatchQueryResponse failure cut short", ErrMalformed)
	errFailureIndex   = fmt.Errorf("%w: BatchQueryResponse failure index out of order or range", ErrMalformed)
	errFailureStatus  = fmt.Errorf("%w: BatchQueryResponse failure with status 0", ErrMalformed)
	errFailureText    = fmt.Errorf("%w: BatchQueryResponse failure without text", ErrMalformed)
	errFailureValue   = fmt.Errorf("%w: BatchQueryResponse failure with a residual", ErrMalformed)
)

// column is column c of cols, which holds batchColumns columns of n values.
func column(cols []float64, n, c int) []float64 { return cols[c*n : (c+1)*n] }

func appendBatchRequest(dst []byte, head int, v BatchQueryRequest) ([]byte, error) {
	n := len(v.Items)
	if n > MaxBatchItems {
		return dst, fmt.Errorf("wire: batch too large (%d items)", n)
	}
	// The columns are laid out in scratch lent from the raster pool, as
	// the rows of a raster: the first pass sizes the frame, so dst grows
	// once; the second writes it.
	cols, _ := rasters.lend(batchColumns * n)
	t, x, y, p := column(cols, n, 0), column(cols, n, 1), column(cols, n, 2), column(cols, n, 3)
	for i, q := range v.Items {
		t[i], x[i], y[i], p[i] = q.T, q.X, q.Y, math.Float64frombits(uint64(q.Pollutant))
	}
	size := batchHeader + countBytes(batchColumns*n)
	for c := range batchColumns {
		size += rowBytes(column(cols, n, c), nil)
	}
	out, buf := grow(dst, head, size)
	buf[0] = byte(TypeBatchQueryRequest)
	binary.LittleEndian.PutUint16(buf[1:], uint16(n))
	counts := buf[batchHeader : batchHeader+countBytes(batchColumns*n)]
	residuals := buf[batchHeader+len(counts):]
	off := 0
	for c := range batchColumns {
		off = putRow(counts, residuals, c*n, off, column(cols, n, c), nil)
	}
	rasters.take(cols, nil)
	return out, nil
}

// decodeBatchRequest checks the whole frame — its counts, every residual
// minimal, the residuals ending where the frame does, and every pollutant
// a byte — before it allocates the items.
func decodeBatchRequest(data []byte, lend bool) (Message, error) {
	if len(data) < batchHeader {
		return nil, errBatchHeader
	}
	n := int(binary.LittleEndian.Uint16(data[1:]))
	start := batchHeader + countBytes(batchColumns*n)
	if len(data) < start {
		return nil, errBatchShort
	}
	counts := data[batchHeader:start]
	pollutants, err := checkResiduals(data, counts, 0, 3*n, start)
	if err != nil {
		return nil, err
	}
	end, err := checkResiduals(data, counts, 3*n, n, pollutants)
	if err != nil {
		return nil, err
	}
	if end != len(data) {
		return nil, errBatchLength
	}
	var pol uint64
	for i, off := 3*n, pollutants; i < 4*n; i++ {
		k := count(counts, i)
		pol += unzigzag(residualAt(data, off, k))
		if pol > math.MaxUint8 {
			return nil, errBatchPollutant
		}
		off += k
	}
	// Every item is written whole: a lent slice still holds what its last
	// borrower left in it.
	lent, box := alloc(&queries, n, lend)
	m := BatchQueryRequest{Items: lent}
	cols, _ := rasters.lend(batchColumns * n)
	unpack(cols, counts, data[start:])
	for c := range batchColumns {
		integrate(column(cols, n, c), nil)
	}
	t, x, y, p := column(cols, n, 0), column(cols, n, 1), column(cols, n, 2), column(cols, n, 3)
	for i := range m.Items {
		m.Items[i] = QueryRequest{T: t[i], X: x[i], Y: y[i], Pollutant: tuple.Pollutant(math.Float64bits(p[i]))}
	}
	rasters.take(cols, nil)
	return inBox(box, m), nil
}

func appendBatchResponse(dst []byte, head int, v BatchQueryResponse) ([]byte, error) {
	n := len(v.Items)
	if n > MaxBatchItems {
		return dst, fmt.Errorf("wire: batch too large (%d items)", n)
	}
	// The value column is laid out in scratch lent from the raster pool:
	// a failed item repeats the value before it, so it costs a count
	// nibble of 0.
	vals, _ := rasters.lend(n)
	size := batchHeader + countBytes(n)
	var prev float64
	for i, it := range v.Items {
		switch {
		case it.Err == "":
			prev = it.Value
		case len(it.Err) > math.MaxUint16:
			rasters.take(vals, nil)
			return dst, fmt.Errorf("wire: batch item error too long (%d bytes)", len(it.Err))
		default:
			size += failureHeader + len(it.Err)
		}
		vals[i] = prev
	}
	size += rowBytes(vals, nil)
	out, buf := grow(dst, head, size)
	buf[0] = byte(TypeBatchQueryResponse)
	binary.LittleEndian.PutUint16(buf[1:], uint16(n))
	counts := buf[batchHeader : batchHeader+countBytes(n)]
	off := batchHeader + len(counts)
	off += putRow(counts, buf[off:], 0, 0, vals, nil)
	rasters.take(vals, nil)
	for i, it := range v.Items {
		if it.Err == "" {
			continue
		}
		binary.LittleEndian.PutUint16(buf[off:], uint16(i))
		buf[off+2] = max(1, byte(it.Code()))
		binary.LittleEndian.PutUint16(buf[off+3:], uint16(len(it.Err)))
		off += failureHeader + copy(buf[off+failureHeader:], it.Err)
	}
	return out, nil
}

// decodeBatchResponse checks the whole frame — its counts, every residual
// minimal, the padding nibble, and every failure: in ascending index
// inside the batch, with a status and text, over a value residual of 0,
// the last one ending where the frame does — before it allocates the
// items.
func decodeBatchResponse(data []byte, lend bool) (Message, error) {
	if len(data) < batchHeader {
		return nil, errBatchHeader
	}
	n := int(binary.LittleEndian.Uint16(data[1:]))
	start := batchHeader + countBytes(n)
	if len(data) < start {
		return nil, errBatchShort
	}
	counts := data[batchHeader:start]
	failures, err := checkResiduals(data, counts, 0, n, start)
	if err != nil {
		return nil, err
	}
	if err := checkPadding(counts, n); err != nil {
		return nil, err
	}
	for off, prev := failures, -1; off < len(data); {
		if len(data) < off+failureHeader {
			return nil, errFailureCut
		}
		i, text := int(binary.LittleEndian.Uint16(data[off:])), int(binary.LittleEndian.Uint16(data[off+3:]))
		switch {
		case i <= prev || i >= n:
			return nil, errFailureIndex
		case data[off+2] == 0:
			return nil, errFailureStatus
		case text == 0:
			// Without text the item would read as a value.
			return nil, errFailureText
		case len(data) < off+failureHeader+text:
			return nil, errFailureCut
		case count(counts, i) != 0:
			return nil, errFailureValue
		}
		prev, off = i, off+failureHeader+text
	}
	// Every item is written whole: a lent slice still holds what its last
	// borrower left in it.
	lent, box := alloc(&items, n, lend)
	m := BatchQueryResponse{Items: lent}
	vals, _ := rasters.lend(n)
	unpack(vals, counts, data[start:])
	integrate(vals, nil)
	for i, v := range vals {
		m.Items[i] = BatchQueryItem{Value: v}
	}
	rasters.take(vals, nil)
	for off := failures; off < len(data); {
		i, status, text := int(binary.LittleEndian.Uint16(data[off:])), data[off+2], int(binary.LittleEndian.Uint16(data[off+3:]))
		off += failureHeader
		m.Items[i] = BatchQueryItem{Err: string(data[off : off+text])}
		if status > 1 {
			m.Items[i].Value = float64(status)
		}
		off += text
	}
	return inBox(box, m), nil
}
