// A HeatmapResponse is the largest frame the system sends — a 64×64
// raster is 4 096 values — and a rasterized cover is smooth: neighbouring
// cells often hold the same value (one region's plane, or the clamp at the
// cover's range) or differ by a few units in the last places. So its
// values travel predictively coded, losslessly:
//
//	tag (29) | region (4 × f64) | cols u16 | rows u16 | t f64 |
//	counts: ⌈n/2⌉ bytes, cell i's count in the low nibble of byte i/2 when
//	        i is even, in the high nibble when it is odd (a padding nibble
//	        is 0) |
//	residuals: each cell's count of bytes, little-endian, in cell order
//
// Each cell's IEEE bits, read as a uint64, are predicted from the cells
// already decoded with wrapping integer arithmetic: left + below −
// below-left (rows run south first, so "below" is the row before); on the
// first row the left cell, on the first column the cell below, and 0 for
// the first cell. The difference, zigzagged so that small negative
// residuals are small too, travels in the fewest bytes that hold it: 0
// when the prediction is exact, at most 8. No float arithmetic touches a
// value, so NaN payloads, −0 and ±Inf come back bit for bit, and every
// GOARCH writes and reads the same bytes. A frame is at most
// RasterFrameBytes(n), 8.5 B a cell; a constant raster is 45 + ⌈n/2⌉
// bytes and its first cell's residual.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// rasterHeader is a HeatmapResponse's fixed part: tag, region, cols, rows
// and t.
const rasterHeader = 1 + 32 + 2 + 2 + 8

// RasterFrameBytes is the largest HeatmapResponse of n cells: its header,
// n count nibbles and eight residual bytes a cell.
func RasterFrameBytes(n int) int { return rasterHeader + (n+1)/2 + 8*n }

// A refused raster allocates nothing, not even its error: a peer cannot
// make a node allocate by claiming a grid its frame does not carry.
var (
	errRasterShort    = fmt.Errorf("%w: HeatmapResponse shorter than its grid", ErrMalformed)
	errRasterLength   = fmt.Errorf("%w: HeatmapResponse length disagrees with its counts", ErrMalformed)
	errRasterCount    = fmt.Errorf("%w: HeatmapResponse residual longer than 8 bytes", ErrMalformed)
	errRasterPadding  = fmt.Errorf("%w: HeatmapResponse padding nibble not zero", ErrMalformed)
	errRasterResidual = fmt.Errorf("%w: HeatmapResponse residual not minimal", ErrMalformed)
)

// predict is a cell's prediction from its left, below and below-left
// neighbours' bits, each 0 outside the raster. So the first row is
// predicted from the left, the first column from below, and the first
// cell is 0.
func predict(left, below, belowLeft uint64) uint64 { return left + below - belowLeft }

// cellBits is the bits of cell c of row, or 0 when there is no such row:
// the row below the first.
func cellBits(row []float64, c int) uint64 {
	if c < len(row) {
		return math.Float64bits(row[c])
	}
	return 0
}

// zigzag maps a wrapped difference to an unsigned residual whose size
// follows its magnitude: 0, −1, 1, −2, … become 0, 1, 2, 3, …
func zigzag(d uint64) uint64 { return d<<1 ^ uint64(int64(d)>>63) }

func unzigzag(z uint64) uint64 { return z>>1 ^ -(z & 1) }

// residualMask keeps the k low bytes of a word, for every count a nibble
// holds (a checked frame's are at most 8).
var residualMask = [16]uint64{0, 1<<8 - 1, 1<<16 - 1, 1<<24 - 1, 1<<32 - 1, 1<<40 - 1, 1<<48 - 1, 1<<56 - 1, 1<<64 - 1}

// residualBytes is the fewest bytes that hold z.
func residualBytes(z uint64) int { return (bits.Len64(z) + 7) >> 3 }

// rasterRows is the number of rows of a raster cols wide; none when it has no
// columns.
func rasterRows(v []float64, cols int) int {
	if cols == 0 {
		return 0
	}
	return len(v) / cols
}

// rowAt is row r of a raster cols wide, or nil for the row below the first.
func rowAt(v []float64, cols, r int) []float64 {
	if r < 0 {
		return nil
	}
	return v[r*cols : (r+1)*cols]
}

// The row loops below are leaf functions of their own, so that a cell's
// neighbours stay in registers.

// rowBytes is the residual bytes of row, below the row before it (nil
// for the first row).
func rowBytes(row, below []float64) int {
	size := 0
	var left, belowLeft uint64
	for c, x := range row {
		b, bl := math.Float64bits(x), cellBits(below, c)
		size += residualBytes(zigzag(b - predict(left, bl, belowLeft)))
		left, belowLeft = b, bl
	}
	return size
}

// putRow writes the count nibbles of row, whose first cell is cell i,
// into counts and its residuals into residuals at off, and returns the
// offset past them.
func putRow(counts, residuals []byte, i, off int, row, below []float64) int {
	var left, belowLeft uint64
	for c, x := range row {
		b, bl := math.Float64bits(x), cellBits(below, c)
		z := zigzag(b - predict(left, bl, belowLeft))
		left, belowLeft = b, bl
		k := residualBytes(z)
		counts[(i+c)>>1] |= byte(k) << (uint(i+c) & 1 << 2)
		if off+8 <= len(residuals) {
			// The bytes past the k-th are zero, and the next cells write
			// over them.
			binary.LittleEndian.PutUint64(residuals[off:], z)
		} else {
			for j := range k {
				residuals[off+j] = byte(z >> (8 * j))
			}
		}
		off += k
	}
	return off
}

// unpack stores the residual of every cell of v, unzigzagged, as v's
// bits, from counts and residuals. The frame has been checked: every
// count fits.
func unpack(v []float64, counts, residuals []byte) {
	off := 0
	for i := range v {
		k := int(counts[i>>1]>>(uint(i)&1<<2)) & 0xF
		var z uint64
		if off+8 <= len(residuals) {
			z = binary.LittleEndian.Uint64(residuals[off:]) & residualMask[k]
		} else {
			for j := range k {
				z |= uint64(residuals[off+j]) << (8 * j)
			}
		}
		v[i] = math.Float64frombits(unzigzag(z))
		off += k
	}
}

// integrate adds to each cell of row, which holds its residual, its
// prediction from the cells before it: below is the row before, already
// integrated (nil for the first row).
func integrate(row, below []float64) {
	var left, belowLeft uint64
	for c, x := range row {
		bl := cellBits(below, c)
		left = predict(left, bl, belowLeft) + math.Float64bits(x)
		row[c] = math.Float64frombits(left)
		belowLeft = bl
	}
}

func appendHeatmapResponse(dst []byte, head int, v HeatmapResponse) ([]byte, error) {
	n, cols := len(v.Values), int(v.Cols)
	if cols*int(v.Rows) != n {
		return dst, fmt.Errorf("wire: heatmap %dx%d carries %d values", v.Cols, v.Rows, n)
	}
	// The first pass sizes the frame, so dst grows once; the second writes it.
	size := rasterHeader + (n+1)/2
	for r := range rasterRows(v.Values, cols) {
		size += rowBytes(rowAt(v.Values, cols, r), rowAt(v.Values, cols, r-1))
	}
	out, buf := grow(dst, head, size)
	buf[0] = byte(TypeHeatmapResponse)
	putRect(buf[1:], v.Region)
	binary.LittleEndian.PutUint16(buf[33:], v.Cols)
	binary.LittleEndian.PutUint16(buf[35:], v.Rows)
	putF64(buf[37:], v.T)
	counts := buf[rasterHeader : rasterHeader+(n+1)/2]
	residuals := buf[rasterHeader+(n+1)/2:]
	off := 0
	for r := range rasterRows(v.Values, cols) {
		off = putRow(counts, residuals, r*cols, off, rowAt(v.Values, cols, r), rowAt(v.Values, cols, r-1))
	}
	return out, nil
}

// decodeHeatmapResponse checks the whole frame — that it is long enough
// for its grid's counts, that every count is at most 8 and every residual
// minimal, that a padding nibble is 0 and that the residuals end where
// the frame does — before it allocates the values, and then decodes
// straight into them. So every frame it accepts is the one its message
// encodes to.
func decodeHeatmapResponse(data []byte, lend bool) (Message, error) {
	if len(data) < rasterHeader {
		return nil, fmt.Errorf("%w: HeatmapResponse header", ErrMalformed)
	}
	m := HeatmapResponse{
		Region: getRect(data[1:]),
		Cols:   binary.LittleEndian.Uint16(data[33:]),
		Rows:   binary.LittleEndian.Uint16(data[35:]),
		T:      getF64(data[37:]),
	}
	n, cols := int(m.Cols)*int(m.Rows), int(m.Cols)
	if len(data) < rasterHeader+(n+1)/2 {
		return nil, errRasterShort
	}
	counts, residuals := data[rasterHeader:rasterHeader+(n+1)/2], data[rasterHeader+(n+1)/2:]
	// A residual is minimal when its last byte is not 0. A count of 0 has
	// no byte: its check reads the byte before (the previous residual's
	// last, or a count) and ORs in 1.
	last := len(data) - len(residuals) - 1 // the byte before the next residual
	for i := range n {
		k := int(counts[i>>1]>>(uint(i)&1<<2)) & 0xF
		switch {
		case k > 8:
			return nil, errRasterCount
		case last+k >= len(data):
			return nil, errRasterLength
		case data[last+k]|byte((8-k)>>3) == 0:
			return nil, errRasterResidual
		}
		last += k
	}
	if n&1 == 1 && counts[n>>1]>>4 != 0 {
		return nil, errRasterPadding
	}
	if last != len(data)-1 {
		return nil, errRasterLength
	}
	// Every value is written: a lent raster still holds what its last
	// borrower left in it.
	m.Values = alloc(&rasters, n, lend)
	unpack(m.Values, counts, residuals)
	for r := range rasterRows(m.Values, cols) {
		integrate(rowAt(m.Values, cols, r), rowAt(m.Values, cols, r-1))
	}
	return m, nil
}
