// A HeatmapResponse is the largest frame the system sends — a 64×64
// raster is 4 096 values — and a rasterized cover is smooth: neighbouring
// cells often hold the same value (one region's plane, or the clamp at the
// cover's range) or differ by a few units in the last places. So its
// values travel as one block of the residual coder (residual.go), its
// rows in order, south first, each predicted from the row below it:
//
//	tag (29) | region (4 × f64) | cols u16 | rows u16 | t f64 |
//	counts: ⌈n/2⌉ bytes | residuals
//
// A cell is predicted by left + below − below-left; on the first row by
// the cell to its left, on the first column by the cell below, and the
// first cell by 0. A frame is at most RasterFrameBytes(n), 8.5 B a cell; a
// constant raster is 45 + ⌈n/2⌉ bytes and its first cell's residual.
package wire

import (
	"encoding/binary"
	"fmt"
)

// rasterHeader is a HeatmapResponse's fixed part: tag, region, cols, rows
// and t.
const rasterHeader = 1 + 32 + 2 + 2 + 8

// RasterFrameBytes is the largest HeatmapResponse of n cells: its header,
// n count nibbles and eight residual bytes a cell.
func RasterFrameBytes(n int) int { return rasterHeader + countBytes(n) + 8*n }

// A refused raster allocates nothing, not even its error.
var (
	errRasterShort  = fmt.Errorf("%w: HeatmapResponse shorter than its grid", ErrMalformed)
	errRasterLength = fmt.Errorf("%w: HeatmapResponse length disagrees with its counts", ErrMalformed)
)

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

func appendHeatmapResponse(dst []byte, head int, v HeatmapResponse) ([]byte, error) {
	n, cols := len(v.Values), int(v.Cols)
	if cols*int(v.Rows) != n {
		return dst, fmt.Errorf("wire: heatmap %dx%d carries %d values", v.Cols, v.Rows, n)
	}
	// The first pass sizes the frame, so dst grows once; the second writes it.
	size := rasterHeader + countBytes(n)
	for r := range rasterRows(v.Values, cols) {
		size += rowBytes(rowAt(v.Values, cols, r), rowAt(v.Values, cols, r-1))
	}
	out, buf := grow(dst, head, size)
	buf[0] = byte(TypeHeatmapResponse)
	putRect(buf[1:], v.Region)
	binary.LittleEndian.PutUint16(buf[33:], v.Cols)
	binary.LittleEndian.PutUint16(buf[35:], v.Rows)
	putF64(buf[37:], v.T)
	counts := buf[rasterHeader : rasterHeader+countBytes(n)]
	residuals := buf[rasterHeader+len(counts):]
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
	// The cells are counted in 64 bits (65 535 × 65 535 overflow a 32-bit
	// int), and refused unless the frame holds their count nibbles.
	cells := uint64(m.Cols) * uint64(m.Rows)
	if cells > 2*uint64(len(data)-rasterHeader) {
		return nil, errRasterShort
	}
	n, cols := int(cells), int(m.Cols)
	counts := data[rasterHeader : rasterHeader+countBytes(n)]
	end, err := checkResiduals(data, counts, 0, n, rasterHeader+len(counts))
	if err != nil {
		return nil, err
	}
	if err := checkPadding(counts, n); err != nil {
		return nil, err
	}
	if end != len(data) {
		return nil, errRasterLength
	}
	// Every value is written: a lent raster still holds what its last
	// borrower left in it.
	m.Values, _ = alloc(&rasters, n, lend)
	unpack(m.Values, counts, data[rasterHeader+len(counts):])
	for r := range rasterRows(m.Values, cols) {
		integrate(rowAt(m.Values, cols, r), rowAt(m.Values, cols, r-1))
	}
	return m, nil
}
