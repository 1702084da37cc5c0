// The residual coder: how the bulk of the two frames the system sends
// most — a heatmap raster (raster.go) and a route batch, its points and
// its answers (batch.go) — crosses the wire losslessly.
//
// The values are laid out as rows. Each value's IEEE bits, read as a
// uint64, are predicted from the values already coded with wrapping
// integer arithmetic: left + below − below-left, where a neighbour
// outside the rows counts 0. So a row with no row below it (every column
// of a batch) is predicted from the left alone, and its first value from
// 0. The difference, zigzagged so that small negative residuals are small
// too, travels in the fewest bytes that hold it: 0 when the prediction is
// exact, at most 8. A coded block is
//
//	counts: ⌈n/2⌉ bytes, value i's count in the low nibble of byte i/2
//	        when i is even, in the high nibble when it is odd (a padding
//	        nibble is 0) |
//	residuals: each value's count of bytes, little-endian, in value order
//
// No float arithmetic touches a value, so NaN payloads, −0 and ±Inf come
// back bit for bit, and every GOARCH writes and reads the same bytes. A
// decoder checks a block with checkResiduals before it allocates
// anything, so that every block it accepts is the one its values encode
// to.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// A refused block allocates nothing, not even its error: a peer cannot
// make a node allocate by claiming values its frame does not carry.
var (
	errResidualCount   = fmt.Errorf("%w: coded value's residual longer than 8 bytes", ErrMalformed)
	errResidualMinimal = fmt.Errorf("%w: coded value's residual not minimal", ErrMalformed)
	errResidualCut     = fmt.Errorf("%w: coded values run past the frame", ErrMalformed)
	errPadding         = fmt.Errorf("%w: padding nibble not zero", ErrMalformed)
)

// countBytes is the size of the count nibbles of n values.
func countBytes(n int) int { return (n + 1) / 2 }

// count is the count nibble of value i.
func count(counts []byte, i int) int { return int(counts[i>>1]>>(uint(i)&1<<2)) & 0xF }

// predict is a value's prediction from its left, below and below-left
// neighbours' bits, each 0 outside the rows. So the first row is
// predicted from the left, the first column from below, and the first
// value is 0.
func predict(left, below, belowLeft uint64) uint64 { return left + below - belowLeft }

// cellBits is the bits of value c of row, or 0 when there is no such row:
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
// holds (a checked block's are at most 8).
var residualMask = [16]uint64{0, 1<<8 - 1, 1<<16 - 1, 1<<24 - 1, 1<<32 - 1, 1<<40 - 1, 1<<48 - 1, 1<<56 - 1, 1<<64 - 1}

// residualBytes is the fewest bytes that hold z.
func residualBytes(z uint64) int { return (bits.Len64(z) + 7) >> 3 }

// residualAt is the k-byte residual at b[off:].
func residualAt(b []byte, off, k int) uint64 {
	if off+8 <= len(b) {
		return binary.LittleEndian.Uint64(b[off:]) & residualMask[k]
	}
	var z uint64
	for j := range k {
		z |= uint64(b[off+j]) << (8 * j)
	}
	return z
}

// The row loops below are leaf functions of their own, so that a value's
// neighbours stay in registers.

// rowBytes is the residual bytes of row, below the row before it (nil
// for the first row, and for a row that has none).
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

// putRow writes the count nibbles of row, whose first value is value i,
// into counts and its residuals into residuals at off, and returns the
// offset past them. counts must hold zeros where the row's nibbles go.
func putRow(counts, residuals []byte, i, off int, row, below []float64) int {
	var left, belowLeft uint64
	for c, x := range row {
		b, bl := math.Float64bits(x), cellBits(below, c)
		z := zigzag(b - predict(left, bl, belowLeft))
		left, belowLeft = b, bl
		k := residualBytes(z)
		counts[(i+c)>>1] |= byte(k) << (uint(i+c) & 1 << 2)
		if off+8 <= len(residuals) {
			// The bytes past the k-th are zero, and the next values write
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

// unpack stores the residual of every value of v, unzigzagged, as v's
// bits, from counts and residuals. The block has been checked: every
// count fits.
func unpack(v []float64, counts, residuals []byte) {
	off := 0
	for i := range v {
		k := count(counts, i)
		v[i] = math.Float64frombits(unzigzag(residualAt(residuals, off, k)))
		off += k
	}
}

// integrate adds to each value of row, which holds its residual, its
// prediction from the values before it: below is the row before, already
// integrated (nil for the first row, and for a row that has none).
func integrate(row, below []float64) {
	var left, belowLeft uint64
	for c, x := range row {
		bl := cellBits(below, c)
		left = predict(left, bl, belowLeft) + math.Float64bits(x)
		row[c] = math.Float64frombits(left)
		belowLeft = bl
	}
}

// checkResiduals checks the residuals of n values, values i to i+n−1 of
// counts, that begin at data[off] (off > 0: a block follows a header):
// that every count is at most 8, every residual minimal and inside data.
// It returns the offset past the last residual.
func checkResiduals(data, counts []byte, i, n, off int) (int, error) {
	// A residual is minimal when its last byte is not 0. A count of 0 has
	// no byte: its check reads the byte before (the previous residual's
	// last, or the header's) and ORs in 1.
	last := off - 1 // the byte before the next residual
	for j := i; j < i+n; j++ {
		k := count(counts, j)
		switch {
		case k > 8:
			return 0, errResidualCount
		case last+k >= len(data):
			return 0, errResidualCut
		case data[last+k]|byte((8-k)>>3) == 0:
			return 0, errResidualMinimal
		}
		last += k
	}
	return last + 1, nil
}

// checkPadding checks that the nibble after the last of n values' counts,
// when it shares their last byte, is 0.
func checkPadding(counts []byte, n int) error {
	if n&1 == 1 && counts[n>>1]>>4 != 0 {
		return errPadding
	}
	return nil
}
