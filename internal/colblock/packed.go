package colblock

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/tuple"
)

// A packed run is a batch of tuples kept in memory in the checkpoint's
// column encoding, in the order it was given: a version-4 block without
// the checksum (it is never read from a file).
//
//	count u32
//	4 columns (T, X, Y, S), each as in a version-4 block
//
// It is as lossless as a block — every float64 comes back bit for bit —
// and on a sensor fleet's stream it takes about 23 B a tuple instead of
// tuple.Raw's 32 (TestPackedBytesPerTupleLausanne). Every Log keeps its
// sealed chunks this way — a store window's in-memory tuples, a mirror's
// stream and a primary's by-value runs — and every wire frame that
// carries tuples carries them as one packed run.

// Pack appends tuples to dst as one packed run and returns the extended
// slice. It allocates only when dst must grow.
func Pack(dst []byte, tuples []tuple.Raw) []byte {
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	return e.pack(dst, tuples)
}

// PackExact returns prefix zero bytes followed by tuples as one packed
// run, in an array of exactly that size: the run is packed in the
// encoder's pooled scratch and copied in behind the prefix, so the array
// is the call's one allocation. A wire frame's fixed fields go in the
// prefix.
func PackExact(prefix int, tuples []tuple.Raw) []byte {
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	run := e.packScratch(tuples)
	out := make([]byte, prefix+len(run))
	copy(out[prefix:], run)
	return out
}

// packChunk packs tuples, the open chunk a Log seals, as one packed run
// into chunk memory (chunkBytes) and returns the run and how many of the
// tuples it holds. That is all of them, unless fit is set (the open chunk
// is full) and the allocator's size class would round their run up by more
// than 1/64 of it: then it is the longest prefix whose run fits the class
// below (fitClass), if any does. The tuples are packed once, in the
// encoder's scratch, and a prefix is cut from that run: each column's
// header and the first offsets, in the whole chunk's codings — a valid run
// that Unpack reads back bit for bit, though one packed alone (Pack) may
// code a column in fewer bits. So a prefix's size follows from the
// columns' widths before a byte of it is copied.
func packChunk(tuples []tuple.Raw, fit bool) ([]byte, int) {
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	run, n := e.packScratch(tuples), len(tuples)
	class := fitClass(len(run))
	if !fit || class == 0 {
		return append(chunkBytes(len(run)), run...), n
	}
	var cols [4]column
	p := run[4:]
	for i := range cols {
		cols[i], p, _ = cutColumn(p, n) // the encoder's own run
	}
	size := func(m int) int {
		return 4 + cols[0].prefixLen(m) + cols[1].prefixLen(m) + cols[2].prefixLen(m) + cols[3].prefixLen(m)
	}
	// The longest prefix whose run fits class (size grows with it).
	m := sort.Search(n, func(m int) bool { return size(m+1) > class })
	if m == 0 {
		return append(chunkBytes(len(run)), run...), n
	}
	out := appendU32(chunkBytes(size(m)), uint32(m))
	for _, col := range cols {
		out = col.appendPrefix(out, m)
	}
	return out, m
}

// prefixLen is the size of the column cut to its first m values: its
// 12-byte header and m offsets of col.width bits, padded to a byte.
func (col column) prefixLen(m int) int { return 12 + (m*int(col.width)+7)/8 }

// appendPrefix appends the column cut to its first m values: its header,
// then their offsets, the bits past the last one zeroed.
func (col column) appendPrefix(dst []byte, m int) []byte {
	dst = append(dst, encPacked, col.scale, byte(col.width), 0)
	dst = appendU64(dst, col.base)
	nbits := m * int(col.width)
	dst = append(dst, col.data[:(nbits+7)/8]...)
	if r := nbits % 8; r != 0 {
		dst[len(dst)-1] &= byte(1)<<r - 1
	}
	return dst
}

// packScratch packs tuples into the encoder's block. It makes room for the
// worst case up front: a fresh encoder (the pool's was collected) grows its
// block once, not by doubling.
func (e *encoder) packScratch(tuples []tuple.Raw) []byte {
	e.blk = e.pack(slices.Grow(e.blk[:0], MaxPackedLen(len(tuples))), tuples)
	return e.blk
}

// MaxPackedLen is the largest packed run of n tuples: the count, and
// four columns of a 12-byte header and at most 8 bytes a value, which a
// column of values with no common scale and no shared high bits takes —
// 52 + 32n bytes.
func MaxPackedLen(n int) int { return 4 + 4*(4+8) + 4*8*n }

func (e *encoder) pack(dst []byte, tuples []tuple.Raw) []byte {
	n := len(tuples)
	dst = appendU32(dst, uint32(n))
	if n == 0 {
		return dst
	}
	e.split(tuples)
	for _, col := range e.cols {
		dst = appendFloatColumn(dst, col, e.keys)
	}
	return dst
}

// Unpack decodes a packed run into dst, which must hold exactly the
// run's tuples, in the order they were packed, allocating nothing. It
// checks every column's framing, as a block read does.
func Unpack(dst []tuple.Raw, run []byte) error {
	sc := scratches.Get().(*scratch)
	defer scratches.Put(sc)
	return unpack(dst, run, &sc.cols, &sc.keys)
}

// unpack is Unpack in the given columns and keys, which it grows as it
// must.
func unpack(dst []tuple.Raw, run []byte, cols *[4][]float64, keys *[]uint64) error {
	if len(run) < 4 {
		return fmt.Errorf("%w: packed run shorter than its count", ErrCorrupt)
	}
	n := int(le32(run))
	if n != len(dst) {
		return fmt.Errorf("colblock: packed run holds %d tuples, destination %d", n, len(dst))
	}
	p := run[4:]
	if n == 0 {
		if len(p) != 0 {
			return fmt.Errorf("%w: %d bytes after an empty packed run", ErrCorrupt, len(p))
		}
		return nil
	}
	*keys = sized(*keys, n)
	for i := range cols {
		var col column
		var err error
		if col, p, err = cutColumn(p, n); err != nil {
			return err
		}
		cols[i] = sized(cols[i], n)
		col.floats(cols[i], *keys)
	}
	if len(p) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after a packed run's columns", ErrCorrupt, len(p))
	}
	ts, xs, ys, ss := cols[0], cols[1], cols[2], cols[3]
	for i := range dst {
		dst[i] = tuple.Raw{T: ts[i], X: xs[i], Y: ys[i], S: ss[i]}
	}
	return nil
}
