// Package colblock implements the store's checkpoint file format: the
// retained windows, each re-sorted by (geo-cell, time) and encoded as
// per-column fixed-point arrays in self-checksummed blocks, with per-block
// min/max zone maps in a checksummed footer that also carries what
// recovery needs beside the tuples — the checkpoint's sequence number,
// its segment horizon and the store's largest timestamp.
//
// Every column is encoded losslessly (fixed-point only when the exact
// float64 round-trips bit-for-bit, raw IEEE bits otherwise) and each tuple
// carries its original append position, so a materialized window is
// byte-identical to the slice the store held in memory when it wrote the
// file — which is what lets a restarted store answer exactly as the
// running one did.
//
// # File layout
//
//	header   (8 B)   colMagic u32 | colVersion u32
//	blocks   (...)   self-checksummed column blocks, ≤ BlockTuples each
//	directory(n×96 B) per-block window, offset, length, count, zone maps
//	trailer  (48 B)  seq u64 | tuples u64 | horizon u64 | maxTime f64 |
//	                 nblocks u32 | version u32 |
//	                 crc u32 (over directory ++ trailer[:40]) | footMagic u32
//
// The footer (directory + trailer) is read from the file end, so a reader
// learns every block's location and zone map from one bounded read before
// touching any tuple data. Version 1 files (a 32-byte trailer without
// horizon and maxTime) were sidecars beside a row checkpoint and cannot
// stand alone; the reader rejects them by version.
//
// # Block layout
//
//	count u32
//	5 columns (T, X, Y, S, seq), each:
//	  enc u8 | scaleExp u8 | width u8 | reserved u8
//	  fixed-point: base i64, then count × width LE offsets from base
//	  raw:         count × 8 B IEEE-754 bits
//	crc u32 (IEEE, over everything above)
//
// Fixed-point stores round(v·10^scaleExp) − base; the encoder only picks
// a scale when decoding reproduces the input bits exactly, so decode is
// base+offset, one divide, no drift.
package colblock

import (
	"cmp"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sync"

	"repro/internal/tuple"
)

// Format constants. colMagic/colVersion open the file, footMagic seals
// the trailer; envirometer-vet's colfmt analyzer enforces that each is
// exercised by both the encode and the decode path and covered by the
// FuzzColBlockDecode harness.
const (
	colMagic   = 0x454d434c // "EMCL"
	footMagic  = 0x454d4346 // "EMCF"
	colVersion = 2
)

const (
	headerSize   = 8
	trailerSize  = 48
	trailerCRC   = 40 // trailer bytes the footer checksum covers
	dirEntrySize = 96

	// BlockTuples is the most tuples one block holds: large enough to
	// amortize per-block overhead, small enough that zone maps prune
	// meaningful fractions of a window.
	BlockTuples = 2048

	// maxBlockTuples bounds the per-block allocation a decoder will make
	// from an untrusted count field.
	maxBlockTuples = 1 << 20

	// cellSize is the geo-cell edge, in the store's local metric frame
	// (meters), used for the within-window (cell, time) sort. Spatially
	// close tuples land in the same blocks, which is what makes the
	// per-block X/Y zone maps selective for region scans.
	cellSize = 250.0
)

// Column encodings.
const (
	encRaw   = 0 // count × 8 B IEEE-754 float64 bits
	encFixed = 1 // base i64 + count × width LE unsigned offsets
)

// maxFixed bounds the scaled magnitude accepted by the fixed-point
// encoder, keeping the float64→int64 conversion in defined range.
const maxFixed = float64(1 << 62)

// pow10 holds the exactly-representable powers of ten tried as
// fixed-point scales, index = exponent.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// ErrCorrupt reports a structurally invalid or checksum-failing file.
var ErrCorrupt = errors.New("colblock: corrupt file")

// Meta is what a checkpoint records beside its windows.
type Meta struct {
	// Seq is the checkpoint's sequence number.
	Seq int
	// Horizon is the newest segment the checkpoint fully covers.
	Horizon int
	// MaxTime is the store's largest timestamp ever appended; it can
	// exceed every tuple in the file when the tuple that set it has been
	// evicted.
	MaxTime float64
}

// WindowData is one window's tuples in their original append order, as
// the store holds them: in memory (Tuples), or — when Base is set — as
// window Window of an earlier checkpoint followed by the Tuples appended
// since.
type WindowData struct {
	Window int
	Tuples tuple.Batch
	// Base, when not nil, is the reader the window's first
	// Base.WindowCount(Window) tuples come from. With no Tuples behind them
	// the window's blocks are copied as they are, each one's checksum and
	// count checked, not decoded and encoded again: the same tuples in the
	// same order encode to the same bytes.
	Base *Reader
}

// EncodeStats reports what Encode wrote.
type EncodeStats struct {
	Blocks int
	Tuples int
	Bytes  int64
}

// Encode writes the checkpoint file for the given windows to w. The
// caller owns durability (temp+fsync+rename); Encode only streams bytes.
// It reads the windows (and the readers they name, which must stay open
// until it returns) and keeps no reference to them.
func Encode(w io.Writer, meta Meta, windows []WindowData) (EncodeStats, error) {
	return encode(w, meta, windows, BlockTuples)
}

// encoder is Encode's scratch: the window order, one window put together
// from its base and what followed, one window's sort keys, one block's
// five columns, the fixed-point integers of the column being written, the
// block under construction (or being carried over) and the directory. A
// checkpoint of n tuples allocated ≈ 164 n bytes without it.
type encoder struct {
	windows        []WindowData
	merged         tuple.Batch
	order          []sortKey
	ts, xs, ys, ss []float64
	seqs, ints     []int64
	blk, dir       []byte
}

// encoders lends scratch to concurrent Encode calls (one store per
// pollutant checkpoints on its own) and lets the collector take it back
// between checkpoints, so an idle server does not hold it.
var encoders = sync.Pool{New: func() any { return new(encoder) }}

func encode(w io.Writer, meta Meta, windows []WindowData, blockTuples int) (EncodeStats, error) {
	e := encoders.Get().(*encoder)
	defer func() {
		clear(e.windows) // drop the references to the caller's windows
		encoders.Put(e)
	}()
	e.windows = append(e.windows[:0], windows...)
	slices.SortFunc(e.windows, func(a, b WindowData) int { return cmp.Compare(a.Window, b.Window) })

	var hdr [headerSize]byte
	putU32(hdr[0:], colMagic)
	putU32(hdr[4:], colVersion)
	if _, err := w.Write(hdr[:]); err != nil {
		return EncodeStats{}, err
	}

	var st EncodeStats
	e.dir = e.dir[:0]
	off := int64(headerSize)
	// put writes one finished block and its directory entry.
	put := func(bm BlockMeta, blk []byte) error {
		bm.Offset = off
		if _, err := w.Write(blk); err != nil {
			return err
		}
		off += bm.Length
		e.dir = appendDirEntry(e.dir, bm)
		st.Blocks++
		st.Tuples += bm.Count
		return nil
	}
	for _, wd := range e.windows {
		tuples := wd.Tuples
		switch {
		case wd.Base != nil && len(wd.Tuples) == 0:
			for _, bm := range wd.Base.windowBlocks(wd.Window) {
				blk, err := wd.Base.blockBytes(&e.blk, bm)
				if err == nil {
					_, err = blockBody(blk, bm.Count)
				}
				if err != nil {
					return EncodeStats{}, fmt.Errorf("carry window %d over: %w", wd.Window, err)
				}
				if err := put(bm, blk); err != nil {
					return EncodeStats{}, err
				}
			}
			continue
		case wd.Base != nil:
			n := wd.Base.WindowCount(wd.Window)
			e.merged = sized(e.merged, n+len(wd.Tuples))
			if err := wd.Base.DecodeWindow(e.merged[:n], wd.Window); err != nil {
				return EncodeStats{}, err
			}
			copy(e.merged[n:], wd.Tuples)
			tuples = e.merged
		}
		n := len(tuples)
		e.cellTimeOrder(tuples)
		for lo := 0; lo < n; lo += blockTuples {
			bm := e.encodeBlock(tuples, e.order[lo:min(lo+blockTuples, n)])
			bm.Window = wd.Window
			bm.Length = int64(len(e.blk))
			if err := put(bm, e.blk); err != nil {
				return EncodeStats{}, err
			}
		}
	}

	var trailer [trailerSize]byte
	putU64(trailer[0:], uint64(int64(meta.Seq)))
	putU64(trailer[8:], uint64(int64(st.Tuples)))
	putU64(trailer[16:], uint64(int64(meta.Horizon)))
	putU64(trailer[24:], math.Float64bits(meta.MaxTime))
	putU32(trailer[32:], uint32(st.Blocks))
	putU32(trailer[36:], colVersion)
	putU32(trailer[40:], footerCRC(e.dir, trailer[:]))
	putU32(trailer[44:], footMagic)
	if _, err := w.Write(e.dir); err != nil {
		return EncodeStats{}, err
	}
	if _, err := w.Write(trailer[:]); err != nil {
		return EncodeStats{}, err
	}
	st.Bytes = off + int64(len(e.dir)) + trailerSize
	return st, nil
}

// sized returns s with length n, reallocating only when it must grow.
func sized[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// sortKey is one tuple's place in a window's block order: geo-cell row
// and column, time, then original position. The trailing position makes
// the order total, so it does not depend on the sort algorithm, and keeps
// same-cell same-time tuples in append order.
type sortKey struct {
	cy, cx int64
	t      float64
	pos    int
}

// cellTimeOrder leaves in e.order the keys of b's tuples in block order.
// Sorting the keys themselves, not indexes into b, keeps every comparison
// inside the two elements compared.
func (e *encoder) cellTimeOrder(b tuple.Batch) {
	e.order = sized(e.order, len(b))
	for i, r := range b {
		e.order[i] = sortKey{cy: cellOf(r.Y), cx: cellOf(r.X), t: r.T, pos: i}
	}
	slices.SortFunc(e.order, func(p, q sortKey) int {
		switch {
		case p.cy != q.cy:
			return cmp.Compare(p.cy, q.cy)
		case p.cx != q.cx:
			return cmp.Compare(p.cx, q.cx)
		case p.t < q.t:
			return -1
		case p.t > q.t:
			return 1
		}
		return cmp.Compare(p.pos, q.pos)
	})
}

func cellOf(v float64) int64 { return int64(math.Floor(v / cellSize)) }

// encodeBlock encodes the tuples b[idx[0].pos], b[idx[1].pos], ... as one
// self-checksummed block in e.blk and returns its zone-map meta.
func (e *encoder) encodeBlock(b tuple.Batch, idx []sortKey) BlockMeta {
	n := len(idx)
	e.ts, e.xs, e.ys, e.ss = sized(e.ts, n), sized(e.xs, n), sized(e.ys, n), sized(e.ss, n)
	e.seqs, e.ints = sized(e.seqs, n), sized(e.ints, n)
	for i, k := range idx {
		r := b[k.pos]
		e.ts[i], e.xs[i], e.ys[i], e.ss[i] = r.T, r.X, r.Y, r.S
		e.seqs[i] = int64(k.pos)
	}
	meta := BlockMeta{Count: n}
	meta.MinT, meta.MaxT = minMax(e.ts)
	meta.MinX, meta.MaxX = minMax(e.xs)
	meta.MinY, meta.MaxY = minMax(e.ys)
	meta.MinS, meta.MaxS = minMax(e.ss)

	buf := append(e.blk[:0], 0, 0, 0, 0)
	putU32(buf, uint32(n))
	for _, col := range [...][]float64{e.ts, e.xs, e.ys, e.ss} {
		buf = appendFloatColumn(buf, col, e.ints)
	}
	buf = appendIntColumn(buf, e.seqs, 0)
	e.blk = appendU32(buf, crc32.ChecksumIEEE(buf))
	return meta
}

func minMax(vals []float64) (lo, hi float64) {
	lo, hi = vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// appendFloatColumn encodes vals as fixed-point when every value
// round-trips bit-exactly at some power-of-ten scale, and as raw IEEE
// bits otherwise. ints is scratch of len(vals).
func appendFloatColumn(dst []byte, vals []float64, ints []int64) []byte {
	if scale, ok := fixedPoint(vals, ints); ok {
		return appendIntColumn(dst, ints, scale)
	}
	dst = append(dst, encRaw, 0, 8, 0)
	for _, v := range vals {
		dst = appendU64(dst, math.Float64bits(v))
	}
	return dst
}

// fixedPoint tries ascending scales and fills ints with the scaled
// integers of the first scale at which every value decodes back to its
// exact bits. The ascending order also yields the narrowest offsets,
// since the value span grows with the scale.
func fixedPoint(vals []float64, ints []int64) (scale byte, ok bool) {
nextScale:
	for e := range pow10 {
		p := pow10[e]
		for i, v := range vals {
			r := math.Round(v * p)
			if !(r >= -maxFixed && r <= maxFixed) {
				continue nextScale
			}
			iv := int64(r)
			if math.Float64bits(float64(iv)/p) != math.Float64bits(v) {
				continue nextScale
			}
			ints[i] = iv
		}
		return byte(e), true
	}
	return 0, false
}

// appendIntColumn encodes ints as base + narrow unsigned offsets.
func appendIntColumn(dst []byte, ints []int64, scale byte) []byte {
	base, maxv := ints[0], ints[0]
	for _, v := range ints[1:] {
		if v < base {
			base = v
		}
		if v > maxv {
			maxv = v
		}
	}
	span := uint64(maxv) - uint64(base)
	var width byte
	switch {
	case span <= 0xff:
		width = 1
	case span <= 0xffff:
		width = 2
	case span <= 0xffffffff:
		width = 4
	default:
		width = 8
	}
	dst = append(dst, encFixed, scale, width, 0)
	dst = appendU64(dst, uint64(base))
	for _, v := range ints {
		u := uint64(v) - uint64(base)
		for b := 0; b < int(width); b++ {
			dst = append(dst, byte(u>>(8*b)))
		}
	}
	return dst
}

// BlockMeta is one directory entry: where a block lives and what its
// zone maps promise about the tuples inside.
type BlockMeta struct {
	Window int
	Offset int64
	Length int64
	Count  int

	MinT, MaxT float64
	MinX, MaxX float64
	MinY, MaxY float64
	MinS, MaxS float64
}

func appendDirEntry(dst []byte, m BlockMeta) []byte {
	var e [dirEntrySize]byte
	putU64(e[0:], uint64(int64(m.Window)))
	putU64(e[8:], uint64(m.Offset))
	putU64(e[16:], uint64(m.Length))
	putU32(e[24:], uint32(m.Count))
	for i, v := range [...]float64{m.MinT, m.MaxT, m.MinX, m.MaxX, m.MinY, m.MaxY, m.MinS, m.MaxS} {
		putU64(e[32+8*i:], math.Float64bits(v))
	}
	return append(dst, e[:]...)
}

func decodeDirEntry(e []byte) BlockMeta {
	var m BlockMeta
	m.Window = int(int64(le64(e[0:])))
	m.Offset = int64(le64(e[8:]))
	m.Length = int64(le64(e[16:]))
	m.Count = int(le32(e[24:]))
	f := func(i int) float64 { return math.Float64frombits(le64(e[32+8*i:])) }
	m.MinT, m.MaxT = f(0), f(1)
	m.MinX, m.MaxX = f(2), f(3)
	m.MinY, m.MaxY = f(4), f(5)
	m.MinS, m.MaxS = f(6), f(7)
	return m
}

// blockBody checks one block's framing — length, checksum, and the count
// field against the directory entry — and returns the bytes between the
// count and the checksum: the columns.
func blockBody(data []byte, count int) ([]byte, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("%w: block shorter than framing", ErrCorrupt)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != le32(tail) {
		return nil, fmt.Errorf("%w: block checksum mismatch", ErrCorrupt)
	}
	if n := int(le32(body[0:4])); n != count || n <= 0 || n > maxBlockTuples {
		return nil, fmt.Errorf("%w: block count %d does not match directory %d", ErrCorrupt, n, count)
	}
	return body[4:], nil
}

// decodeBlock parses one block's bytes (header through CRC) and returns
// its columns. count cross-checks the directory entry.
func decodeBlock(data []byte, count int) (ts, xs, ys, ss []float64, seqs []int64, err error) {
	p, err := blockBody(data, count)
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	cols := make([][]float64, 4)
	for i := range cols {
		cols[i], p, err = decodeFloatColumn(p, count)
		if err != nil {
			return nil, nil, nil, nil, nil, err
		}
	}
	seqs, p, err = decodeSeqColumn(p, count)
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	if len(p) != 0 {
		return nil, nil, nil, nil, nil, fmt.Errorf("%w: %d trailing bytes after columns", ErrCorrupt, len(p))
	}
	return cols[0], cols[1], cols[2], cols[3], seqs, nil
}

// column is one column of a block, located but not decoded.
type column struct {
	enc, scale, width byte
	base              uint64 // fixed-point only
	data              []byte // n × width offsets, or n × 8 B IEEE bits
}

// cutColumn locates the column of n values that p starts with and returns
// what follows it.
func cutColumn(p []byte, n int) (column, []byte, error) {
	enc, scale, width, p, err := columnHeader(p)
	if err != nil {
		return column{}, nil, err
	}
	col := column{enc: enc, scale: scale, width: width}
	switch enc {
	case encRaw:
		col.width = 8
	case encFixed:
		if len(p) < 8 {
			return column{}, nil, fmt.Errorf("%w: fixed column truncated", ErrCorrupt)
		}
		col.base, p = le64(p), p[8:]
	default:
		return column{}, nil, fmt.Errorf("%w: unknown column encoding %d", ErrCorrupt, enc)
	}
	size := n * int(col.width)
	if len(p) < size {
		return column{}, nil, fmt.Errorf("%w: column truncated", ErrCorrupt)
	}
	col.data = p[:size]
	return col, p[size:], nil
}

// ints calls fn with each of a fixed-point column's integers, in order.
func (col column) ints(fn func(i int, v int64)) {
	p, base := col.data, col.base
	switch col.width {
	case 1:
		for i, b := range p {
			fn(i, int64(base+uint64(b)))
		}
	case 2:
		for i := 0; 2*i < len(p); i++ {
			fn(i, int64(base+(uint64(p[2*i])|uint64(p[2*i+1])<<8)))
		}
	case 4:
		for i := 0; 4*i < len(p); i++ {
			fn(i, int64(base+uint64(le32(p[4*i:]))))
		}
	default:
		for i := 0; 8*i < len(p); i++ {
			fn(i, int64(base+le64(p[8*i:])))
		}
	}
}

// floats decodes a float column into vals, one per value.
func (col column) floats(vals []float64) error {
	if col.enc == encRaw {
		for i := range vals {
			vals[i] = math.Float64frombits(le64(col.data[8*i:]))
		}
		return nil
	}
	if int(col.scale) >= len(pow10) {
		return fmt.Errorf("%w: fixed-point scale %d out of range", ErrCorrupt, col.scale)
	}
	d := pow10[col.scale]
	col.ints(func(i int, v int64) { vals[i] = float64(v) / d })
	return nil
}

// decodeBlockInto decodes one block (data: header through CRC, count
// cross-checks the directory entry) into the places of dst its seq column
// names, marking them in sc.seen; a place outside dst or named twice is
// corruption.
func (sc *scratch) decodeBlockInto(dst tuple.Batch, data []byte, count int) error {
	p, err := blockBody(data, count)
	if err != nil {
		return err
	}
	var cols [5]column
	for i := range cols {
		if cols[i], p, err = cutColumn(p, count); err != nil {
			return err
		}
	}
	if len(p) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after columns", ErrCorrupt, len(p))
	}
	seq := cols[4]
	if seq.enc != encFixed || seq.scale != 0 {
		return fmt.Errorf("%w: seq column must be integer-encoded", ErrCorrupt)
	}
	sc.pos, sc.vals = sized(sc.pos, count), sized(sc.vals, count)
	valid := true
	seq.ints(func(i int, sq int64) {
		if sq < 0 || sq >= int64(len(dst)) || sc.seen[sq] {
			valid = false
			return
		}
		sc.seen[sq] = true
		sc.pos[i] = int(sq)
	})
	if !valid {
		return fmt.Errorf("%w: a seq is out of range or repeated", ErrCorrupt)
	}
	for k, col := range cols[:4] {
		if err := col.floats(sc.vals); err != nil {
			return err
		}
		switch k {
		case 0:
			for i, at := range sc.pos {
				dst[at].T = sc.vals[i]
			}
		case 1:
			for i, at := range sc.pos {
				dst[at].X = sc.vals[i]
			}
		case 2:
			for i, at := range sc.pos {
				dst[at].Y = sc.vals[i]
			}
		default:
			for i, at := range sc.pos {
				dst[at].S = sc.vals[i]
			}
		}
	}
	return nil
}

func decodeFloatColumn(p []byte, n int) ([]float64, []byte, error) {
	enc, scale, width, p, err := columnHeader(p)
	if err != nil {
		return nil, nil, err
	}
	vals := make([]float64, n)
	switch enc {
	case encRaw:
		if len(p) < 8*n {
			return nil, nil, fmt.Errorf("%w: raw column truncated", ErrCorrupt)
		}
		for i := 0; i < n; i++ {
			vals[i] = math.Float64frombits(le64(p[8*i:]))
		}
		return vals, p[8*n:], nil
	case encFixed:
		ints, rest, err := fixedInts(p, n, width)
		if err != nil {
			return nil, nil, err
		}
		if int(scale) >= len(pow10) {
			return nil, nil, fmt.Errorf("%w: fixed-point scale %d out of range", ErrCorrupt, scale)
		}
		d := pow10[scale]
		for i, iv := range ints {
			vals[i] = float64(iv) / d
		}
		return vals, rest, nil
	default:
		return nil, nil, fmt.Errorf("%w: unknown column encoding %d", ErrCorrupt, enc)
	}
}

// decodeSeqColumn decodes the original-position column, which the
// encoder always writes as fixed-point with scale 0.
func decodeSeqColumn(p []byte, n int) ([]int64, []byte, error) {
	enc, scale, width, p, err := columnHeader(p)
	if err != nil {
		return nil, nil, err
	}
	if enc != encFixed || scale != 0 {
		return nil, nil, fmt.Errorf("%w: seq column must be integer-encoded", ErrCorrupt)
	}
	return fixedInts(p, n, width)
}

func columnHeader(p []byte) (enc, scale, width byte, rest []byte, err error) {
	if len(p) < 4 {
		return 0, 0, 0, nil, fmt.Errorf("%w: column header truncated", ErrCorrupt)
	}
	enc, scale, width = p[0], p[1], p[2]
	switch width {
	case 1, 2, 4, 8:
	default:
		return 0, 0, 0, nil, fmt.Errorf("%w: column width %d", ErrCorrupt, width)
	}
	return enc, scale, width, p[4:], nil
}

func fixedInts(p []byte, n int, width byte) ([]int64, []byte, error) {
	need := 8 + n*int(width)
	if len(p) < need {
		return nil, nil, fmt.Errorf("%w: fixed column truncated", ErrCorrupt)
	}
	base := le64(p[0:8])
	p = p[8:]
	ints := make([]int64, n)
	w := int(width)
	for i := 0; i < n; i++ {
		var u uint64
		for b := 0; b < w; b++ {
			u |= uint64(p[i*w+b]) << (8 * b)
		}
		ints[i] = int64(base + u)
	}
	return ints, p[n*w:], nil
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func putU64(b []byte, v uint64) {
	putU32(b, uint32(v))
	putU32(b[4:], uint32(v>>32))
}

func appendU32(dst []byte, v uint32) []byte {
	var b [4]byte
	putU32(b[:], v)
	return append(dst, b[:]...)
}

func appendU64(dst []byte, v uint64) []byte {
	var b [8]byte
	putU64(b[:], v)
	return append(dst, b[:]...)
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func le64(b []byte) uint64 {
	return uint64(le32(b)) | uint64(le32(b[4:]))<<32
}
