// Package colblock implements the store's checkpoint file format: the
// retained windows, each in its append order as per-column bit-packed
// integers in self-checksummed blocks, beside each window the seed of its
// model cover, with per-block min/max zone maps in a checksummed footer
// that also carries what recovery needs beside the tuples — the
// checkpoint's sequence number, its segment horizon and the store's
// largest timestamp.
//
// Every column is encoded losslessly (fixed-point only when the exact
// float64 round-trips bit-for-bit, IEEE bits otherwise) and the blocks of
// a window hold its tuples in the order they were appended, so a
// materialized window is byte-identical to the slice the store held in
// memory when it wrote the file — which is what lets a restarted store
// answer exactly as the running one did.
//
// # File layout
//
//	header   (8 B)   colMagic u32 | colVersion u32
//	blocks   (...)   per window: its self-checksummed column blocks, ≤
//	                 BlockTuples each, then its seed record if it has one
//	directory(n×96 B) per block: window, offset, length, count, zone
//	                 maps; per seed record: window, offset, length
//	trailer  (48 B)  seq u64 | tuples u64 | horizon u64 | maxTime f64 |
//	                 entries u32 | version u32 |
//	                 crc u32 (over directory ++ trailer[:40]) | footMagic u32
//
// The footer (directory + trailer) is read from the file end, so a reader
// learns every block's and seed's location and every zone map from one
// bounded read before touching any tuple data.
//
// A directory entry is
//
//	window u64 | offset u64 | length u64 | count u32 | kind u8 | 3 B zero |
//	minT maxT minX maxX minY maxY minS maxS (f64 each)
//
// kind 0 is a block; kind 1 a seed record, whose count and zone maps are
// zero. A window has at most one seed record.
//
// # Block layout
//
//	count u32
//	4 columns (T, X, Y, S), each:
//	  enc u8 (2: packed) | scale u8 | width u8 | reserved u8
//	  base u64
//	  count × width-bit offsets, LSB-first, padded to a byte
//	crc u32 (IEEE, over everything above)
//
// A block is a packed run (see Pack) and its checksum: what AppendBlock
// writes, DecodeBlock reads and a store's segment frame carries.
//
// The blocks of a window hold its tuples in append order, the first block
// the first BlockTuples of them. A column holds count keys, each base +
// its offset (mod 2^64); width (0–64) is the fewest bits that hold the
// largest offset, so a constant column takes nothing past its base. scale
// says what a key is:
//
//	0–9   a fixed-point integer: the value is int64(key) / 10^scale. The
//	      encoder picks the smallest scale at which every value of the
//	      column decodes back to its exact bits, so decode is base +
//	      offset, one divide, no drift; integer seconds take 12 bits a
//	      block.
//	255   the value's IEEE-754 bits rotated left by one. The rotation
//	      moves the sign to bit 0, so a column of both signs spans its
//	      exponents, not the whole 64-bit space.
//
// # Seed record
//
//	count u32 | rounds u32 | config u64 | k u32 |
//	k × (x f64, y f64) | crc u32 (IEEE, over everything above)
//
// A seed is what the store was given to keep of the window's model cover
// (see Seed): the number of tuples the cover was built over, a
// fingerprint of the configuration that built it, its split rounds and
// its k region centroids. Nothing here interprets it. A seed record is
// checked when it is read, not when the file is opened: a bad one costs
// the window its seed, never the checkpoint.
//
// # Other versions
//
// This package reads version 4 only, the version it writes. A file whose
// header and checksummed footer agree on another version — one an earlier
// release wrote, or a later one — is refused with ErrVersion, so the
// caller can tell a file it must not read from a damaged one. A file whose
// header and footer disagree on the version, or whose footer fails its
// checksum, is ErrCorrupt: a version-1 sidecar, whose 32-byte trailer does
// not checksum as a 48-byte one, is one of those.
package colblock

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/geo"
	"repro/internal/tuple"
)

// Format constants. colMagic/colVersion open the file, footMagic seals
// the trailer; envirometer-vet's colfmt analyzer enforces that each is
// exercised by both the encode and the decode path and covered by the
// FuzzColBlockDecode harness.
const (
	colMagic   = 0x454d434c // "EMCL"
	footMagic  = 0x454d4346 // "EMCF"
	colVersion = 4
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

	// MaxBlockTuples bounds a block, and so the allocation a decoder makes
	// from an untrusted count: a store writes a larger batch as several.
	MaxBlockTuples = 1 << 20

	// seedFixed is a seed record's size less its centroids, and
	// seedRegion what each centroid adds. maxSeedRegions bounds the
	// allocation a decoder will make from an untrusted region count.
	seedFixed      = 24
	seedRegion     = 16
	maxSeedRegions = 1 << 16
)

// Directory entry kinds (byte 28 of an entry).
const (
	kindBlock = 0
	kindSeed  = 1
)

// encPacked is the one column encoding: base u64 + count × width-bit
// offsets, LSB-first.
const encPacked = 2

// scaleIEEE is the scale of a column whose keys are IEEE-754 bits, not
// fixed-point integers.
const scaleIEEE = 0xff

// maxFixed bounds the scaled magnitude accepted by the fixed-point
// encoder, keeping the float64→int64 conversion in defined range.
const maxFixed = float64(1 << 62)

// pow10 holds the exactly-representable powers of ten tried as
// fixed-point scales, index = exponent.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// ErrCorrupt reports a structurally invalid or checksum-failing file.
var ErrCorrupt = errors.New("colblock: corrupt file")

// ErrVersion reports a sound file of a format version this package does
// not read: its header and checksummed footer agree on a version other
// than 4.
var ErrVersion = errors.New("colblock: unsupported format version")

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

// Seed is what a checkpoint keeps of a window's model cover: what it takes
// to fit the cover again without searching for its regions. The file
// stores it as it is given; the zero Seed is no seed.
type Seed struct {
	// Count is how many tuples the cover was built over: the window's
	// first Count, in append order.
	Count int
	// Config fingerprints the configuration the cover was built with.
	Config uint64
	// Rounds is the number of split rounds the build ran.
	Rounds int
	// Centroids are the cover's region centroids, in region order.
	Centroids []geo.Point
}

// WindowData is one window's tuples in their original append order, as
// the store holds them: window Window of an earlier checkpoint (Base),
// then the chunks of its in-memory log (Chunks) — each part optional.
type WindowData struct {
	Window int
	// Chunks refer to sealed chunks of a Log; Encode unpacks them into
	// its own scratch.
	Chunks []Chunk
	// Base, when not nil, is the reader the window's first
	// Base.WindowCount(Window) tuples come from. With nothing behind them
	// the window's blocks — and its seed record, unless Seed is given —
	// are copied as they are, each one's checksum checked, not decoded and
	// encoded again: the same tuples in the same order encode to the same
	// bytes. A seed record that fails its checksum is not copied.
	Base *Reader
	// Seed, when it has centroids, is written as the window's seed record.
	Seed Seed
}

// EncodeStats reports what Encode wrote, and the blocks (and bytes) of a
// Base it decoded to merge a window with what followed it.
type EncodeStats struct {
	Blocks        int
	Tuples        int
	Bytes         int64
	BlocksDecoded int
	BytesDecoded  int64
}

// Encode writes the checkpoint file for the given windows to w. The
// caller owns durability (temp+fsync+rename); Encode only streams bytes.
// It reads the windows (and the readers they name, which must stay open
// until it returns) and keeps no reference to them.
func Encode(w io.Writer, meta Meta, windows []WindowData) (EncodeStats, error) {
	return encode(w, meta, windows, BlockTuples)
}

// An Encoder is Encode's scratch, lent from a pool until Release, for a
// caller that writes a checkpoint file and then reads it back: CheckBlocks
// reads the file's blocks into the block buffer Encode has just grown,
// where Reader.CheckBlocks borrows one from a pool that a collection may
// have emptied since the last checkpoint.
type Encoder struct{ e *encoder }

// NewEncoder lends an Encoder.
func NewEncoder() Encoder { return Encoder{encoders.Get().(*encoder)} }

// Release returns the Encoder's scratch to the pool; it must not be used
// after.
func (enc Encoder) Release() { encoders.Put(enc.e) }

// Encode is the package's Encode, in enc's scratch.
func (enc Encoder) Encode(w io.Writer, meta Meta, windows []WindowData) (EncodeStats, error) {
	return enc.e.encode(w, meta, windows, BlockTuples)
}

// CheckBlocks is r.CheckBlocks, reading each block into enc's block buffer.
func (enc Encoder) CheckBlocks(r *Reader) error { return r.checkBlocks(&enc.e.blk) }

// encoder is Encode's scratch: the window order, one window put together
// from its base and what followed, one block's four float columns, the
// keys of the column being written, the block or seed record under
// construction (or being carried over) and the directory. A checkpoint of
// n tuples allocated ≈ 164 n bytes without it. Encode unpacks a window's
// chunks in its columns too; Pack and PackExact borrow them, and
// PackExact its block, for one packed run; an Encoder's CheckBlocks reads
// into the block.
type encoder struct {
	windows  []WindowData
	merged   tuple.Batch
	cols     [4][]float64 // T, X, Y, S
	keys     []uint64
	blk, dir []byte
}

// encoders lends scratch to concurrent Encode and Pack calls (one store
// per pollutant checkpoints on its own) and lets the collector take it back
// between checkpoints, so an idle server does not hold it.
var encoders = sync.Pool{New: func() any { return new(encoder) }}

func encode(w io.Writer, meta Meta, windows []WindowData, blockTuples int) (EncodeStats, error) {
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	return e.encode(w, meta, windows, blockTuples)
}

func (e *encoder) encode(w io.Writer, meta Meta, windows []WindowData, blockTuples int) (EncodeStats, error) {
	defer func() { clear(e.windows) }() // drop the references to the caller's windows
	e.windows = append(e.windows[:0], windows...)
	slices.SortFunc(e.windows, func(a, b WindowData) int { return cmp.Compare(a.Window, b.Window) })

	var hdr [headerSize]byte
	putU32(hdr[0:], colMagic)
	putU32(hdr[4:], colVersion)
	if _, err := w.Write(hdr[:]); err != nil {
		return EncodeStats{}, err
	}

	var st EncodeStats
	entries := 0
	e.dir = e.dir[:0]
	off := int64(headerSize)
	// put writes one finished block or seed record and its directory entry.
	put := func(bm BlockMeta, kind byte, rec []byte) error {
		bm.Offset, bm.Length = off, int64(len(rec))
		if _, err := w.Write(rec); err != nil {
			return err
		}
		off += bm.Length
		e.dir = appendDirEntry(e.dir, bm, kind)
		entries++
		if kind == kindBlock {
			st.Blocks++
			st.Tuples += bm.Count
		}
		return nil
	}
	for _, wd := range e.windows {
		mem := ChunksLen(wd.Chunks)
		carry := wd.Base != nil && mem == 0
		if carry {
			for _, bm := range wd.Base.windowBlocks(wd.Window) {
				blk, err := wd.Base.blockBytes(&e.blk, bm.Offset, bm.Length)
				if err == nil {
					_, _, err = blockRun(blk, bm.Count)
				}
				if err != nil {
					return EncodeStats{}, fmt.Errorf("carry window %d over: %w", wd.Window, err)
				}
				if err := put(bm, kindBlock, blk); err != nil {
					return EncodeStats{}, err
				}
			}
		} else {
			n := 0
			if wd.Base != nil {
				n = wd.Base.WindowCount(wd.Window)
			}
			e.merged = sized(e.merged, n+mem)
			if wd.Base != nil {
				if err := wd.Base.DecodeWindow(e.merged[:n], wd.Window); err != nil {
					return EncodeStats{}, err
				}
				blocks, bytes := wd.Base.WindowSize(wd.Window)
				st.BlocksDecoded += blocks
				st.BytesDecoded += bytes
			}
			unpackChunks(e.merged[n:], wd.Chunks, &e.cols, &e.keys)
			for lo := 0; lo < len(e.merged); lo += blockTuples {
				bm := e.encodeBlock(e.merged[lo:min(lo+blockTuples, len(e.merged))])
				bm.Window = wd.Window
				if err := put(bm, kindBlock, e.blk); err != nil {
					return EncodeStats{}, err
				}
			}
		}
		var rec []byte
		switch {
		case len(wd.Seed.Centroids) > 0:
			e.blk = appendSeed(e.blk[:0], wd.Seed)
			rec = e.blk
		case carry:
			// A seed that went bad is left behind: the window's next
			// cover is built in full, not refitted from it.
			if sp, ok := wd.Base.seedSpan(wd.Window); ok {
				if b, err := wd.Base.blockBytes(&e.blk, sp.offset, sp.length); err == nil && seedBody(b) == nil {
					rec = b
				}
			}
		}
		if rec != nil {
			if err := put(BlockMeta{Window: wd.Window}, kindSeed, rec); err != nil {
				return EncodeStats{}, err
			}
		}
	}

	var trailer [trailerSize]byte
	putU64(trailer[0:], uint64(int64(meta.Seq)))
	putU64(trailer[8:], uint64(int64(st.Tuples)))
	putU64(trailer[16:], uint64(int64(meta.Horizon)))
	putU64(trailer[24:], math.Float64bits(meta.MaxTime))
	putU32(trailer[32:], uint32(entries))
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

// split lays tuples out in e's columns, sized to them, and sizes its keys
// for one column.
func (e *encoder) split(tuples []tuple.Raw) {
	n := len(tuples)
	for i := range e.cols {
		e.cols[i] = sized(e.cols[i], n)
	}
	e.keys = sized(e.keys, n)
	ts, xs, ys, ss := e.cols[0], e.cols[1], e.cols[2], e.cols[3]
	for i, r := range tuples {
		ts[i], xs[i], ys[i], ss[i] = r.T, r.X, r.Y, r.S
	}
}

// encodeBlock encodes b, in its order, as one self-checksummed block in
// e.blk and returns its zone-map meta.
func (e *encoder) encodeBlock(b tuple.Batch) BlockMeta {
	e.blk = e.appendBlock(e.blk[:0], b) // leaves b's columns in e.cols
	meta := BlockMeta{Count: len(b)}
	meta.MinT, meta.MaxT = minMax(e.cols[0])
	meta.MinX, meta.MaxX = minMax(e.cols[1])
	meta.MinY, meta.MaxY = minMax(e.cols[2])
	meta.MinS, meta.MaxS = minMax(e.cols[3])
	return meta
}

// AppendBlock appends tuples to dst as one block and returns the extended
// slice. It allocates only when dst must grow.
func AppendBlock(dst []byte, tuples []tuple.Raw) []byte {
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	return e.appendBlock(dst, tuples)
}

// appendBlock is AppendBlock in e's columns, which it leaves holding them.
func (e *encoder) appendBlock(dst []byte, tuples []tuple.Raw) []byte {
	start := len(dst)
	dst = e.pack(dst, tuples)
	return appendU32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// appendSeed appends sd as one self-checksummed seed record.
func appendSeed(dst []byte, sd Seed) []byte {
	start := len(dst)
	dst = appendU32(dst, uint32(sd.Count))
	dst = appendU32(dst, uint32(sd.Rounds))
	dst = appendU64(dst, sd.Config)
	dst = appendU32(dst, uint32(len(sd.Centroids)))
	for _, p := range sd.Centroids {
		dst = appendU64(dst, math.Float64bits(p.X))
		dst = appendU64(dst, math.Float64bits(p.Y))
	}
	return appendU32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// seedBody checks one seed record's framing — checksum, and a length that
// matches its region count — and returns nil when it is sound.
func seedBody(rec []byte) error {
	if len(rec) < seedFixed+seedRegion {
		return fmt.Errorf("%w: seed record of %d bytes", ErrCorrupt, len(rec))
	}
	body, tail := rec[:len(rec)-4], rec[len(rec)-4:]
	if crc32.ChecksumIEEE(body) != le32(tail) {
		return fmt.Errorf("%w: seed checksum mismatch", ErrCorrupt)
	}
	k := int64(le32(body[16:]))
	if k == 0 || k > maxSeedRegions || int64(len(rec)) != seedFixed+seedRegion*k {
		return fmt.Errorf("%w: seed of %d regions in %d bytes", ErrCorrupt, k, len(rec))
	}
	if le32(body[0:]) == 0 {
		return fmt.Errorf("%w: seed built over no tuples", ErrCorrupt)
	}
	return nil
}

// decodeSeed decodes a seed record seedBody has accepted.
func decodeSeed(rec []byte) Seed {
	k := int(le32(rec[16:]))
	sd := Seed{
		Count:     int(le32(rec[0:])),
		Rounds:    int(le32(rec[4:])),
		Config:    le64(rec[8:]),
		Centroids: make([]geo.Point, k),
	}
	for i := range sd.Centroids {
		p := rec[20+seedRegion*i:]
		sd.Centroids[i] = geo.Point{X: math.Float64frombits(le64(p)), Y: math.Float64frombits(le64(p[8:]))}
	}
	return sd
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

// appendFloatColumn encodes vals as fixed-point integers when every value
// round-trips bit-exactly at some power-of-ten scale, and as rotated IEEE
// bits otherwise. keys is scratch of len(vals).
func appendFloatColumn(dst []byte, vals []float64, keys []uint64) []byte {
	if scale, ok := fixedPoint(vals, keys); ok {
		return appendPacked(dst, keys, scale)
	}
	for i, v := range vals {
		keys[i] = bits.RotateLeft64(math.Float64bits(v), 1)
	}
	return appendPacked(dst, keys, scaleIEEE)
}

// fixedPoint tries ascending scales and fills keys with the scaled
// integers of the first scale at which every value decodes back to its
// exact bits. The ascending order also yields the narrowest offsets,
// since the value span grows with the scale.
func fixedPoint(vals []float64, keys []uint64) (scale byte, ok bool) {
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
			keys[i] = uint64(iv)
		}
		return byte(e), true
	}
	return 0, false
}

// appendPacked encodes keys as one packed column: a base, then each key's
// offset from it in the fewest bits that hold them all.
func appendPacked(dst []byte, keys []uint64, scale byte) []byte {
	base, span := keyRange(keys)
	w := uint(bits.Len64(span))
	dst = append(dst, encPacked, scale, byte(w), 0)
	dst = appendU64(dst, base)
	var acc uint64 // offset bits not yet written, the first lowest
	var n uint     // how many
	for _, k := range keys {
		v := k - base
		acc |= v << n
		if n+w < 64 {
			n += w
			continue
		}
		dst = appendU64(dst, acc)
		acc = v >> (64 - n) // the bits of v acc had no room for (none when n is 0)
		n += w - 64
	}
	for i := uint(0); i < n; i += 8 {
		dst = append(dst, byte(acc>>i))
	}
	return dst
}

// keyRange returns the base and span of keys: the smallest key in
// unsigned or in signed order, whichever leaves the shorter span. A
// fixed-point column of both signs is short in signed order, an IEEE
// column in unsigned order.
func keyRange(keys []uint64) (base, span uint64) {
	umin, umax := keys[0], keys[0]
	smin, smax := int64(keys[0]), int64(keys[0])
	for _, k := range keys[1:] {
		umin, umax = min(umin, k), max(umax, k)
		smin, smax = min(smin, int64(k)), max(smax, int64(k))
	}
	if s := uint64(smax) - uint64(smin); s < umax-umin {
		return uint64(smin), s
	}
	return umin, umax - umin
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

func appendDirEntry(dst []byte, m BlockMeta, kind byte) []byte {
	var e [dirEntrySize]byte
	putU64(e[0:], uint64(int64(m.Window)))
	putU64(e[8:], uint64(m.Offset))
	putU64(e[16:], uint64(m.Length))
	putU32(e[24:], uint32(m.Count))
	e[28] = kind
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

// blockRun checks one block's framing — its checksum, and a count of 1
// to MaxBlockTuples that is count, unless count is 0 — and returns the
// packed run it holds (the count and the columns) and its count.
func blockRun(data []byte, count int) ([]byte, int, error) {
	if len(data) < 8 {
		return nil, 0, fmt.Errorf("%w: block shorter than framing", ErrCorrupt)
	}
	run, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(run) != le32(tail) {
		return nil, 0, fmt.Errorf("%w: block checksum mismatch", ErrCorrupt)
	}
	n := int(le32(run))
	if n <= 0 || n > MaxBlockTuples || count != 0 && n != count {
		return nil, 0, fmt.Errorf("%w: block count %d, directory %d", ErrCorrupt, n, count)
	}
	return run, n, nil
}

// column is one column of a block, located but not decoded: its keys are
// base plus offsets of width bits each.
type column struct {
	scale byte // 0–9: fixed-point decimal exponent; scaleIEEE: IEEE bits rotated left by one
	width uint // 0–64
	base  uint64
	data  []byte
}

// cutColumn locates the column of n values that p starts with and returns
// what follows it.
func cutColumn(p []byte, n int) (column, []byte, error) {
	if len(p) < 4 {
		return column{}, nil, fmt.Errorf("%w: column header truncated", ErrCorrupt)
	}
	enc, scale, width := p[0], p[1], uint(p[2])
	p = p[4:]
	switch {
	case enc != encPacked:
		return column{}, nil, fmt.Errorf("%w: unknown column encoding %d", ErrCorrupt, enc)
	case width > 64:
		return column{}, nil, fmt.Errorf("%w: column width %d bits", ErrCorrupt, width)
	case scale != scaleIEEE && int(scale) >= len(pow10):
		return column{}, nil, fmt.Errorf("%w: fixed-point scale %d out of range", ErrCorrupt, scale)
	case len(p) < 8:
		return column{}, nil, fmt.Errorf("%w: column base truncated", ErrCorrupt)
	}
	col := column{scale: scale, width: width, base: le64(p)}
	p = p[8:]
	size := (n*int(width) + 7) / 8
	if len(p) < size {
		return column{}, nil, fmt.Errorf("%w: column truncated", ErrCorrupt)
	}
	col.data = p[:size]
	return col, p[size:], nil
}

// keys writes the column's keys into dst, one per value: the one unpack
// loop every column is read through. An offset is one 8-byte load at its
// first byte, shifted and masked — plus a ninth byte when it straddles
// them, which only offsets over 56 bits can.
func (col column) keys(dst []uint64) {
	w, p, bit := col.width, col.data, uint(0)
	if w == 0 {
		for i := range dst {
			dst[i] = col.base
		}
		return
	}
	mask := ^uint64(0) >> (64 - w)
	var pad [17]byte // the last bytes, zero-padded (declared here, it stays on the stack)
	for i := range dst {
		at, sh := bit>>3, bit&7
		if int(at)+9 > len(p) {
			copy(pad[:], p[at:])
			p, at, bit = pad[:], 0, sh
		}
		v := le64(p[at:]) >> sh
		if sh+w > 64 {
			v |= uint64(p[at+8]) << (64 - sh)
		}
		dst[i] = col.base + v&mask
		bit += w
	}
}

// floats decodes the column into vals, using keys (of the same length) as
// scratch.
func (col column) floats(vals []float64, keys []uint64) {
	col.keys(keys)
	if col.scale == scaleIEEE {
		for i, k := range keys {
			vals[i] = math.Float64frombits(bits.RotateLeft64(k, -1))
		}
		return
	}
	d := pow10[col.scale]
	for i, k := range keys {
		vals[i] = float64(int64(k)) / d
	}
}

func putU32(b []byte, v uint32)             { binary.LittleEndian.PutUint32(b, v) }
func putU64(b []byte, v uint64)             { binary.LittleEndian.PutUint64(b, v) }
func appendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func appendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }
func le32(b []byte) uint32                  { return binary.LittleEndian.Uint32(b) }
func le64(b []byte) uint64                  { return binary.LittleEndian.Uint64(b) }
