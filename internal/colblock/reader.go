package colblock

import (
	"bytes"
	"cmp"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/tuple"
)

// Stats counts a Reader's scans (CheckBlocks is not one). Zero value is
// ready; fields are summed into the store's columnar stats.
type Stats struct {
	BlocksScanned int64
	BlocksPruned  int64
	BytesRead     int64
}

// Reader serves windows and region scans from one immutable checkpoint
// file, reading it with ReadAt (pread on a file). It is safe for
// concurrent use; Close invalidates it.
type Reader struct {
	src    io.ReaderAt
	size   int64
	meta   Meta
	tuples int
	blocks []BlockMeta
	// seeds locates the seed records, ascending by window.
	seeds []seedSpan

	// spans holds one entry per window, ascending: a window's blocks are
	// contiguous in blocks, in directory order.
	spans []winSpan

	blocksScanned atomic.Int64
	blocksPruned  atomic.Int64
	bytesRead     atomic.Int64
	closed        atomic.Bool
}

// OpenFile opens the checkpoint file at path. The Reader keeps the file
// open until Close.
func OpenFile(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := newReader(f, info.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

// OpenBytes opens a file image held in memory — the fuzz and test
// entry point, sharing every validation step with OpenFile.
func OpenBytes(data []byte) (*Reader, error) {
	return newReader(bytes.NewReader(data), int64(len(data)))
}

// Verify structurally validates data as a file image and decodes
// every block and seed record, returning the first error found. It is the
// fuzz target's workhorse: any input that passes must round-trip cleanly.
func Verify(data []byte) error {
	r, err := OpenBytes(data)
	if err != nil {
		return err
	}
	defer r.Close()
	var into tuple.Batch
	for _, sp := range r.spans {
		into = sized(into, sp.count)
		if err := r.DecodeWindow(into, sp.window); err != nil {
			return err
		}
	}
	for _, sp := range r.seeds {
		if _, ok, err := r.Seed(sp.window); !ok {
			return err
		}
	}
	return nil
}

func newReader(src io.ReaderAt, size int64) (*Reader, error) {
	if size < headerSize+trailerSize {
		return nil, fmt.Errorf("%w: %d bytes is below minimum framing", ErrCorrupt, size)
	}
	r := &Reader{src: src, size: size}
	// The header, the trailer, then the directory with the trailer behind
	// it are read in turn into one pooled buffer.
	sc := scratches.Get().(*scratch)
	defer scratches.Put(sc)
	hdr, err := r.blockBytes(&sc.span, 0, headerSize)
	if err != nil {
		return nil, err
	}
	if le32(hdr[0:]) != colMagic {
		return nil, fmt.Errorf("%w: bad header magic %#x", ErrCorrupt, le32(hdr[0:]))
	}
	version := le32(hdr[4:])
	trailer, err := r.blockBytes(&sc.span, size-trailerSize, trailerSize)
	if err != nil {
		return nil, err
	}
	if le32(trailer[44:]) != footMagic {
		return nil, fmt.Errorf("%w: bad footer magic %#x", ErrCorrupt, le32(trailer[44:]))
	}
	if le32(trailer[36:]) != version {
		return nil, fmt.Errorf("%w: footer version %d in a version %d file", ErrCorrupt, le32(trailer[36:]), version)
	}
	nentries := int(le32(trailer[32:]))
	dirLen := int64(nentries) * dirEntrySize
	dirStart := size - trailerSize - dirLen
	if nentries < 0 || dirLen < 0 || dirStart < headerSize {
		return nil, fmt.Errorf("%w: directory of %d entries does not fit", ErrCorrupt, nentries)
	}
	tail, err := r.blockBytes(&sc.span, dirStart, dirLen+trailerSize)
	if err != nil {
		return nil, err
	}
	dir, trailer := tail[:dirLen], tail[dirLen:]
	if footerCRC(dir, trailer) != le32(trailer[40:]) {
		return nil, fmt.Errorf("%w: footer checksum mismatch", ErrCorrupt)
	}
	if version != colVersion {
		return nil, fmt.Errorf("%w: version %d, this reader reads version %d", ErrVersion, version, colVersion)
	}

	r.meta = Meta{
		Seq:     int(int64(le64(trailer[0:]))),
		Horizon: int(int64(le64(trailer[16:]))),
		MaxTime: math.Float64frombits(le64(trailer[24:])),
	}
	r.tuples = int(int64(le64(trailer[8:])))
	if r.tuples < 0 {
		return nil, fmt.Errorf("%w: negative tuple count", ErrCorrupt)
	}
	kind := func(i int) byte { return dir[i*dirEntrySize+28] }
	nseeds := 0
	for i := range nentries {
		if kind(i) == kindSeed {
			nseeds++
		}
	}
	r.blocks = make([]BlockMeta, 0, nentries-nseeds)
	if nseeds > 0 {
		r.seeds = make([]seedSpan, 0, nseeds)
	}
	total := 0
	for i := range nentries {
		m := decodeDirEntry(dir[i*dirEntrySize:])
		// Subtracted, not added: an offset and a length that each fit can
		// sum past the largest int64.
		if m.Offset < headerSize || m.Length < 8 || m.Length > dirStart-m.Offset {
			return nil, fmt.Errorf("%w: directory entry %d span [%d,+%d) out of bounds", ErrCorrupt, i, m.Offset, m.Length)
		}
		switch kind(i) {
		case kindSeed:
			r.seeds = append(r.seeds, seedSpan{window: m.Window, offset: m.Offset, length: m.Length})
			continue
		case kindBlock:
		default:
			return nil, fmt.Errorf("%w: directory entry %d of kind %d", ErrCorrupt, i, kind(i))
		}
		if m.Count <= 0 || m.Count > maxBlockTuples {
			return nil, fmt.Errorf("%w: directory entry %d count %d", ErrCorrupt, i, m.Count)
		}
		if m.MinT > m.MaxT || m.MinX > m.MaxX || m.MinY > m.MaxY || m.MinS > m.MaxS {
			return nil, fmt.Errorf("%w: directory entry %d inverted zone map", ErrCorrupt, i)
		}
		total += m.Count
		r.blocks = append(r.blocks, m)
	}
	if total != r.tuples {
		return nil, fmt.Errorf("%w: directory counts %d do not sum to trailer total %d", ErrCorrupt, total, r.tuples)
	}
	// The encoder writes window after window, ascending. A directory in
	// another order is regrouped, each window's blocks keeping their order.
	byWindow := func(a, b BlockMeta) int { return cmp.Compare(a.Window, b.Window) }
	if !slices.IsSortedFunc(r.blocks, byWindow) {
		slices.SortStableFunc(r.blocks, byWindow)
	}
	nwin := 0
	for i, m := range r.blocks {
		if i == 0 || m.Window != r.blocks[i-1].Window {
			nwin++
		}
	}
	r.spans = make([]winSpan, 0, nwin)
	for i, m := range r.blocks {
		if i == 0 || m.Window != r.blocks[i-1].Window {
			r.spans = append(r.spans, winSpan{window: m.Window, first: i})
		}
		sp := &r.spans[len(r.spans)-1]
		sp.n++
		sp.count += m.Count
	}
	// Seeds are looked up by window. One that names a window twice, or a
	// window with no blocks, does not belong to this file.
	slices.SortStableFunc(r.seeds, func(a, b seedSpan) int { return cmp.Compare(a.window, b.window) })
	for i, sp := range r.seeds {
		if i > 0 && sp.window == r.seeds[i-1].window {
			return nil, fmt.Errorf("%w: window %d has two seeds", ErrCorrupt, sp.window)
		}
		if r.span(sp.window).n == 0 {
			return nil, fmt.Errorf("%w: seed for window %d, which holds no blocks", ErrCorrupt, sp.window)
		}
	}
	return r, nil
}

// winSpan locates one window in a Reader: blocks[first:first+n], count
// tuples in all.
type winSpan struct {
	window, first, n, count int
}

// seedSpan locates one window's seed record.
type seedSpan struct {
	window         int
	offset, length int64
}

// seedSpan returns window c's seed record location, if it has one.
func (r *Reader) seedSpan(c int) (seedSpan, bool) {
	i, ok := slices.BinarySearchFunc(r.seeds, c, func(sp seedSpan, c int) int { return cmp.Compare(sp.window, c) })
	if !ok {
		return seedSpan{}, false
	}
	return r.seeds[i], true
}

// HasSeed reports whether the file holds a seed record for window c, from
// the directory alone.
func (r *Reader) HasSeed(c int) bool {
	_, ok := r.seedSpan(c)
	return ok
}

// Seed reads window c's seed record. ok is false when there is none or
// when it fails its checks, which err then reports.
func (r *Reader) Seed(c int) (sd Seed, ok bool, err error) {
	sp, ok := r.seedSpan(c)
	if !ok {
		return Seed{}, false, nil
	}
	sc := scratches.Get().(*scratch)
	defer scratches.Put(sc)
	rec, err := r.blockBytes(&sc.span, sp.offset, sp.length)
	if err == nil {
		err = seedBody(rec)
	}
	if err != nil {
		return Seed{}, false, fmt.Errorf("window %d seed: %w", c, err)
	}
	return decodeSeed(rec), true, nil
}

// span returns window c's entry; the zero span stands for an absent
// window.
func (r *Reader) span(c int) winSpan {
	i, ok := slices.BinarySearchFunc(r.spans, c, func(sp winSpan, c int) int { return cmp.Compare(sp.window, c) })
	if !ok {
		return winSpan{}
	}
	return r.spans[i]
}

// windowBlocks returns window c's directory entries, in file order.
func (r *Reader) windowBlocks(c int) []BlockMeta {
	sp := r.span(c)
	return r.blocks[sp.first : sp.first+sp.n]
}

func footerCRC(dir, trailer []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(dir), crc32.IEEETable, trailer[:trailerCRC])
}

// Meta returns the sequence number, horizon and largest timestamp the
// checkpoint recorded.
func (r *Reader) Meta() Meta { return r.meta }

// Tuples returns the total tuple count across all windows.
func (r *Reader) Tuples() int { return r.tuples }

// Windows returns the window indexes present, ascending.
func (r *Reader) Windows() []int {
	out := make([]int, len(r.spans))
	for i, sp := range r.spans {
		out[i] = sp.window
	}
	return out
}

// WindowCount returns the tuple count of window c (0 if absent), from
// the directory alone.
func (r *Reader) WindowCount(c int) int { return r.span(c).count }

// WindowZone returns the union of window c's block zone maps — exact
// min/max bounds for every column, with no block reads.
func (r *Reader) WindowZone(c int) (z BlockMeta, ok bool) {
	blocks := r.windowBlocks(c)
	for i, m := range blocks {
		if i == 0 {
			z = m
			continue
		}
		z.Count += m.Count
		z.MinT, z.MaxT = min(z.MinT, m.MinT), max(z.MaxT, m.MaxT)
		z.MinX, z.MaxX = min(z.MinX, m.MinX), max(z.MaxX, m.MaxX)
		z.MinY, z.MaxY = min(z.MinY, m.MinY), max(z.MaxY, m.MaxY)
		z.MinS, z.MaxS = min(z.MinS, m.MinS), max(z.MaxS, m.MaxS)
	}
	return z, len(blocks) > 0
}

// CheckBlocks reads every block once and verifies its checksum and its
// count field against the directory, decoding no column: what a store
// runs before it trusts the file as its checkpoint. Seed records are not
// read: a bad one costs its window the seed when it is read, not the file.
func (r *Reader) CheckBlocks() error {
	sc := scratches.Get().(*scratch)
	defer scratches.Put(sc)
	for i, m := range r.blocks {
		data, err := r.blockBytes(&sc.span, m.Offset, m.Length)
		if err != nil {
			return err
		}
		if _, err := blockBody(data, m.Count); err != nil {
			return fmt.Errorf("block %d: %w", i, err)
		}
	}
	return nil
}

// ScanWindowRegion streams window c's tuples whose (X, Y) fall inside
// the closed rectangle [minX,maxX]×[minY,maxY], pruning whole blocks by
// zone map before touching their bytes. Tuples arrive in append order. It
// returns how many blocks were scanned vs pruned.
func (r *Reader) ScanWindowRegion(c int, minX, minY, maxX, maxY float64, fn func(tuple.Raw)) (scanned, pruned int, err error) {
	sc := scratches.Get().(*scratch)
	defer scratches.Put(sc)
	for _, m := range r.windowBlocks(c) {
		if m.MinX > maxX || m.MaxX < minX || m.MinY > maxY || m.MaxY < minY {
			pruned++
			r.blocksPruned.Add(1)
			continue
		}
		if err := r.readBlock(sc, m); err != nil {
			return scanned, pruned, err
		}
		scanned++
		ts, xs, ys, ss := sc.cols[0], sc.cols[1], sc.cols[2], sc.cols[3]
		for i, x := range xs {
			if x < minX || x > maxX || ys[i] < minY || ys[i] > maxY {
				continue
			}
			fn(tuple.Raw{T: ts[i], X: x, Y: ys[i], S: ss[i]})
		}
	}
	return scanned, pruned, nil
}

// readBlock reads block m and decodes it into sc, counting the read.
func (r *Reader) readBlock(sc *scratch, m BlockMeta) error {
	data, err := r.blockBytes(&sc.span, m.Offset, m.Length)
	if err != nil {
		return err
	}
	r.countScan(m)
	return sc.decodeBlock(data, m.Count)
}

// countScan accounts one block read for decoding.
func (r *Reader) countScan(m BlockMeta) {
	r.bytesRead.Add(m.Length)
	r.blocksScanned.Add(1)
}

// blockBytes reads the n bytes at off — a block, a seed record, or the
// framing — into *buf, grown when it is too small, so a caller that
// brings the same buffer back reads block after block without allocating.
func (r *Reader) blockBytes(buf *[]byte, off, n int64) ([]byte, error) {
	if off < 0 || n < 0 || n > r.size-off {
		return nil, fmt.Errorf("%w: read span [%d,+%d) outside %d-byte file", ErrCorrupt, off, n, r.size)
	}
	*buf = sized(*buf, int(n))
	if _, err := r.src.ReadAt(*buf, off); err != nil {
		return nil, err
	}
	return *buf, nil
}

// scratch is what a read borrows beside its destination: a block's bytes,
// the block decoded — its T, X, Y and S columns — and the keys of the
// column being decoded.
type scratch struct {
	span []byte
	cols [4][]float64
	keys []uint64
}

// scratches lends scratch to concurrent reads, as encoders does to
// concurrent Encode calls.
var scratches = sync.Pool{New: func() any { return new(scratch) }}

// DecodeWindow decodes window c into dst, which must hold exactly
// WindowCount(c) tuples, in the window's original append order: block by
// block, the columns into pooled scratch and each tuple from there into
// the next places of dst, allocating nothing. It checks every block's
// checksum and count and every column's framing, and on an error leaves
// dst undefined.
func (r *Reader) DecodeWindow(dst tuple.Batch, c int) error {
	sp := r.span(c)
	if len(dst) != sp.count {
		return fmt.Errorf("colblock: window %d holds %d tuples, destination %d", c, sp.count, len(dst))
	}
	sc := scratches.Get().(*scratch)
	defer scratches.Put(sc)
	pos := 0
	for _, m := range r.blocks[sp.first : sp.first+sp.n] {
		if err := r.readBlock(sc, m); err != nil {
			return fmt.Errorf("window %d: %w", c, err)
		}
		ts, xs, ys, ss := sc.cols[0], sc.cols[1], sc.cols[2], sc.cols[3]
		for i := range m.Count {
			dst[pos+i] = tuple.Raw{T: ts[i], X: xs[i], Y: ys[i], S: ss[i]}
		}
		pos += m.Count
	}
	return nil
}

// decodeBlock decodes one block (data: count through checksum; count
// cross-checks the directory entry) into sc.cols.
func (sc *scratch) decodeBlock(data []byte, count int) error {
	p, err := blockBody(data, count)
	if err != nil {
		return err
	}
	var cols [4]column
	for i := range cols {
		if cols[i], p, err = cutColumn(p, count); err != nil {
			return err
		}
	}
	if len(p) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after columns", ErrCorrupt, len(p))
	}
	sc.keys = sized(sc.keys, count)
	for i := range sc.cols {
		sc.cols[i] = sized(sc.cols[i], count)
		cols[i].floats(sc.cols[i], sc.keys)
	}
	return nil
}

// Stats returns a snapshot of the reader's counters.
func (r *Reader) Stats() Stats {
	return Stats{
		BlocksScanned: r.blocksScanned.Load(),
		BlocksPruned:  r.blocksPruned.Load(),
		BytesRead:     r.bytesRead.Load(),
	}
}

// Close closes the file OpenFile opened. Idempotent.
func (r *Reader) Close() error {
	if !r.closed.CompareAndSwap(false, true) {
		return nil
	}
	if f, ok := r.src.(io.Closer); ok {
		return f.Close()
	}
	return nil
}
