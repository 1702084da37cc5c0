package store

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync/atomic"

	"repro/internal/colblock"
	"repro/internal/geo"
	"repro/internal/tuple"
)

// Lazy windows
//
// A tuple the committed checkpoint holds lives in the checkpoint file, not
// on the heap. Open does not decode the checkpoint it recovers from: it
// reads the file's footer, checksums every block and records each window's
// tuple count and zone maps; Checkpoint, once the file it wrote has been
// read back and checksummed the same way, does the same to the windows it
// wrote and lets their in-memory tuples go. Either way a window is then a
// lazy base in the file plus an in-memory suffix — what the segments behind
// the checkpoint horizon replayed, or what was appended since the
// checkpoint's snapshot — and every read is the two-source scan: it decodes
// the base into the caller's memory and installs nothing.
//
// A block that fails its checksum or cannot be read after it was verified
// (the file changed or was truncated underneath a running process) cannot
// be recovered from anywhere else: the window degrades to its in-memory
// suffix and the failure is counted.

// ColumnarConfig configures nothing: the column-block file is the only
// checkpoint there is, and it is read one way.
type ColumnarConfig struct {
	// Enabled is ignored. The field stays because the frozen end-to-end
	// benchmark sets it.
	Enabled bool
}

// ColumnarStats counts the checkpoint file's activity on both sides:
// files written at checkpoint time, and how reads were served.
type ColumnarStats struct {
	// SidecarsWritten and BlocksWritten count committed checkpoint files
	// and their blocks. The first is CheckpointStats.Checkpoints under the
	// name of its /v1/stats key, which dates from when the file was a
	// sidecar beside a row checkpoint.
	SidecarsWritten int64 `json:"sidecarsWritten"`
	BlocksWritten   int64 `json:"blocksWritten"`
	// LazyWindows is the number of windows whose base is served from the
	// checkpoint file.
	LazyWindows int64 `json:"lazyWindows"`
	// Materializations counts window bases decoded from the file for a
	// read (nothing is installed: the same window counts once per read);
	// MaterializeFailures counts the windows whose base could not be read
	// (a block went bad after it was verified, or the store was closed)
	// and that serve their in-memory suffix only from then on.
	Materializations    int64 `json:"materializations"`
	MaterializeFailures int64 `json:"materializeFailures"`
	// SeedFailures counts seed records that failed their checks when a
	// cover build read them: each cost its window a refit, not a read.
	SeedFailures int64 `json:"seedFailures"`
	// Reader-side counters: blocks decoded, blocks skipped by zone map,
	// and the bytes read from the file for decoding.
	BlocksScanned int64 `json:"blocksScanned"`
	BlocksPruned  int64 `json:"blocksPruned"`
	BytesRead     int64 `json:"bytesRead"`
}

// Add accumulates o into s field-wise; the engine aggregates per-shard
// stats with it.
func (s *ColumnarStats) Add(o ColumnarStats) {
	s.SidecarsWritten += o.SidecarsWritten
	s.BlocksWritten += o.BlocksWritten
	s.LazyWindows += o.LazyWindows
	s.Materializations += o.Materializations
	s.MaterializeFailures += o.MaterializeFailures
	s.SeedFailures += o.SeedFailures
	s.BlocksScanned += o.BlocksScanned
	s.BlocksPruned += o.BlocksPruned
	s.BytesRead += o.BytesRead
}

// colReader wraps the checkpoint reader with a reference count so that
// the store can drop it (Close, or a checkpoint that moved the windows to
// its own file) while a concurrent read is mid-scan: the file is closed
// only when the last user releases.
type colReader struct {
	rd   *colblock.Reader
	refs atomic.Int64
}

func newColReader(rd *colblock.Reader) *colReader {
	cr := &colReader{rd: rd}
	cr.refs.Store(1) // owner reference, released by Close or checkpoint retirement
	return cr
}

// acquire takes a scan reference. Callers hold s.mu, which orders every
// acquire before the owner release that could drop refs to zero.
func (cr *colReader) acquire() { cr.refs.Add(1) }

func (cr *colReader) release() {
	if cr.refs.Add(-1) == 0 {
		cr.rd.Close()
	}
}

// lazyWin describes a window's base in the checkpoint file: its tuple
// count and the zone-map union of its blocks.
type lazyWin struct {
	count                  int
	minX, minY, maxX, maxY float64
}

// lazyFrom reads window c's entry off rd's directory.
func lazyFrom(rd *colblock.Reader, c int) lazyWin {
	z, _ := rd.WindowZone(c)
	return lazyWin{count: z.Count, minX: z.MinX, minY: z.MinY, maxX: z.MaxX, maxY: z.MaxY}
}

// columnarState is the store's lazy-window bookkeeping. rd and lazy are
// guarded by s.mu; the counters are atomics so the hot paths never take
// a stats lock.
type columnarState struct {
	rd   *colReader
	lazy map[int]lazyWin // every entry describes a window of rd's file
	// lost holds the retained windows whose base went unreadable: their
	// suffix moved down to position 0, so ReadAppended refuses them.
	lost map[int]bool

	// retiredStats carries the final counter snapshot of a dropped
	// reader (Close, or a checkpoint's release) so ColumnarStats stays
	// monotone across reader retirement. Guarded by s.mu.
	retiredStats colblock.Stats

	blocksWritten       atomic.Int64
	materializations    atomic.Int64
	materializeFailures atomic.Int64
	seedFailures        atomic.Int64
}

// retireReaderLocked drops the store's owner reference on the checkpoint
// reader, folding a final counter snapshot into retiredStats. An
// in-flight read holding its own reference keeps the file open
// until it releases (any counters it adds after this snapshot are
// dropped — a bounded, read-only discrepancy). Caller holds s.mu.
func (s *Store) retireReaderLocked() {
	if s.col.rd == nil {
		return
	}
	st := s.col.rd.rd.Stats()
	s.col.retiredStats.BlocksScanned += st.BlocksScanned
	s.col.retiredStats.BlocksPruned += st.BlocksPruned
	s.col.retiredStats.BytesRead += st.BytesRead
	s.col.rd.release()
	s.col.rd = nil
}

// openCheckpoint validates the column-block checkpoint file ck — footer,
// sequence number, and the checksum of every block, so recovery never
// trusts half a checkpoint — and registers every window in it as lazy.
// Nothing is registered unless everything checked out. A sound file of
// another colblock version is ErrCheckpointFormat, any other failure
// ErrCorruptCheckpoint. Runs single-threaded inside Open.
func (s *Store) openCheckpoint(ck ckFile) (ckHeader, error) {
	rd, err := s.verifiedReader(ck.name, ck.seq)
	if errors.Is(err, colblock.ErrVersion) {
		return ckHeader{}, fmt.Errorf("%w: %s: %v; %s", ErrCheckpointFormat, ck.name, err, formatRemedy)
	}
	if err != nil {
		return ckHeader{}, fmt.Errorf("%w: %v", ErrCorruptCheckpoint, err)
	}
	for _, c := range rd.Windows() {
		lw := lazyFrom(rd, c)
		s.col.lazy[c] = lw
		s.total += lw.count
	}
	s.col.rd = newColReader(rd)
	meta := rd.Meta()
	return ckHeader{seq: meta.Seq, horizon: meta.Horizon, tuples: rd.Tuples(), maxTime: meta.MaxTime}, nil
}

// verifiedReader opens the checkpoint file name and checks what a store
// must know before it lets the file stand in for tuples it holds: the
// footer, the sequence number, and the checksum of every block.
func (s *Store) verifiedReader(name string, seq int) (*colblock.Reader, error) {
	rd, err := s.openColumnar(filepath.Join(s.cfg.Dir, name))
	if err != nil {
		return nil, err
	}
	err = rd.CheckBlocks()
	if got := rd.Meta().Seq; err == nil && got != seq {
		err = fmt.Errorf("file named %d holds checkpoint %d", seq, got)
	}
	if err != nil {
		rd.Close()
		return nil, err
	}
	return rd, nil
}

// baseUnreadable settles what a failed read of window c's base through cr
// (nil: the store was closed) means. If a checkpoint has meanwhile moved
// the window to a newer, verified file, nothing: the caller reads again.
// Otherwise the base is gone — a block went bad after it was verified and
// there is no second copy — and the window serves its in-memory suffix
// from now on, counted once; a restart checks the file again and falls
// back past it.
func (s *Store) baseUnreadable(c int, cr *colReader) (again bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lw, lazy := s.col.lazy[c]
	switch {
	case !lazy: // evicted, or another reader settled it
		return false
	case s.col.rd != cr:
		return true
	}
	delete(s.col.lazy, c)
	s.total -= lw.count
	if s.col.lost == nil {
		s.col.lost = make(map[int]bool)
	}
	s.col.lost[c] = true
	s.col.materializeFailures.Add(1)
	return false
}

// WindowBounds returns the exact spatial bounding box of window W_c
// without reading it: the lazy base contributes its zone-map union, each
// sealed chunk of the in-memory log the box it recorded when it was
// sealed, and the open chunk is scanned. ok is false for an empty or
// absent window. The result is identical to Window(c).Bounds() — zone
// maps and chunk boxes are exact min/max — at none of the copying or
// decoding cost.
func (s *Store) WindowBounds(c int) (geo.Rect, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	lw, lazy := s.col.lazy[c]
	r := geo.Rect{Min: geo.Point{X: lw.minX, Y: lw.minY}, Max: geo.Point{X: lw.maxX, Y: lw.maxY}}
	lg := s.windows[c]
	if lg.Len() == 0 {
		return r, lazy
	}
	mem, _ := lg.Bounds()
	if lazy {
		mem = r.Union(mem)
	}
	return mem, true
}

// WindowRegion returns window W_c's tuples whose positions fall inside
// region r — the merged two-source scan: a lazy base streams through the
// checkpoint file's block iterator, which skips whole blocks whose zone
// maps miss r, and the in-memory part (the post-checkpoint suffix, or the
// whole window when nothing is lazy) is read into pooled memory, its
// sealed chunks unpacked outside the lock, and filtered. The result's
// tuple set is exactly Window(c) filtered by r, in the file's block order
// followed by the suffix's append order, not sorted by time — use Window
// when time order matters.
func (s *Store) WindowRegion(c int, r geo.Rect) tuple.Batch {
	buf := baseBufs.Get().(*tuple.Batch)
	defer baseBufs.Put(buf)
	refs := chunkRefs.Get().(*[]colblock.Chunk)
	defer putRefs(refs)
	for {
		s.mu.RLock()
		_, lazy := s.col.lazy[c]
		cr := s.col.rd
		if lazy && cr != nil {
			cr.acquire()
		}
		lg := s.windows[c]
		mem := slices.Grow((*buf)[:0], lg.Len())[:lg.Len()]
		*refs = lg.Read(mem, 0, (*refs)[:0])
		s.mu.RUnlock()
		colblock.UnpackChunks(mem, *refs)
		*buf = mem
		var suffix tuple.Batch
		for _, tp := range mem {
			if r.Contains(tp.Pos()) {
				suffix = append(suffix, tp)
			}
		}
		if !lazy {
			return suffix
		}
		if cr != nil {
			var base tuple.Batch
			_, _, err := cr.rd.ScanWindowRegion(c, r.Min.X, r.Min.Y, r.Max.X, r.Max.Y, func(tp tuple.Raw) {
				base = append(base, tp)
			})
			cr.release()
			if err == nil {
				return append(base, suffix...)
			}
		}
		if !s.baseUnreadable(c, cr) {
			return suffix
		}
	}
}

// ColumnarStats returns a snapshot of the checkpoint file's counters.
func (s *Store) ColumnarStats() ColumnarStats {
	s.mu.RLock()
	lazy := len(s.col.lazy)
	rs := s.col.retiredStats
	if s.col.rd != nil {
		live := s.col.rd.rd.Stats()
		rs.BlocksScanned += live.BlocksScanned
		rs.BlocksPruned += live.BlocksPruned
		rs.BytesRead += live.BytesRead
	}
	s.mu.RUnlock()
	return ColumnarStats{
		SidecarsWritten:     s.CheckpointStats().Checkpoints,
		BlocksWritten:       s.col.blocksWritten.Load(),
		LazyWindows:         int64(lazy),
		Materializations:    s.col.materializations.Load(),
		MaterializeFailures: s.col.materializeFailures.Load(),
		SeedFailures:        s.col.seedFailures.Load(),
		BlocksScanned:       rs.BlocksScanned,
		BlocksPruned:        rs.BlocksPruned,
		BytesRead:           rs.BytesRead,
	}
}
