package store

import (
	"fmt"
	"path/filepath"
	"sync/atomic"

	"repro/internal/colblock"
	"repro/internal/geo"
	"repro/internal/tuple"
)

// Lazy windows
//
// Open does not decode the checkpoint it recovers from: it reads the
// file's footer, checksums every block, records each window's tuple count
// and zone maps, and materializes a window's base only when something
// asks for it. The segment suffix behind the checkpoint horizon still
// replays into memory as usual, so a window can be a lazy base in the
// checkpoint file plus an in-memory suffix — the two-source scan.
//
// A block that fails its checksum after Open passed it (the file changed
// underneath a running process) cannot be recovered from anywhere else:
// the window degrades to its in-memory suffix and the failure is counted.

// ColumnarConfig configures how the checkpoint file is read.
type ColumnarConfig struct {
	// Enabled is ignored: the column-block file is the only checkpoint
	// there is. The field stays because the frozen end-to-end benchmark
	// sets it.
	Enabled bool
	// DisableMmap forces the checkpoint reader onto the pread path. See
	// docs/OPERATIONS.md for when that is the right call.
	DisableMmap bool
}

// ColumnarStats counts the checkpoint file's activity on both sides:
// files written at checkpoint time, and how reads were served.
type ColumnarStats struct {
	// SidecarsWritten and BlocksWritten count committed checkpoint files
	// and their blocks (the first name dates from when the file was a
	// sidecar beside a row checkpoint).
	SidecarsWritten int64 `json:"sidecarsWritten"`
	BlocksWritten   int64 `json:"blocksWritten"`
	// LazyWindows is the number of windows currently served from the
	// checkpoint file without having been materialized.
	LazyWindows int64 `json:"lazyWindows"`
	// Materializations counts windows decoded from the file into memory
	// on demand; MaterializeFailures counts those whose base could not be
	// read (a block went bad after Open checked it, or the store was
	// closed) and that serve their in-memory suffix only.
	Materializations    int64 `json:"materializations"`
	MaterializeFailures int64 `json:"materializeFailures"`
	// Reader-side counters: blocks decoded, blocks skipped by zone map,
	// and how the bytes were accessed.
	BlocksScanned int64 `json:"blocksScanned"`
	BlocksPruned  int64 `json:"blocksPruned"`
	MmapReads     int64 `json:"mmapReads"`
	ReadAtReads   int64 `json:"readAtReads"`
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
	s.BlocksScanned += o.BlocksScanned
	s.BlocksPruned += o.BlocksPruned
	s.MmapReads += o.MmapReads
	s.ReadAtReads += o.ReadAtReads
	s.BytesRead += o.BytesRead
}

// colReader wraps the checkpoint reader with a reference count so that
// the store can drop it (Close, or a checkpoint that drained every lazy
// window) while a concurrent materialization is mid-scan: the mapping is
// unmapped only when the last user releases. name is the file it reads,
// which compaction spares while the reader lives.
type colReader struct {
	rd   *colblock.Reader
	name string
	refs atomic.Int64
}

func newColReader(rd *colblock.Reader, name string) *colReader {
	cr := &colReader{rd: rd, name: name}
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

// lazyWin describes a window whose checkpoint base has not been
// materialized: its tuple count and the zone-map union of its blocks.
type lazyWin struct {
	count                  int
	minX, minY, maxX, maxY float64
}

// columnarState is the store's lazy-window bookkeeping. rd and lazy are
// guarded by s.mu; the counters are atomics so the hot paths never take
// a stats lock.
type columnarState struct {
	rd   *colReader
	lazy map[int]*lazyWin

	// retiredStats carries the final counter snapshot of a dropped
	// reader (Close, or a checkpoint that drained every lazy window) so
	// ColumnarStats stays monotone across reader retirement. Guarded by
	// s.mu.
	retiredStats colblock.Stats

	sidecarsWritten     atomic.Int64
	blocksWritten       atomic.Int64
	materializations    atomic.Int64
	materializeFailures atomic.Int64
}

// retireReaderLocked drops the store's owner reference on the checkpoint
// reader, folding a final counter snapshot into retiredStats. An
// in-flight materialization holding its own reference keeps the mapping
// alive until it releases (any counters it adds after this snapshot are
// dropped — a bounded, read-only discrepancy). Caller holds s.mu.
func (s *Store) retireReaderLocked() {
	if s.col.rd == nil {
		return
	}
	st := s.col.rd.rd.Stats()
	s.col.retiredStats.BlocksScanned += st.BlocksScanned
	s.col.retiredStats.BlocksPruned += st.BlocksPruned
	s.col.retiredStats.MmapReads += st.MmapReads
	s.col.retiredStats.ReadAtReads += st.ReadAtReads
	s.col.retiredStats.BytesRead += st.BytesRead
	s.col.rd.release()
	s.col.rd = nil
}

// openCheckpoint validates the column-block checkpoint file ck — footer,
// sequence number, and the checksum of every block, so recovery never
// trusts half a checkpoint — and registers every window in it as lazy.
// Nothing is registered unless everything checked out. Runs
// single-threaded inside Open.
func (s *Store) openCheckpoint(ck ckFile) (ckHeader, error) {
	rd, err := colblock.OpenFile(filepath.Join(s.cfg.Dir, ck.name),
		colblock.Options{DisableMmap: s.cfg.Columnar.DisableMmap})
	if err != nil {
		return ckHeader{}, fmt.Errorf("%w: %v", ErrCorruptCheckpoint, err)
	}
	meta := rd.Meta()
	err = rd.CheckBlocks()
	if err == nil && meta.Seq != ck.seq {
		err = fmt.Errorf("file named %d holds checkpoint %d", ck.seq, meta.Seq)
	}
	if err != nil {
		rd.Close()
		return ckHeader{}, fmt.Errorf("%w: %v", ErrCorruptCheckpoint, err)
	}
	lazy := make(map[int]*lazyWin)
	for _, c := range rd.Windows() {
		z, _ := rd.WindowZone(c)
		lazy[c] = &lazyWin{count: z.Count, minX: z.MinX, minY: z.MinY, maxX: z.MaxX, maxY: z.MaxY}
		s.total += z.Count
	}
	s.col.rd = newColReader(rd, ck.name)
	s.col.lazy = lazy
	return ckHeader{seq: meta.Seq, horizon: meta.Horizon, tuples: rd.Tuples(), maxTime: meta.MaxTime}, nil
}

// materializeWindow installs window c's checkpoint base into memory:
// decode it from the checkpoint file, then prepend it to whatever
// segment-suffix tuples already accumulated in memory. Safe for
// concurrent use; the loser of a materialization race discards its copy.
func (s *Store) materializeWindow(c int) {
	s.mu.Lock()
	lw := s.col.lazy[c]
	if lw == nil {
		s.mu.Unlock()
		return
	}
	cr := s.col.rd
	if cr != nil {
		cr.acquire()
	}
	s.mu.Unlock()

	var base tuple.Batch // stays nil unless the file yields exactly lw.count (> 0) tuples
	if cr != nil {
		b, err := cr.rd.WindowTuples(c)
		cr.release()
		if err == nil && len(b) == lw.count {
			base = b
		}
	}
	if base == nil {
		// The base is unreadable (a block went bad after Open checked it,
		// or the store was closed) and there is no second copy. A restart
		// checks the file again and falls back past it; for this process
		// the window serves its in-memory suffix only, and the failure is
		// counted.
		s.col.materializeFailures.Add(1)
	}

	s.mu.Lock()
	if s.col.lazy[c] == nil {
		// Evicted, or another materializer won; its installation stands.
		s.mu.Unlock()
		return
	}
	delete(s.col.lazy, c)
	s.col.materializations.Add(1)
	if len(base) > 0 {
		s.windows[c] = append(base, s.windows[c]...)
	}
	s.total += len(base) - lw.count
	s.mu.Unlock()
}

// WindowBounds returns the exact spatial bounding box of window W_c
// without materializing it: the lazy base contributes its zone-map
// union, the in-memory part is scanned. ok is false for an empty or
// absent window. The result is identical to Window(c).Bounds() — zone
// maps are exact min/max — at none of the copying or decoding cost.
func (s *Store) WindowBounds(c int) (geo.Rect, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var r geo.Rect
	ok := false
	if lw := s.col.lazy[c]; lw != nil {
		r = geo.Rect{Min: geo.Point{X: lw.minX, Y: lw.minY}, Max: geo.Point{X: lw.maxX, Y: lw.maxY}}
		ok = true
	}
	for _, tp := range s.windows[c] {
		if !ok {
			r = geo.Rect{Min: tp.Pos(), Max: tp.Pos()}
			ok = true
			continue
		}
		r = r.ExpandToPoint(tp.Pos())
	}
	return r, ok
}

// WindowRegion returns window W_c's tuples whose positions fall inside
// region r — the merged two-source scan: a lazy base streams through the
// checkpoint file's block iterator, which skips whole blocks whose zone
// maps miss r, and the in-memory part (the post-checkpoint suffix, or the
// whole window when nothing is lazy) is filtered directly. The window is
// never materialized. The result's tuple set is exactly Window(c)
// filtered by r, but its order is the file's (cell, time) sort followed
// by the suffix's append order — use Window when append order matters.
func (s *Store) WindowRegion(c int, r geo.Rect) tuple.Batch {
	s.mu.RLock()
	lw := s.col.lazy[c]
	var cr *colReader
	if lw != nil && s.col.rd != nil {
		cr = s.col.rd
		cr.acquire()
	}
	var suffix tuple.Batch
	for _, tp := range s.windows[c] {
		if r.Contains(tp.Pos()) {
			suffix = append(suffix, tp)
		}
	}
	s.mu.RUnlock()
	if lw == nil {
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
	// The base could not be scanned (a block went bad, or the store was
	// closed): materializing settles what the window holds from now on —
	// and counts the failure — so filter that.
	s.materializeWindow(c)
	w := s.Window(c)
	out := w[:0]
	for _, tp := range w {
		if r.Contains(tp.Pos()) {
			out = append(out, tp)
		}
	}
	return out
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
		rs.MmapReads += live.MmapReads
		rs.ReadAtReads += live.ReadAtReads
		rs.BytesRead += live.BytesRead
	}
	s.mu.RUnlock()
	return ColumnarStats{
		SidecarsWritten:     s.col.sidecarsWritten.Load(),
		BlocksWritten:       s.col.blocksWritten.Load(),
		LazyWindows:         int64(lazy),
		Materializations:    s.col.materializations.Load(),
		MaterializeFailures: s.col.materializeFailures.Load(),
		BlocksScanned:       rs.BlocksScanned,
		BlocksPruned:        rs.BlocksPruned,
		MmapReads:           rs.MmapReads,
		ReadAtReads:         rs.ReadAtReads,
		BytesRead:           rs.BytesRead,
	}
}
