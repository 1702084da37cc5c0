// Package store implements the server-side raw-tuple database of the
// EnviroMeter architecture (Figure 1: the `raw_tuples` table). Sensed data
// arrives as a stream of raw tuples and is organized into the paper's time
// windows W_c = [cH, (c+1)H): all query processing — naive scans, index
// builds, and model-cover estimation — operates on one window at a time.
//
// The store keeps recent windows in memory and optionally persists every
// appended batch to checksummed segment files for crash recovery, giving
// the platform the durability a real deployment ingesting a month of bus
// data needs.
//
// # Segment hygiene
//
// A failed batch write can leave a torn (partial) frame at the tail of
// the open segment. The store never writes after a torn frame: on a write
// error it truncates the segment back to the last good frame boundary,
// and if even the truncate fails it abandons the segment and rotates to a
// fresh one. Recovery relies on this invariant — a corrupt frame always
// sits at a segment's tail, so replay keeps every frame before it and
// ignores the rest of that segment only.
//
// # Durability and sync policy
//
// Historically the store acknowledged a durable Append as soon as the
// frame reached the OS (write(2)); fsync happened only on Sync and Close,
// so a machine crash could lose every acknowledged batch since the last
// explicit Sync. That weak guarantee is now opt-in: Config.Sync selects
// when appends reach stable storage, and its zero value is SyncEveryBatch
// — an Append with Dir set does not return before its frame is fsynced.
// SyncNever restores the historical write-and-ack behavior. The store
// does not batch fsyncs itself: the ingest pipeline coalesces queued
// uploads into one Append, and that is what makes fsyncs < uploads.
//
// # Checkpoints, recovery, and compaction
//
// Without checkpoints the segment log only ever grows, and every Open
// replays all of it just to evict most of what it read. Checkpoint
// bounds both: it writes the retained windows to checkpoint-%06d.emc
// (checksummed column blocks behind a checksummed footer, see
// internal/colblock), commits it via an atomically-replaced checksummed
// MANIFEST, and then deletes every segment at or below the checkpoint
// horizon — the open segment is rotated as part of the checkpoint, so
// the horizon is exact. Open
// recovers from the newest valid checkpoint (preferring the one the
// MANIFEST names), leaving its windows in the file — as a running store
// leaves every window it has checkpointed (columnar.go) — and replays
// only the segments after its horizon; a
// corrupt or missing checkpoint falls back to the next candidate and
// ultimately to full replay of whatever segments exist. A
// checkpoint in a format the store does not write fails Open with
// ErrCheckpointFormat instead, the directory untouched: it may hold
// tuples no segment does. Recovery also
// finishes interrupted compactions and deletes segments it can prove
// lie entirely behind the retention horizon, so disk stays bounded even
// when checkpoints never run. RecoveryStats reports which path Open
// took and how much it replayed; CheckpointStats counts checkpoint
// activity. See checkpoint.go for the exact file formats.
package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/colblock"
	"repro/internal/tuple"
)

// SyncMode selects when durable appends are flushed to stable storage.
type SyncMode int

const (
	// SyncModeEveryBatch fsyncs the segment after every appended batch,
	// before the append is acknowledged. The default when Dir is set.
	SyncModeEveryBatch SyncMode = iota
	// SyncModeNever issues no policy-driven fsyncs: appends are
	// acknowledged once written to the OS, and data reaches stable
	// storage only on Sync, Close, or at the kernel's leisure. This is
	// the store's historical (pre-sync-policy) behavior.
	SyncModeNever
)

// SyncPolicy configures when durable appends are flushed; build one with
// SyncEveryBatch or SyncNever. The zero value is SyncEveryBatch().
type SyncPolicy struct {
	Mode SyncMode
}

// SyncEveryBatch returns the policy that fsyncs every appended batch
// before acknowledging it.
func SyncEveryBatch() SyncPolicy { return SyncPolicy{Mode: SyncModeEveryBatch} }

// SyncNever returns the policy that never fsyncs on append.
func SyncNever() SyncPolicy { return SyncPolicy{Mode: SyncModeNever} }

// maxKeptFrame bounds the segment-frame buffer the store keeps between
// appends (32 Ki tuples); a larger frame is built in a buffer of its own.
const maxKeptFrame = 1 << 20

// DurabilityStats counts the store's durable writes and fsyncs — the
// observable effect of the sync policy (under SyncEveryBatch, Syncs
// follows Appends; under SyncNever it stays near zero).
type DurabilityStats struct {
	// Appends is the number of batches durably written to segments.
	Appends int64
	// Syncs is the number of fsyncs issued (policy-driven, manual Sync,
	// and the final sync in Close).
	Syncs int64
}

// Config configures a Store.
type Config struct {
	// WindowLength is H, in seconds of stream time. Must be positive.
	WindowLength float64
	// Retain bounds how many windows are kept in memory; older windows are
	// evicted. Zero means keep everything (the benchmark setting).
	Retain int
	// Dir, when non-empty, enables durability: every appended batch is
	// written to a segment file under Dir before being acknowledged.
	Dir string
	// Sync selects when durable appends reach stable storage. The zero
	// value is SyncEveryBatch(); see SyncNever. Ignored when Dir is
	// empty.
	Sync SyncPolicy
	// KeepSegments spares the newest N checkpoint-covered segments from
	// compaction — a safety margin that keeps recent raw history on disk
	// even after a checkpoint supersedes it. 0 deletes every covered
	// segment.
	KeepSegments int
	// Columnar is ignored (see ColumnarConfig).
	Columnar ColumnarConfig
}

// Store is a windowed, optionally durable raw-tuple store. It is safe for
// concurrent use.
type Store struct {
	mu  sync.RWMutex
	cfg Config
	// windows maps window index c to the log of W_c's tuples held in
	// memory: all of them, or those behind the window's lazy base
	// (col.lazy). Only the newest window's log and those in late have an
	// open chunk; every other window's is sealed (addToWindows).
	windows map[int]*colblock.Log
	total   int     // tuples currently held, lazy bases included
	maxTime float64 // largest timestamp ever appended
	// late lists the windows behind the newest that late tuples reached
	// since the newest window moved or the last checkpoint's snapshot,
	// first reached first: at most maxOpenLate, each of whose logs may
	// keep an open chunk.
	late []int

	seg    *segHandle // open segment, nil when durability is off
	segSeq int
	segOff int64 // end offset of the last intact frame in seg
	closed bool  // Close was called; durable appends must fail

	// retired holds segment handles sealed by a checkpoint but not yet
	// doomed: an every-batch Append that captured a handle before the
	// seal still fsyncs it through its own reference. The next checkpoint
	// (or Close) dooms them; the refcount defers the actual close past
	// any fsync still in flight.
	retired []*segHandle

	// col is the lazy-window state (checkpoint reader, lazy windows,
	// counters); see columnar.go.
	col columnarState

	appends atomic.Int64
	syncs   atomic.Int64

	// evictHooks run after windows are evicted, outside the store lock,
	// in registration order. Guarded by mu; keyed for unregistration.
	evictHooks map[int]func(evicted []int)
	nextHookID int
	// seeder gives Checkpoint the seeds it writes (nil: none), and
	// seederID is its registration's hook ID. Guarded by mu.
	seeder   SeedFunc
	seederID int

	// ckMu serializes Checkpoint calls; ckStatsMu guards ckStats so
	// stats reads never block behind a running checkpoint. ckSeq (the
	// next checkpoint sequence) is guarded by mu, like segSeq. recovery
	// is written by Open only and immutable afterwards.
	ckMu      sync.Mutex
	ckStatsMu sync.Mutex
	ckSeq     int
	ckStats   CheckpointStats
	recovery  RecoveryStats
	// ckSnapshot is set while a checkpoint is between taking its snapshot
	// and releasing it, and ckEvicted collects the windows evicted
	// meanwhile: what the snapshot says of them is about tuples the store
	// no longer holds. Guarded by mu.
	ckSnapshot bool
	ckEvicted  []int

	// frame is the segment frame of the batch being appended, rebuilt in
	// place by every durable append (persistLocked runs under mu).
	frame []byte
	// writeFrame writes one encoded batch frame to the segment; swapped by
	// tests to inject torn writes. Defaults to a plain Write.
	writeFrame func(w io.Writer, frame []byte) error
	// syncSeg flushes a file to stable storage; swapped by tests to
	// count or fail fsyncs. Defaults to (*os.File).Sync.
	syncSeg func(f *os.File) error
	// renameFile and removeFile are the checkpoint/compaction filesystem
	// ops, swapped by the crash-injection tests. Default os.Rename and
	// os.Remove.
	renameFile func(oldpath, newpath string) error
	removeFile func(path string) error
	// openColumnar opens a checkpoint file for reading; the crash tests
	// wrap it to see (and damage the file before) a checkpoint's read-back.
	openColumnar func(path string) (*colblock.Reader, error)
}

// segHandle wraps an open segment file with a reference count so the
// fsync-outside-the-lock paths (every-batch Append, a checkpoint's
// deferred seal sync) never race the close issued by the
// next checkpoint: each such path acquires a reference under the store
// lock while the handle is current, and doom defers the close until the
// last reference releases. Without this, a checkpoint closing the
// previous checkpoint's retired handles while an append's fsync was
// still in flight turned acknowledged-durable appends into EBADF sync
// errors.
type segHandle struct {
	f      *os.File
	refs   atomic.Int32
	doomed atomic.Bool
	closed atomic.Bool
}

// acquire takes a reference. Callers hold the store mutex, which orders
// every acquire before the doom that could close the file.
func (h *segHandle) acquire() { h.refs.Add(1) }

// release drops a reference, closing a doomed handle when the last
// reference goes.
func (h *segHandle) release() {
	if h.refs.Add(-1) == 0 && h.doomed.Load() {
		h.closeOnce()
	}
}

// doom marks the handle for close, closing immediately when no fsync is
// in flight. Called with the store mutex held.
func (h *segHandle) doom() {
	h.doomed.Store(true)
	if h.refs.Load() == 0 {
		h.closeOnce()
	}
}

// closeNow closes immediately when unreferenced (returning the close
// error) and dooms otherwise. Called with the store mutex held; used by
// Close, which wants the error when it can have one.
func (h *segHandle) closeNow() error {
	if h.refs.Load() == 0 {
		if h.closed.CompareAndSwap(false, true) {
			return h.f.Close()
		}
		return nil
	}
	h.doom()
	return nil
}

// closeOnce closes the file exactly once, no matter how many of doom and
// the racing releases reach it.
func (h *segHandle) closeOnce() {
	if h.closed.CompareAndSwap(false, true) {
		h.f.Close()
	}
}

// Open creates a store. If cfg.Dir is non-empty, existing segment files in
// it are replayed (recovery) and a new segment is opened for appends.
func Open(cfg Config) (*Store, error) {
	if cfg.WindowLength <= 0 {
		return nil, fmt.Errorf("store: WindowLength = %v, want > 0", cfg.WindowLength)
	}
	if cfg.Retain < 0 {
		return nil, fmt.Errorf("store: Retain = %d, want ≥ 0", cfg.Retain)
	}
	if cfg.KeepSegments < 0 {
		return nil, fmt.Errorf("store: KeepSegments = %d, want ≥ 0", cfg.KeepSegments)
	}
	switch cfg.Sync.Mode {
	case SyncModeEveryBatch, SyncModeNever:
	default:
		return nil, fmt.Errorf("store: unknown sync mode %d", cfg.Sync.Mode)
	}
	s := &Store{
		cfg:          cfg,
		windows:      make(map[int]*colblock.Log),
		col:          columnarState{lazy: make(map[int]lazyWin)},
		writeFrame:   writeWhole,
		syncSeg:      func(f *os.File) error { return f.Sync() },
		renameFile:   os.Rename,
		removeFile:   os.Remove,
		openColumnar: colblock.OpenFile,
	}
	s.ckStats.LastSeq = -1
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: create dir: %w", err)
		}
		if err := s.recover(); err != nil {
			return nil, err
		}
		if err := s.openSegment(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// writeWhole is the default writeFrame.
func writeWhole(w io.Writer, frame []byte) error {
	_, err := w.Write(frame)
	return err
}

// MustOpenMemory returns an in-memory store or panics; a convenience for
// tests and examples where the config is a known-good literal.
func MustOpenMemory(windowLength float64) *Store {
	s, err := Open(Config{WindowLength: windowLength})
	if err != nil {
		panic(err)
	}
	return s
}

// recover rebuilds the in-memory windows from cfg.Dir: from the newest
// valid checkpoint plus the segment suffix behind its horizon when one
// exists, otherwise by full replay of every segment file. A trailing
// corrupt frame (torn write) ends a segment's replay: the write path
// guarantees nothing valid follows a torn frame within a segment (it
// truncates or rotates on write error), so the frames before it are
// kept and replay continues with the next segment. Recovery also
// deletes segments that no longer matter — those covered by the used
// checkpoint (finishing an interrupted compaction) and those whose
// every frame lies entirely behind the retention horizon. A checkpoint
// this release does not read (ErrCheckpointFormat) fails it before it has
// changed anything in the directory.
func (s *Store) recover() error {
	names, err := segmentNames(s.cfg.Dir)
	if err != nil {
		return err
	}
	cks, err := checkpointFiles(s.cfg.Dir)
	if err != nil {
		return err
	}
	if len(cks) > 0 {
		s.ckSeq = cks[0].seq + 1
	}

	// Candidate order: the manifest-committed checkpoint first (the
	// common case needs exactly one validation), then the rest newest
	// first — a complete checkpoint whose manifest rename was lost is
	// still preferable to replaying the whole log.
	if manSeq, _, err := readManifest(s.cfg.Dir); err == nil {
		i := slices.IndexFunc(cks, func(ck ckFile) bool { return ck.seq == manSeq })
		if i < 0 {
			s.recovery.CorruptCheckpoints++ // the committed checkpoint is gone
		} else {
			committed := cks[i]
			copy(cks[1:i+1], cks[:i])
			cks[0] = committed
		}
	}
	horizon := -1
	for _, ck := range cks {
		// The file is checked and its windows left lazy: no tuple is
		// decoded until something asks for its window.
		hdr, err := s.openCheckpoint(ck)
		if errors.Is(err, ErrCheckpointFormat) {
			return err
		}
		if err != nil {
			s.recovery.CorruptCheckpoints++
			continue
		}
		// The recovered checkpoint IS the newest committed one: seed the
		// checkpoint counters so LastSeq survives a restart (the window
		// count is read before eviction — it is the checkpoint's, even
		// if a lowered Retain trims it right after).
		s.ckStats.LastSeq = int64(ck.seq)
		s.ckStats.LastWindows = int64(len(s.windows) + len(s.col.lazy))
		s.ckStats.LastTuples = int64(hdr.tuples)
		s.evictLocked()
		// The header's maxTime can exceed every retained tuple's (the
		// tuple that set it may live in an evicted window); restoring it
		// keeps MaxTime exact across restarts.
		if hdr.maxTime > s.maxTime {
			s.maxTime = hdr.maxTime
		}
		horizon = hdr.horizon
		s.recovery.FromCheckpoint = true
		s.recovery.CheckpointSeq = ck.seq
		s.recovery.CheckpointTuples = hdr.tuples
		break
	}
	s.removeStrayTmp()

	type segInfo struct {
		name    string
		covered bool // at or below the used checkpoint's horizon
		frames  int
		maxWin  int
	}
	infos := make([]segInfo, 0, len(names))
	for _, name := range names {
		seq, _ := parseSeq(name, "segment-", segExt)
		if s.recovery.FromCheckpoint && seq <= horizon {
			infos = append(infos, segInfo{name: name, covered: true})
			continue
		}
		frames, maxWin, tuples, err := s.replaySegment(filepath.Join(s.cfg.Dir, name))
		if err != nil {
			return err
		}
		s.recovery.SegmentsReplayed++
		s.recovery.TuplesReplayed += tuples
		infos = append(infos, segInfo{name: name, frames: frames, maxWin: maxWin})
		// Re-apply the retention bound as we go: segments hold every
		// window ever appended, and a restarted store must come back no
		// larger than a running one — nor hold more than ~Retain windows
		// plus one segment's worth at any point during replay. No hooks
		// can be registered yet, so the evicted list needs no fan-out.
		s.evictLocked()
	}
	switch {
	case len(names) > 0:
		last, _ := parseSeq(names[len(names)-1], "segment-", segExt)
		s.segSeq = last + 1
	case horizon >= 0:
		// All segments compacted away: keep numbering past the horizon
		// so a future checkpoint's coverage claim stays unambiguous.
		s.segSeq = horizon + 1
	}

	// Deletion pass. Covered segments are an interrupted compaction (or
	// a lowered KeepSegments); resume it with the same sparing rule
	// Checkpoint's own compaction uses. When no checkpoint was usable,
	// horizon is -1 and nothing is covered. Before deleting anything,
	// the manifest must name the checkpoint actually used: recovery may
	// have picked one the manifest does not point at (orphaned by a
	// crashed commit, or a fallback past an unreadable candidate), and
	// deleting its covered segments while MANIFEST names another
	// checkpoint would let a later recovery prefer that other
	// checkpoint and look for segments that no longer exist.
	if s.recovery.FromCheckpoint {
		committed := false
		if manSeq, manHor, err := readManifest(s.cfg.Dir); err == nil &&
			manSeq == s.recovery.CheckpointSeq && manHor == horizon {
			committed = true
		} else if err := s.writeManifest(s.recovery.CheckpointSeq, horizon); err == nil {
			committed = true
		}
		if committed {
			for _, name := range s.coveredToDelete(names, horizon) {
				if s.removeFile(filepath.Join(s.cfg.Dir, name)) == nil {
					s.recovery.SegmentsDeleted++
				}
			}
		}
	}
	// Retention-dead segments: every intact frame sits in a window
	// older than the oldest retained one, so replaying this segment
	// again can never contribute data — reclaim it now instead of
	// re-reading it on every restart. (A torn tail holds no
	// acknowledged data, so it does not keep a segment alive.)
	if retained := s.unionIndexesLocked(); s.cfg.Retain > 0 && len(retained) > 0 {
		minRetained := retained[0]
		for _, in := range infos {
			if in.covered {
				continue
			}
			if in.frames == 0 || in.maxWin < minRetained {
				if s.removeFile(filepath.Join(s.cfg.Dir, in.name)) == nil {
					s.recovery.SegmentsDeleted++
				}
			}
		}
	}
	return nil
}

// removeStrayTmp clears ".tmp" leftovers of checkpoint/manifest writes
// that crashed before their rename. Best-effort: a leftover is inert.
func (s *Store) removeStrayTmp() {
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".tmp" {
			os.Remove(filepath.Join(s.cfg.Dir, e.Name()))
		}
	}
}

// segmentNames lists the segment files in dir in sequence order.
func segmentNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: read dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if _, ok := parseSeq(e.Name(), "segment-", segExt); ok {
			names = append(names, e.Name())
		}
	}
	sort.Slice(names, func(i, j int) bool {
		a, _ := parseSeq(names[i], "segment-", segExt)
		b, _ := parseSeq(names[j], "segment-", segExt)
		return a < b
	})
	return names, nil
}

// replaySegment replays one segment into the windows, returning how
// many intact frames and tuples it contributed and the largest window
// index it touched (meaningless when frames is 0).
func (s *Store) replaySegment(path string) (frames, maxWin, tuples int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("store: open segment: %w", err)
	}
	defer f.Close()
	var off int64 // start of the frame being read
	for {
		b, err := tuple.ReadBinary(f)
		if errors.Is(err, io.EOF) {
			return frames, maxWin, tuples, nil
		}
		if errors.Is(err, tuple.ErrCorrupt) {
			// A torn tail write (crash, or a rotated-away segment) is
			// legitimate: everything before it is intact and the write
			// discipline guarantees nothing was appended after it. An
			// intact frame AFTER the corruption cannot come from that
			// discipline — that is real damage (bitrot, external
			// writes), and silently dropping the acknowledged frames
			// behind it would be data loss, so fail loudly. Only this
			// rare path buffers the file to scan past the corruption —
			// and if the file cannot even be re-read, refuse to guess.
			data, rerr := os.ReadFile(path)
			if rerr != nil {
				return frames, maxWin, tuples, fmt.Errorf("store: segment %s: %w (could not verify torn tail: %v)", path, err, rerr)
			}
			if off+1 < int64(len(data)) && tuple.ContainsFrame(data[off+1:]) {
				return frames, maxWin, tuples, fmt.Errorf("store: segment %s: %w (intact frames follow the corruption; not a torn tail)", path, err)
			}
			return frames, maxWin, tuples, nil
		}
		if err != nil {
			return frames, maxWin, tuples, fmt.Errorf("store: segment %s: %w", path, err)
		}
		s.addToWindows(b)
		for i, r := range b {
			if c := tuple.WindowIndex(r.T, s.cfg.WindowLength); (frames == 0 && i == 0) || c > maxWin {
				maxWin = c
			}
		}
		frames++
		tuples += len(b)
		off += int64(tuple.EncodedSize(len(b)))
	}
}

func (s *Store) openSegment() error {
	path := filepath.Join(s.cfg.Dir, fmt.Sprintf("segment-%06d"+segExt, s.segSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: open segment for append: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: stat segment: %w", err)
	}
	s.seg = &segHandle{f: f}
	s.segOff = info.Size()
	return nil
}

// Append validates and ingests a batch of raw tuples. With durability on,
// the batch is persisted before the in-memory state is updated and — per
// the sync policy — flushed to stable storage before Append returns; a
// batch that cannot be persisted is not ingested. A sync failure is
// returned to the append it covers (the in-memory state keeps the batch;
// only its durability is in doubt). Eviction hooks registered with
// OnEvict run after the append, outside the store lock.
func (s *Store) Append(b tuple.Batch) error {
	if len(b) == 0 {
		return nil
	}
	if err := b.Validate(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	if s.cfg.Dir != "" {
		if err := s.persistLocked(b); err != nil {
			s.mu.Unlock()
			return err
		}
	}
	s.addToWindows(b)
	evicted := s.evictLocked()
	var hooks []func(evicted []int)
	if len(evicted) > 0 && len(s.evictHooks) > 0 {
		ids := make([]int, 0, len(s.evictHooks))
		for id := range s.evictHooks {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		hooks = make([]func(evicted []int), len(ids))
		for i, id := range ids {
			hooks[i] = s.evictHooks[id]
		}
	}
	var everySeg *segHandle
	if s.cfg.Dir != "" && s.seg != nil && s.cfg.Sync.Mode == SyncModeEveryBatch {
		everySeg = s.seg
		everySeg.acquire()
	}
	s.mu.Unlock()
	var syncErr error
	if everySeg != nil {
		// Fsync outside the lock: holding mu through an fsync would stall
		// every reader (the whole query path) per append. The frame is
		// already written, and the acquired reference keeps the handle
		// open past any concurrent checkpoint that retires and dooms it.
		syncErr = s.doSync(everySeg.f)
		everySeg.release()
	}
	for _, fn := range hooks {
		fn(evicted)
	}
	if syncErr != nil {
		return fmt.Errorf("store: sync: %w", syncErr)
	}
	return nil
}

// doSync flushes f to stable storage, counting the fsync.
func (s *Store) doSync(f *os.File) error {
	s.syncs.Add(1)
	return s.syncSeg(f)
}

// DurabilityStats returns the append/fsync counters.
func (s *Store) DurabilityStats() DurabilityStats {
	return DurabilityStats{Appends: s.appends.Load(), Syncs: s.syncs.Load()}
}

// persistLocked writes one batch frame to the open segment, maintaining
// the invariant that the segment never holds bytes after a torn frame: a
// failed write is rolled back by truncating to the last good frame
// boundary, and if the truncate fails too the segment is abandoned and a
// fresh one rotated in. Caller holds mu.
func (s *Store) persistLocked(b tuple.Batch) error {
	if s.closed {
		return errors.New("store: closed")
	}
	if s.seg == nil {
		// The previous rotation failed; retry so durability heals as
		// soon as the directory is writable again.
		if err := s.openSegment(); err != nil {
			return err
		}
	}
	s.frame = tuple.AppendBinary(s.frame[:0], b)
	//lockcheck:allow writeFrame is the test crash-injection seam; segment writes must serialize under mu
	err := s.writeFrame(s.seg.f, s.frame)
	if cap(s.frame) > maxKeptFrame {
		s.frame = nil // one bulk load must not pin its frame for good
	}
	if err != nil {
		werr := fmt.Errorf("store: persist batch: %w", err)
		if terr := s.seg.f.Truncate(s.segOff); terr == nil {
			return werr
		}
		// Truncate failed: the torn frame stays, so this segment must
		// never be appended to again. Before abandoning it, sync it
		// best-effort — an every-batch append racing toward its own fsync
		// holds a reference and reports its own outcome.
		_ = s.doSync(s.seg.f)
		s.seg.doom()
		s.seg = nil
		s.segSeq++
		if oerr := s.openSegment(); oerr != nil {
			return errors.Join(werr, oerr)
		}
		return werr
	}
	s.segOff += int64(tuple.EncodedSize(len(b)))
	s.appends.Add(1)
	return nil
}

// OnEvict registers fn to run after windows are evicted by the retention
// bound. Hooks run outside the store lock, in registration order, with
// the evicted window indexes in ascending order. The cover maintainer
// uses this to keep its cache within the retention horizon. The returned
// function unregisters the hook — otherwise the store keeps (and keeps
// invoking) it for its whole lifetime.
func (s *Store) OnEvict(fn func(evicted []int)) (unregister func()) {
	s.mu.Lock()
	if s.evictHooks == nil {
		s.evictHooks = make(map[int]func(evicted []int))
	}
	id := s.nextHookID
	s.nextHookID++
	s.evictHooks[id] = fn
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		delete(s.evictHooks, id)
		s.mu.Unlock()
	}
}

// SeedFunc gives the seed a checkpoint writes beside window c, which it
// holds n tuples of — what the cover maintainer keeps of the window's
// model cover (colblock.Seed). sealed reports a window behind the newest
// one (which is still filling) and not carried over with a seed: fn may
// bring its cover up to date, reading the store, before it answers. ok
// false writes no seed. It runs outside the store lock, concurrently with
// appends and reads.
type SeedFunc func(c, n int, sealed bool) (seed colblock.Seed, ok bool)

// OnCheckpoint registers fn as the source of the seeds Checkpoint writes,
// in place of any registered before. The returned function unregisters it
// (and nothing registered after it).
func (s *Store) OnCheckpoint(fn SeedFunc) (unregister func()) {
	s.mu.Lock()
	id := s.nextHookID
	s.nextHookID++
	s.seeder, s.seederID = fn, id
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		if s.seederID == id {
			s.seeder = nil
		}
		s.mu.Unlock()
	}
}

// Retain returns the store's retention bound (0 = unbounded).
func (s *Store) Retain() int { return s.cfg.Retain }

// maxOpenLate is how many windows behind the newest may keep an open
// chunk. Late tuples come in runs, a run after another into the same few
// windows (an uplink that was down flushes its backlog, uploads straddle
// an hour's end); a window sealed after each run would be unpacked and
// packed again by the next one.
const maxOpenLate = 4

// addToWindows distributes tuples into their windows' logs, one run of
// same-window tuples at a time. When a run moves past the newest window it
// seals the newest's log and those of the late windows — before the run
// takes an open chunk, so the one it gives back is the one taken — and a
// run that reaches a late window beyond maxOpenLate seals the late window
// reached first. So the newest window and at most maxOpenLate windows
// behind it hold raw tuples, and a window is packed again only when it
// gets late tuples after it was sealed. Caller holds mu (or is
// single-threaded recovery).
func (s *Store) addToWindows(b tuple.Batch) {
	h := s.cfg.WindowLength
	newest := tuple.WindowIndex(s.maxTime, h)
	for len(b) > 0 {
		c := tuple.WindowIndex(b[0].T, h)
		n := 1
		for n < len(b) && tuple.WindowIndex(b[n].T, h) == c {
			n++
		}
		switch {
		case c > newest:
			s.sealWindow(newest)
			for _, l := range s.late {
				s.sealWindow(l)
			}
			s.late = s.late[:0]
			newest = c
		case c < newest && !slices.Contains(s.late, c):
			if len(s.late) == maxOpenLate {
				s.sealWindow(s.late[0])
				s.late = slices.Delete(s.late, 0, 1)
			}
			s.late = append(s.late, c)
		}
		lg := s.windows[c]
		if lg == nil {
			lg = new(colblock.Log)
			s.windows[c] = lg
		}
		lg.Append(b[:n])
		s.total += n
		for _, r := range b[:n] {
			if r.T > s.maxTime {
				s.maxTime = r.T
			}
		}
		b = b[n:]
	}
}

// sealWindow seals window c's log, if it has one. Caller holds mu.
func (s *Store) sealWindow(c int) {
	if lg := s.windows[c]; lg != nil {
		lg.Seal()
	}
}

// unionIndexesLocked returns the distinct retained window indexes —
// in-memory and lazy — in ascending order. Caller holds mu.
func (s *Store) unionIndexesLocked() []int {
	idxs := make([]int, 0, len(s.windows)+len(s.col.lazy))
	for c := range s.windows {
		idxs = append(idxs, c)
	}
	for c := range s.col.lazy {
		if _, ok := s.windows[c]; !ok {
			idxs = append(idxs, c)
		}
	}
	sort.Ints(idxs)
	return idxs
}

// evictLocked drops the oldest windows beyond the retention bound and
// returns their indexes in ascending order (nil when nothing is evicted).
// A window counts once whether it lives in memory, lazily in the
// checkpoint file, or (base + suffix) in both; eviction drops both
// halves.
func (s *Store) evictLocked() []int {
	// The common append — nothing to evict — returns before collecting and
	// sorting the indexes: the union holds at most len(windows)+len(lazy)
	// of them, less the windows counted twice, a lazy base with a suffix.
	// Those are looked for only when the sum alone does not settle it, and
	// then among the windows in memory, which after a checkpoint are few.
	if s.cfg.Retain == 0 {
		return nil
	}
	n := len(s.windows) + len(s.col.lazy)
	if n > s.cfg.Retain {
		for c := range s.windows {
			if _, lazy := s.col.lazy[c]; lazy {
				n--
			}
		}
	}
	if n <= s.cfg.Retain {
		return nil
	}
	idxs := s.unionIndexesLocked()
	evicted := idxs[:len(idxs)-s.cfg.Retain]
	for _, c := range evicted {
		s.total -= s.windows[c].Len() + s.col.lazy[c].count
		delete(s.windows, c)
		delete(s.col.lazy, c)
		delete(s.col.lost, c)
	}
	if s.ckSnapshot {
		s.ckEvicted = append(s.ckEvicted, evicted...)
	}
	return evicted
}

// Window returns a copy of the tuples in window W_c, sorted by time, that
// the caller may keep and mutate. A window whose base lies in the
// checkpoint file is decoded from it — on every call: the store keeps no
// second copy — so callers see the full base + suffix contents either way.
func (s *Store) Window(c int) tuple.Batch { return s.WindowInto(nil, c) }

// WindowSeedInto is WindowInto that also returns the seed the checkpoint
// file keeps for window W_c, when the window is exactly the tuples that
// seed was built over: a lazy base with nothing appended since, whose seed
// record reads back sound and counts as many tuples. The tuples and the
// seed come from one critical section, so an append racing the read either
// lands before it — and the window has a suffix and no seed — or after it.
// A seed record that fails its checks is counted in
// ColumnarStats.SeedFailures and costs the caller only the seed.
func (s *Store) WindowSeedInto(dst tuple.Batch, c int) (tuple.Batch, colblock.Seed, bool) {
	return s.windowInto(dst, c, true)
}

// WindowInto is Window into memory the caller owns: it appends window
// W_c's tuples to dst, sorts the appended part by time and returns the
// extended slice, which shares nothing with the store. A caller that reads
// window after window (a cover build) passes the same buffer, cut to
// length 0, each time and copies each window once instead of allocating
// one.
//
// One critical section takes the window's lazy entry, a reference to the
// reader it belongs to, the open chunk's tuples and references to the
// sealed chunks of the in-memory log, so a checkpoint that moves the
// window to its own file meanwhile changes nothing about what this read
// returns; the base and the sealed chunks are then decoded outside the
// lock, straight into dst.
func (s *Store) WindowInto(dst tuple.Batch, c int) tuple.Batch {
	dst, _, _ = s.windowInto(dst, c, false)
	return dst
}

// windowInto is WindowInto, and WindowSeedInto when withSeed is set.
func (s *Store) windowInto(dst tuple.Batch, c int, withSeed bool) (_ tuple.Batch, sd colblock.Seed, seeded bool) {
	n := len(dst)
	refs := chunkRefs.Get().(*[]colblock.Chunk)
	defer putRefs(refs)
	for {
		s.mu.RLock()
		lw, lazy := s.col.lazy[c]
		lg := s.windows[c]
		m := lg.Len()
		dst = slices.Grow(dst, lw.count+m)[:n+lw.count+m]
		*refs = lg.Read(dst[n+lw.count:], 0, (*refs)[:0])
		var cr *colReader
		if lazy {
			if cr = s.col.rd; cr != nil {
				cr.acquire()
			}
		}
		s.mu.RUnlock()
		colblock.UnpackChunks(dst[n+lw.count:], *refs)
		if !lazy {
			break
		}
		if cr != nil {
			err := cr.rd.DecodeWindow(dst[n:n+lw.count], c)
			if err == nil && withSeed && m == 0 {
				sd, seeded = s.seedOf(cr.rd, c, lw.count)
			}
			cr.release()
			if err == nil {
				s.col.materializations.Add(1)
				break
			}
		}
		if !s.baseUnreadable(c, cr) {
			// The suffix is what the window holds from now on.
			dst = dst[:n+copy(dst[n:], dst[n+lw.count:])]
			break
		}
		dst = dst[:n]
	}
	dst[n:].SortByTime()
	return dst, sd, seeded
}

// ReadAppended fills dst with tuples [off, off+len(dst)) of window W_c in
// the order they were appended, not sorted by time as WindowInto sorts
// them. A retained window's positions never move: a checkpoint writes a
// window in append order and keeps appending behind it, and eviction
// drops a window whole. A lazy base is decoded through the checkpoint
// reader (the whole base, into pooled memory, unless dst starts at 0 and
// covers it), and sealed chunks of the in-memory log are unpacked, both
// outside the lock. It is an error to ask for a range the window does not
// hold, and for any range of a window whose base went unreadable: its
// suffix has moved down to position 0, and ReadAppended never returns
// shifted tuples.
func (s *Store) ReadAppended(dst []tuple.Raw, c, off int) error {
	refs := chunkRefs.Get().(*[]colblock.Chunk)
	defer putRefs(refs)
	for {
		s.mu.RLock()
		if s.col.lost[c] {
			s.mu.RUnlock()
			return fmt.Errorf("store: window %d lost its checkpointed base", c)
		}
		base, lg := s.col.lazy[c].count, s.windows[c]
		end := off + len(dst)
		if off < 0 || end > base+lg.Len() {
			s.mu.RUnlock()
			return fmt.Errorf("store: window %d holds %d tuples, not [%d, %d)", c, base+lg.Len(), off, end)
		}
		mem := dst[min(max(base-off, 0), len(dst)):]
		*refs = lg.Read(mem, max(off-base, 0), (*refs)[:0])
		if off >= base {
			s.mu.RUnlock()
			colblock.UnpackChunks(mem, *refs)
			return nil
		}
		cr := s.col.rd
		if cr != nil {
			cr.acquire()
		}
		s.mu.RUnlock()
		colblock.UnpackChunks(mem, *refs)
		if cr != nil {
			err := decodeRange(cr.rd, dst[:min(end, base)-off], c, off, base)
			cr.release()
			if err == nil {
				s.col.materializations.Add(1)
				return nil
			}
		}
		if !s.baseUnreadable(c, cr) {
			return fmt.Errorf("store: window %d lost its checkpointed base", c)
		}
	}
}

// baseBufs lends ReadAppended and WindowRegion a window's worth of tuples
// to decode into.
var baseBufs = sync.Pool{New: func() any { return new(tuple.Batch) }}

// chunkRefs lends a read the references to sealed chunks it takes under
// the lock and unpacks after it.
var chunkRefs = sync.Pool{New: func() any { return new([]colblock.Chunk) }}

// putRefs clears refs, so the pool holds no chunk alive, and gives it
// back.
func putRefs(refs *[]colblock.Chunk) {
	clear(*refs)
	chunkRefs.Put(refs)
}

// decodeRange fills dst with tuples [off, off+len(dst)) of window c's
// base of n tuples in rd.
func decodeRange(rd *colblock.Reader, dst []tuple.Raw, c, off, n int) error {
	if off == 0 && len(dst) == n {
		return rd.DecodeWindow(dst, c)
	}
	buf := baseBufs.Get().(*tuple.Batch)
	defer baseBufs.Put(buf)
	*buf = slices.Grow((*buf)[:0], n)[:n]
	if err := rd.DecodeWindow(*buf, c); err != nil {
		return err
	}
	copy(dst, (*buf)[off:])
	return nil
}

// seedOf reads window c's seed from rd, for a base of n tuples. A record
// that fails its checks, or that counts other than n tuples, is a seed
// failure.
func (s *Store) seedOf(rd *colblock.Reader, c, n int) (colblock.Seed, bool) {
	sd, ok, err := rd.Seed(c)
	if err != nil || ok && sd.Count != n {
		s.col.seedFailures.Add(1)
		return colblock.Seed{}, false
	}
	return sd, ok
}

// WindowLen returns the number of tuples in window W_c without copying
// (or decoding) it — the cheap emptiness/size probe for query planning.
func (s *Store) WindowLen(c int) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.windows[c].Len() + s.col.lazy[c].count
}

// WindowIndexes returns the indexes of all retained windows — in-memory
// and lazy — in ascending order.
func (s *Store) WindowIndexes() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.unionIndexesLocked()
}

// Len returns the total number of retained tuples.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.total
}

// MaxTime returns the largest timestamp ever appended (0 for an empty
// store).
func (s *Store) MaxTime() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.maxTime
}

// WindowLength returns H.
func (s *Store) WindowLength() float64 { return s.cfg.WindowLength }

// Sync flushes the open segment to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seg == nil {
		return nil
	}
	return s.doSync(s.seg.f)
}

// Close syncs and closes the segment file and releases the checkpoint
// file. The in-memory state remains readable — windows still lazy in the
// checkpoint file are not, and read as their in-memory suffix — but
// further Appends with durability will fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	var err error
	if s.seg != nil {
		if err = s.doSync(s.seg.f); err != nil {
			s.seg.doom()
		} else {
			err = s.seg.closeNow()
		}
		s.seg = nil
	}
	// Retired handles were normally fsynced when their checkpoint
	// sealed them; a final best-effort sync covers the rare seal whose
	// deferred fsync failed (possible only under SyncNever, which
	// promises nothing, but flushing here costs one no-op fsync).
	for _, h := range s.retired {
		if serr := s.doSync(h.f); serr != nil && err == nil {
			err = serr
		}
		if cerr := h.closeNow(); cerr != nil && err == nil {
			err = cerr
		}
	}
	s.retired = nil
	s.retireReaderLocked()
	return err
}
