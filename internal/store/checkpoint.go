package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/colblock"
)

// On-disk checkpoint layout
//
// A checkpoint is one file, checkpoint-%06d.emc: the retained windows as
// checksummed column blocks behind a checksummed footer that carries the
// checkpoint's sequence number, its segment horizon (segments with seq ≤
// horizon are fully covered) and the store's max timestamp — see
// internal/colblock for the byte layout. The MANIFEST commits it: a tiny
// checksummed record naming the current checkpoint and its horizon:
//
//	magic    uint32  "EMMF"
//	version  uint32  1
//	seq      uint64
//	horizon  uint64
//	crc      uint32  CRC-32 (IEEE) of the 24 bytes above
//
// Both are written to a ".tmp" sibling, fsynced, and renamed into
// place, with a directory fsync after each rename, so a crash at any
// instant leaves either the old or the new file — never a torn one.
//
// That is the only checkpoint a directory may hold. Open refuses, with
// ErrCheckpointFormat and before it changes anything, a checkpoint file of
// another colblock version and the files older releases checkpointed to: a
// row checkpoint, checkpoint-%06d.emt, and a version-1 sidecar,
// colblock-%06d.emc.

const (
	manifestMagic   = 0x454d4d46 // "EMMF"
	manifestVersion = 1
	manifestSize    = 28

	// manifestName is the commit record's file name inside cfg.Dir.
	manifestName = "MANIFEST"

	// File extensions: column-block checkpoints, and the segments'
	// tuple frames.
	ckExt  = ".emc"
	segExt = ".emt"
)

// ErrCorruptCheckpoint marks an unreadable checkpoint or manifest.
// Recovery treats it as "this checkpoint does not exist" and falls back
// to the next candidate, ultimately to full segment replay.
var ErrCorruptCheckpoint = errors.New("store: corrupt checkpoint")

// ErrCheckpointFormat marks a checkpoint this release does not read: a
// sound file of another colblock version (colblock.ErrVersion), or a file
// an older release checkpointed to. Open returns it without changing the
// directory; skipping the file would serve the segments behind it only, and
// the next checkpoint would delete it.
var ErrCheckpointFormat = errors.New("store: checkpoint format this release does not read")

// formatRemedy is what an ErrCheckpointFormat tells its reader to do.
const formatRemedy = "open the directory once with a release that reads it and checkpoint, " +
	"or restore the copy kept from before the upgrade (docs/OPERATIONS.md, \"Upgrading to the one-format store\")"

// CheckpointStats counts the store's checkpoint activity.
type CheckpointStats struct {
	// Checkpoints is the number of checkpoints committed (manifest
	// renamed into place).
	Checkpoints int64
	// Failures counts checkpoint attempts that aborted before commit, and
	// those whose committed file then failed its read-back.
	Failures int64
	// LastSeq is the sequence number of the newest committed checkpoint
	// (-1 before the first).
	LastSeq int64
	// LastWindows and LastTuples describe the newest committed
	// checkpoint's payload.
	LastWindows int64
	LastTuples  int64
	// SegmentsDeleted is the total number of segment files removed by
	// checkpoint compaction (recovery-time deletions are counted in
	// RecoveryStats instead).
	SegmentsDeleted int64
}

// RecoveryStats describes what Open did to rebuild the store: where the
// retained state came from and how much of the segment log had to be
// replayed. The crash-injection and restart tests assert against these
// counters; they are fixed once Open returns.
type RecoveryStats struct {
	// FromCheckpoint is true when the retained windows were loaded from
	// a checkpoint file rather than rebuilt by full log replay.
	FromCheckpoint bool
	// CheckpointSeq and CheckpointTuples identify the checkpoint used
	// (meaningful only when FromCheckpoint).
	CheckpointSeq    int
	CheckpointTuples int
	// CorruptCheckpoints counts checkpoint files that failed validation
	// and were skipped during recovery.
	CorruptCheckpoints int
	// SegmentsReplayed and TuplesReplayed count the segment suffix
	// actually replayed (all segments, under full replay).
	SegmentsReplayed int
	TuplesReplayed   int
	// SegmentsDeleted counts segment files removed at Open: covered
	// segments left behind by an interrupted compaction, and segments
	// proven to lie entirely behind the retention horizon.
	SegmentsDeleted int
}

// checkpointName returns the file name of checkpoint seq.
func checkpointName(seq int) string { return fmt.Sprintf("checkpoint-%06d"+ckExt, seq) }

// parseSeq extracts the numeric sequence of a "<prefix>NNNNNN<ext>" file
// name; ok is false for names that do not match.
func parseSeq(name, prefix, ext string) (int, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ext) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(ext)]
	if mid == "" {
		return 0, false
	}
	n, err := strconv.Atoi(mid)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// ckFile is one checkpoint file found in a data directory.
type ckFile struct {
	seq  int
	name string
}

// checkpointFiles lists the checkpoint files present in dir, newest
// first. A file an older release checkpointed to is ErrCheckpointFormat.
func checkpointFiles(dir string) ([]ckFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: read dir: %w", err)
	}
	var cks []ckFile
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if seq, ok := parseSeq(name, "checkpoint-", ckExt); ok {
			cks = append(cks, ckFile{seq: seq, name: name})
			continue
		}
		for _, old := range [...]struct{ prefix, ext, what string }{
			{"checkpoint-", segExt, "a row checkpoint"},
			{"colblock-", ckExt, "a version-1 sidecar"},
		} {
			if _, ok := parseSeq(name, old.prefix, old.ext); ok {
				return nil, fmt.Errorf("%w: %s is %s; %s", ErrCheckpointFormat, name, old.what, formatRemedy)
			}
		}
	}
	sort.SliceStable(cks, func(i, j int) bool { return cks[i].seq > cks[j].seq })
	return cks, nil
}

// ckHeader is what recovery learns from a checkpoint beside its windows:
// its file's trailer.
type ckHeader struct {
	seq     int
	horizon int
	tuples  int
	maxTime float64
}

// readManifest reads and validates dir's MANIFEST commit record.
func readManifest(dir string) (seq, horizon int, err error) {
	buf, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return 0, 0, fmt.Errorf("%w: manifest: %v", ErrCorruptCheckpoint, err)
	}
	if len(buf) != manifestSize {
		return 0, 0, fmt.Errorf("%w: manifest length %d", ErrCorruptCheckpoint, len(buf))
	}
	if crc32.ChecksumIEEE(buf[:24]) != binary.LittleEndian.Uint32(buf[24:]) {
		return 0, 0, fmt.Errorf("%w: manifest checksum", ErrCorruptCheckpoint)
	}
	if binary.LittleEndian.Uint32(buf[0:]) != manifestMagic {
		return 0, 0, fmt.Errorf("%w: manifest magic", ErrCorruptCheckpoint)
	}
	if v := binary.LittleEndian.Uint32(buf[4:]); v != manifestVersion {
		return 0, 0, fmt.Errorf("%w: manifest version %d", ErrCorruptCheckpoint, v)
	}
	seq = int(int64(binary.LittleEndian.Uint64(buf[8:])))
	horizon = int(int64(binary.LittleEndian.Uint64(buf[16:])))
	return seq, horizon, nil
}

// Checkpoint persists the retained windows to a new checkpoint file,
// compacts the segment log behind it and lets go of the tuples the file
// now holds. The sequence is:
//
//  1. Under the store lock: snapshot the retained windows and seal the
//     open segment, rotating to a fresh one. Everything appended so far
//     is covered by the snapshot; everything after the rotation lands
//     in segments the checkpoint does not claim. The sealed handle is
//     retired, not closed, so a concurrent every-batch Append that
//     already captured it can still run its own fsync against it. The
//     seal fsync itself runs outside the lock, so queries never stall
//     behind it.
//  2. Outside the lock, give each window the seed of its model cover
//     (seedWindows), then write checkpoint-%06d.emc to a temp file,
//     fsync, rename, fsync the directory. A window with nothing appended
//     since the previous checkpoint is carried over from that file block
//     for block, with its seed; one with a suffix is decoded from it,
//     merged and encoded again.
//  3. Commit it by writing MANIFEST the same way.
//  4. Read the committed file back: open it and checksum every block.
//  5. Release, under the store lock: every snapshotted window becomes a
//     lazy base in the new file, its in-memory tuples cut down to what was
//     appended after the snapshot, and the bytes of the chunks it drops
//     are handed back for the next seals to pack into; the previous
//     checkpoint's reader is retired.
//  6. Compact: delete segments at or below the checkpoint horizon
//     (sparing the newest Config.KeepSegments of them) and every other
//     checkpoint file.
//
// A failure before step 3 leaves the previous checkpoint (or the plain
// segment log) authoritative. A failure of step 4 fails nothing that was
// durable — the file and MANIFEST stand — but nothing is released and
// nothing compacted: the heap copy keeps serving, and the previous
// checkpoint and the segments stay for a restart that finds the new file
// bad to fall back on. A failure during step 6 is reported but the
// checkpoint itself stands, and the deletions are retried by the next
// checkpoint or at the next Open. Memory-only stores (no Dir) return nil
// without doing anything. Checkpoint is safe for concurrent use with
// Append and queries; concurrent Checkpoint calls serialize.
func (s *Store) Checkpoint() error {
	s.ckMu.Lock()
	defer s.ckMu.Unlock()

	s.mu.Lock()
	if s.cfg.Dir == "" {
		s.mu.Unlock()
		return nil
	}
	if s.closed {
		s.mu.Unlock()
		return errors.New("store: checkpoint after close")
	}
	// Handles retired by the previous checkpoint are doomed now; any
	// append still fsyncing one holds a reference that defers the close.
	for _, h := range s.retired {
		h.doom()
	}
	s.retired = nil
	idxs := s.unionIndexesLocked()
	windows := make([]colblock.WindowData, len(idxs))
	prev := s.col.rd // the reader every lazy base is read through
	// References to sealed chunks, not a copy: every open chunk (the
	// newest window's and the late ones') is sealed first, so no raw chunk
	// a later append writes to is read, and a sealed chunk never changes
	// while the file is written outside the lock — a later append to the
	// window unpacks it into a new open chunk, it does not write to it, and
	// only the release below hands chunk bytes back. The snapshot is the
	// one reader of chunks outside the lock. A window's references stay
	// valid when a later window's regrow refs: the old array is only read
	// from then on.
	var refs []colblock.Chunk
	s.late = s.late[:0]
	for i, c := range idxs {
		windows[i].Window = c
		if lg := s.windows[c]; lg != nil {
			lg.Seal()
			from := len(refs)
			refs = lg.Chunks(refs)
			windows[i].Chunks = refs[from:len(refs):len(refs)]
		}
		if _, lazy := s.col.lazy[c]; lazy {
			windows[i].Base = prev.rd
		}
	}
	if prev != nil {
		prev.acquire()
	}
	seeder := s.seeder
	s.ckSnapshot, s.ckEvicted = true, s.ckEvicted[:0]
	maxTime := s.maxTime
	horizon := s.segSeq
	var sealSync *segHandle
	if s.seg != nil {
		// Every acknowledged every-batch append already fsynced its own
		// frame, and an in-flight one holds the (still open, retired)
		// handle and will. Defer the seal fsync past the lock so queries
		// never stall behind it.
		sealSync = s.seg
		sealSync.acquire()
		s.retired = append(s.retired, s.seg)
		s.seg = nil
		s.segSeq++
		// A failed open here is not fatal: persistLocked re-opens the
		// segment on the next append, exactly as after a failed rotation.
		_ = s.openSegment()
	} else {
		horizon = s.segSeq - 1
	}
	seq := s.ckSeq
	s.ckSeq++
	s.mu.Unlock()

	if seeder != nil {
		seedWindows(windows, seeder)
	}
	rd, err := s.commitCheckpoint(colblock.Meta{Seq: seq, Horizon: horizon, MaxTime: maxTime}, windows, sealSync)
	if prev != nil {
		prev.release()
	}

	s.mu.Lock()
	s.ckSnapshot = false
	if err == nil && !s.closed {
		s.releaseLocked(rd, windows)
		rd = nil
	}
	s.mu.Unlock()
	if rd != nil {
		rd.Close() // the store was closed meanwhile: nothing to serve
	}
	if err != nil {
		s.ckStatsMu.Lock()
		s.ckStats.Failures++
		s.ckStatsMu.Unlock()
		return err
	}

	deleted, err := s.compact(seq, horizon)
	s.ckStatsMu.Lock()
	s.ckStats.SegmentsDeleted += int64(deleted)
	s.ckStatsMu.Unlock()
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	return nil
}

// seedWindows gives each snapshot window the seed seeder has for the
// window's tuple count; a seed is written only when it counts them. A
// window behind the newest one is sealed, and seeder may build its cover
// first — unless the window is carried over with the seed its base keeps,
// which it keeps when seeder has no other.
func seedWindows(windows []colblock.WindowData, seeder SeedFunc) {
	for i := range windows {
		wd := &windows[i]
		mem := colblock.ChunksLen(wd.Chunks)
		c, n, carried := wd.Window, mem, false
		if wd.Base != nil {
			n += wd.Base.WindowCount(c)
			carried = mem == 0 && wd.Base.HasSeed(c)
		}
		if sd, ok := seeder(c, n, !carried && i < len(windows)-1); ok && sd.Count == n {
			wd.Seed = sd
		}
	}
}

// commitCheckpoint is what Checkpoint does outside the store lock, up to
// the read-back: seal the segment, write the file, commit it, count it,
// and return a verified reader on it. The read-back reads the file's
// blocks into the block buffer its encode grew (one Encoder), which goes
// back to the pool when the call returns. No error leaves anything
// released.
func (s *Store) commitCheckpoint(meta colblock.Meta, windows []colblock.WindowData, sealSync *segHandle) (*colblock.Reader, error) {
	if sealSync != nil {
		err := s.doSync(sealSync.f)
		sealSync.release()
		if err != nil {
			// The rotation stands (the segment keeps its frames and
			// recovery replays it); only this checkpoint is abandoned.
			return nil, fmt.Errorf("store: checkpoint: seal segment: %w", err)
		}
	}
	enc := colblock.NewEncoder()
	defer enc.Release()
	est, err := s.writeCheckpoint(enc, meta, windows)
	if err != nil {
		return nil, err
	}
	s.col.blocksScanned.Add(int64(est.BlocksDecoded))
	s.col.bytesRead.Add(est.BytesDecoded)
	if err := s.writeManifest(meta.Seq, meta.Horizon); err != nil {
		return nil, err
	}
	s.col.blocksWritten.Add(int64(est.Blocks))
	s.ckStatsMu.Lock()
	s.ckStats.Checkpoints++
	s.ckStats.LastSeq = int64(meta.Seq)
	s.ckStats.LastWindows = int64(len(windows))
	s.ckStats.LastTuples = int64(est.Tuples)
	s.ckStatsMu.Unlock()

	rd, err := s.verifiedReader(checkpointName(meta.Seq), meta.Seq, enc.CheckBlocks)
	if err != nil {
		return nil, fmt.Errorf("store: checkpoint: read %s back: %w", checkpointName(meta.Seq), err)
	}
	return rd, nil
}

// releaseLocked makes rd — the verified reader on the checkpoint file just
// committed from the snapshot windows — the home of every tuple that file
// holds: each snapshotted window becomes a lazy base in it, and the
// window's log drops the chunks the snapshot took from its head, so only
// the tuples appended after the snapshot stay. The snapshot has been
// written, and every other read of a chunk unpacks under the lock, so
// nothing reads the dropped chunks again: their bytes are handed back.
// s.total does not move. Two kinds of window are left as they are, and
// hand nothing back: one evicted since the snapshot, and one whose base
// went bad meanwhile — it has settled on its suffix (baseUnreadable), its
// log still holds the chunks, and a restart, not this process, gets the
// base back. Caller holds mu.
func (s *Store) releaseLocked(rd *colblock.Reader, windows []colblock.WindowData) {
	slices.Sort(s.ckEvicted)
	for _, wd := range windows {
		c := wd.Window
		if _, evicted := slices.BinarySearch(s.ckEvicted, c); evicted {
			continue
		}
		if _, lazy := s.col.lazy[c]; wd.Base != nil && !lazy {
			continue
		}
		s.col.lazy[c] = lazyFrom(rd, c)
		if lg := s.windows[c]; lg != nil {
			if lg.Drop(colblock.ChunksLen(wd.Chunks)); lg.Len() == 0 {
				delete(s.windows, c)
			}
			colblock.HandBack(wd.Chunks)
		}
	}
	s.col.rd.release()
	s.col.rd = newColReader(rd)
}

// CheckpointStats returns the checkpoint counters.
func (s *Store) CheckpointStats() CheckpointStats {
	s.ckStatsMu.Lock()
	defer s.ckStatsMu.Unlock()
	return s.ckStats
}

// RecoveryStats reports what this store's Open did to rebuild state. It
// is fixed once Open returns.
func (s *Store) RecoveryStats() RecoveryStats { return s.recovery }

// atomicReplace installs path crash-safely: the payload is written to a
// ".tmp" sibling, fsynced, closed, renamed into place, and the
// directory fsynced — a crash at any instant leaves either the old or
// the new file. fill writes straight to the file (through s.writer): a
// caller with many small writes brings a buffer of the size it needs. The
// temp file is removed on every failure path. File fsyncs go through
// syncSeg (hookable, but NOT counted in DurabilityStats.Syncs, which
// tracks append-path durability only).
func (s *Store) atomicReplace(path string, fill func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := fill(s.writer(f)); err != nil {
		return fail(err)
	}
	if err := s.syncSeg(f); err != nil {
		return fail(fmt.Errorf("sync: %w", err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("close: %w", err)
	}
	if err := s.renameFile(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("rename: %w", err)
	}
	return s.syncDir()
}

// ckWriteBuffer gathers a checkpoint's writes — one per block, and a
// block is at most colblock.BlockTuples tuples of a few bytes each — into
// file writes of about one full block.
const ckWriteBuffer = 64 << 10

// writeCheckpoint writes one checkpoint atomically.
func (s *Store) writeCheckpoint(enc colblock.Encoder, meta colblock.Meta, windows []colblock.WindowData) (est colblock.EncodeStats, err error) {
	err = s.atomicReplace(filepath.Join(s.cfg.Dir, checkpointName(meta.Seq)), func(w io.Writer) (err error) {
		bw := bufio.NewWriterSize(w, ckWriteBuffer)
		if est, err = enc.Encode(bw, meta, windows); err != nil {
			return err
		}
		return bw.Flush()
	})
	if err != nil {
		return est, fmt.Errorf("store: checkpoint: %w", err)
	}
	return est, nil
}

// writeManifest commits checkpoint seq by atomically replacing MANIFEST.
func (s *Store) writeManifest(seq, horizon int) error {
	buf := make([]byte, manifestSize)
	binary.LittleEndian.PutUint32(buf[0:], manifestMagic)
	binary.LittleEndian.PutUint32(buf[4:], manifestVersion)
	binary.LittleEndian.PutUint64(buf[8:], uint64(int64(seq)))
	binary.LittleEndian.PutUint64(buf[16:], uint64(int64(horizon)))
	binary.LittleEndian.PutUint32(buf[24:], crc32.ChecksumIEEE(buf[:24]))
	err := s.atomicReplace(filepath.Join(s.cfg.Dir, manifestName), func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	})
	if err != nil {
		return fmt.Errorf("store: manifest: %w", err)
	}
	return nil
}

// syncDir fsyncs cfg.Dir so a just-renamed file survives a crash.
func (s *Store) syncDir() error {
	d, err := os.Open(s.cfg.Dir)
	if err != nil {
		return fmt.Errorf("sync dir: %w", err)
	}
	err = s.syncSeg(d)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("sync dir: %w", err)
	}
	return nil
}

// compact removes segment files fully covered by checkpoint ckSeq
// (those at or below horizon, sparing the newest Config.KeepSegments),
// and every other checkpoint file — no reader the store owns serves from
// one any more, and a scan still in flight keeps its own reference to what
// it reads. Deletion failures are joined and reported but never undo the
// checkpoint — the files are retried by the next compaction or at the next
// Open.
func (s *Store) compact(ckSeq, horizon int) (deleted int, err error) {
	var errs []error
	names, err := segmentNames(s.cfg.Dir)
	if err != nil {
		return 0, err
	}
	for _, name := range s.coveredToDelete(names, horizon) {
		if rerr := s.removeFile(filepath.Join(s.cfg.Dir, name)); rerr != nil {
			errs = append(errs, rerr)
		} else {
			deleted++
		}
	}
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		errs = append(errs, err)
	}
	current := checkpointName(ckSeq)
	for _, e := range entries {
		name := e.Name()
		if _, ok := parseSeq(name, "checkpoint-", ckExt); !ok || name == current {
			continue
		}
		if rerr := s.removeFile(filepath.Join(s.cfg.Dir, name)); rerr != nil {
			errs = append(errs, rerr)
		}
	}
	return deleted, errors.Join(errs...)
}

// coveredToDelete picks the checkpoint-covered segments (seq ≤ horizon)
// that compaction should delete, sparing the newest Config.KeepSegments
// of them. Shared by Checkpoint's compaction and recovery's resume of
// an interrupted one so both always agree on which segments survive.
func (s *Store) coveredToDelete(names []string, horizon int) []string {
	var covered []string
	for _, name := range names {
		if seq, ok := parseSeq(name, "segment-", segExt); ok && seq <= horizon {
			covered = append(covered, name)
		}
	}
	keep := s.cfg.KeepSegments
	if keep > len(covered) {
		keep = len(covered)
	}
	return covered[:len(covered)-keep]
}
