package store

// The store's crash-and-fault property. A seeded history drives one
// durable store through appends (into the newest window, late ones, into
// a window a checkpoint released), checkpoints, clean restarts, crashes,
// disk faults and damaged files. Every disk operation goes through the
// store's seams, and an fsync is recorded in a model of the disk, not
// issued. The reference is a memory store fed every batch the store took
// in, beside the log of those batches and what each is owed: a written
// batch survives a process crash, a durable one a power loss too. The
// running store and any clean reopen equal the reference; a crash image
// reopens to the batches it is owed and any others it kept whole, and the
// history goes on from it; RecoveryStats matches expectedRecovery; a
// damaged segment fails Open and a damaged checkpoint is passed over; a
// step fails when, and only when, a fault failed it. A failure prints its
// seed, configuration and history, shrunk to the steps it still fails
// with.
//
// A process crash leaves the files as written, a write torn at the crash.
// A power loss leaves each file and the directory as their last fsyncs
// saw them: a file created or renamed since is absent, or keeps its old
// name and contents, and a file removed since is back.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/colblock"
	"repro/internal/tuple"
)

const (
	histSeeds = 10
	histSteps = 32
	// opRange is how many disk operations of a step an armed crash or
	// fault is drawn over: a checkpoint's twelve, and after them. One drawn
	// past the step's last operation crashes after the step, or faults
	// nothing.
	opRange = 13
)

var errInjected = errors.New("injected fault")

// histConfig is the store configuration seed plays in: its three low bits
// pick the sync policy, Retain 0 or 3, and KeepSegments 0 or 2.
func histConfig(seed int64) Config {
	cfg := Config{WindowLength: 100, Sync: SyncPolicy{never: seed&1 == 1}}
	if seed&2 != 0 {
		cfg.Retain = 3
	}
	if seed&4 != 0 {
		cfg.KeepSegments = 2
	}
	return cfg
}

// hstep is one step of a history. Its numbers are read against the state
// it meets, so a history with steps dropped still plays:
//
//   - append, late, released: a batch of 1+b%40 tuples into the newest
//     window (a new one when a%4 is 0), from window newest-1-a%3 up to the
//     newest, or into a window the last checkpoint released.
//   - checkpoint; restart: a clean Close, then Open.
//   - crash: arms the next step that touches the disk. Before its
//     operation a%opRange the directory is imaged — a power loss when b is
//     odd — with a write torn b%(len+1) bytes in; the step goes on, and the
//     history after it goes on from the image.
//   - fault: arms the next step that touches the disk. Its operation
//     a%opRange fails: a write fails whole, after a prefix, or after a
//     prefix with its segment's file closed, so the truncate fails too
//     (b%3); a read-back finds a byte flipped.
//   - damage: an image of the directory with a byte flipped in the newest
//     checkpoint (a even) or in a replayed segment's frame that intact
//     frames follow, reopened beside the history.
type hstep struct {
	kind string
	a, b int
}

// drawHistory draws histSteps steps from seed.
func drawHistory(seed int64) []hstep {
	rng := rand.New(rand.NewSource(seed))
	kinds := []string{"append", "append", "append", "append", "late", "late", "released", "released",
		"checkpoint", "checkpoint", "checkpoint", "restart", "crash", "crash", "fault", "fault", "damage"}
	steps := make([]hstep, histSteps)
	for i := range steps {
		steps[i] = hstep{kinds[rng.Intn(len(kinds))], rng.Intn(1000), rng.Intn(1000)}
	}
	return steps
}

// logged is a batch the store took in, and what it is owed. A batch the
// store took in is written, and survives a process crash: a failed write
// takes nothing in. A durable one survives a power loss too. A clean Close
// makes durable what the store appended since its Open (gen), not what it
// recovered: only a checkpoint fsyncs that.
type logged struct {
	b       tuple.Batch
	durable bool
	gen     int
}

// crashImage is a directory a crash left, and the log and batch in flight.
type crashImage struct {
	dir      string
	power    bool
	log      []logged
	inflight tuple.Batch
	disk     diskModel
}

// history is one history in play.
type history struct {
	root  string // holds every directory of the history
	cfg   Config
	rng   *rand.Rand // draws the tuples
	s     *Store
	ref   *Store // a memory store fed every batch s took in
	log   []logged
	disk  diskModel
	gen   int  // counts the Opens
	stuck bool // a failed write's segment could not be fsynced: Close makes nothing durable

	newest   int               // the newest window appended to
	arm      *hstep            // the crash or fault armed for the next step
	fired    string            // the kind of operation the armed fault failed
	img      *crashImage       // the image the armed crash took
	inflight tuple.Batch       // the batch the step appends
	trace    []string          // the disk operations of the step
	closed   map[*os.File]bool // files a fault closed
	cov      map[string]int    // what the sweep reached: crashes, faults by operation, damage
	rec      RecoveryStats     // of the last Open
}

// histFailure is a failed invariant; play recovers it.
type histFailure struct{ error }

func (h *history) failf(format string, args ...any) {
	panic(histFailure{fmt.Errorf(format, args...)})
}

// play plays steps from a fresh directory, then restarts the store once
// more. check, when set, runs after each step.
func play(t testing.TB, seed int64, cfg Config, steps []hstep, cov map[string]int, check func(h *history, i int)) (h *history, err error) {
	if cov == nil {
		cov = map[string]int{}
	}
	dir := t.TempDir()
	h = &history{root: dir, cfg: cfg, rng: rand.New(rand.NewSource(-seed)), disk: newDiskModel(), cov: cov, closed: map[*os.File]bool{}}
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(histFailure)
			if !ok {
				panic(r)
			}
			err = f.error // the store may have failed inside an operation: it is left as it is
		} else {
			h.s.Close()
		}
		os.RemoveAll(dir)
	}()
	h.cfg.Dir = h.tempDir("live")
	h.open("open", false, nil, nil)
	for i, st := range steps {
		h.do(i, st)
		if check != nil {
			check(h, i)
		}
	}
	h.do(len(steps), hstep{kind: "restart"})
	return h, nil
}

// playHistory plays steps, and fails t with the seed, configuration and
// steps shrunk to those the history still fails with: one by one, steps
// are dropped while it does.
func playHistory(t *testing.T, seed int64, cfg Config, steps []hstep, cov map[string]int, check func(*history, int)) *history {
	t.Helper()
	h, err := play(t, seed, cfg, steps, cov, check)
	if err == nil {
		return h
	}
	n := len(steps)
	for i := 0; i < len(steps); {
		try := slices.Delete(slices.Clone(steps), i, i+1)
		if _, e := play(t, seed, cfg, try, nil, nil); e != nil {
			steps, err = try, e
		} else {
			i++
		}
	}
	t.Fatalf("seed %d, %+v: %v\nshrunk history (%d of %d steps): %v", seed, cfg, err, len(steps), n, steps)
	return nil
}

// do plays step i, st.
func (h *history) do(i int, st hstep) {
	switch st.kind {
	case "crash", "fault":
		h.arm = &st
		return
	case "damage":
		h.damage(st)
		return
	}
	h.fired, h.img, h.trace = "", nil, nil
	var err error
	switch st.kind {
	case "append", "late", "released":
		b := h.batch(st)
		h.inflight = b
		err = h.s.Append(b)
		h.inflight = nil
		switch {
		case err == nil:
			h.took(logged{b, !h.cfg.Sync.never, h.gen})
		case h.fired != "" && h.fired != "write": // the frame is written and served; its fsync failed
			h.took(logged{b, false, h.gen})
		}
	case "checkpoint":
		before := h.s.CheckpointStats()
		if err = h.s.Checkpoint(); err == nil {
			h.durable(true)
		}
		// A checkpoint is counted once committed, and a failure unless it
		// failed only to compact. It leaves no temp file, and when it goes
		// through, only MANIFEST, itself, the newest KeepSegments segments
		// it covers and the one it rotated to.
		want := before
		if err == nil || h.fired == "verify" || h.fired == "remove" {
			want.Checkpoints++
		}
		if err != nil && h.fired != "remove" {
			want.Failures++
		}
		got := h.s.CheckpointStats()
		if got.Checkpoints != want.Checkpoints || got.Failures != want.Failures {
			h.failf("step %d %v (fault on %q, %v): stats %+v, want %+v", i, st, h.fired, err, got, want)
		}
		entries, _ := os.ReadDir(h.cfg.Dir)
		segs := 0
		for _, e := range entries {
			if _, ok := parseSeq(e.Name(), "segment-", segExt); ok {
				segs++
			} else if filepath.Ext(e.Name()) == ".tmp" || err == nil && e.Name() != manifestName && e.Name() != checkpointName(int(got.LastSeq)) {
				h.failf("step %d %v (fault on %q): left %s behind", i, st, h.fired, e.Name())
			}
		}
		if err == nil && segs > h.cfg.KeepSegments+1 {
			h.failf("step %d %v: %d segments left, KeepSegments %d", i, st, segs, h.cfg.KeepSegments)
		}
	case "restart":
		if err = h.s.Close(); err == nil {
			h.durable(false)
		}
		h.open(fmt.Sprintf("step %d %v: reopen", i, st), false, h.log, nil)
	default:
		h.failf("no step %v", st)
	}
	if (err != nil) != (h.fired != "") {
		h.failf("step %d %v: error %v with a fault on %q: a step fails when a fault failed it, and only then", i, st, err, h.fired)
	}
	if h.fired != "" {
		h.cov[h.fired]++
	}
	h.same(fmt.Sprintf("step %d %v (fault on %q)", i, st, h.fired), h.s)
	if h.arm != nil && h.arm.kind == "crash" {
		h.crashed(i)
	}
	h.arm = nil
}

// took records that the store took b in.
func (h *history) took(l logged) {
	h.log = append(h.log, l)
	if err := h.ref.Append(l.b); err != nil {
		h.failf("reference: %v", err)
	}
}

// durable marks the log durable: a committed checkpoint holds all of it,
// and a clean Close fsynced what this Open appended — unless a segment
// could not be.
func (h *history) durable(checkpoint bool) {
	if !checkpoint && h.stuck {
		return
	}
	for i := range h.log {
		h.log[i].durable = h.log[i].durable || checkpoint || h.log[i].gen == h.gen
	}
}

// batch draws the tuples of an append step.
func (h *history) batch(st hstep) tuple.Batch {
	lo, hi := h.newest, h.newest
	switch st.kind {
	case "append":
		if st.a%4 == 0 {
			h.newest++
			lo, hi = h.newest, h.newest
		}
	case "released":
		h.s.mu.RLock()
		var lazy []int
		for c := range h.s.col.lazy {
			lazy = append(lazy, c)
		}
		h.s.mu.RUnlock()
		if sort.Ints(lazy); len(lazy) > 0 {
			lo, hi = lazy[st.a%len(lazy)], lazy[st.a%len(lazy)]
			break
		}
		fallthrough
	case "late":
		lo = max(0, h.newest-1-st.a%3)
	}
	return randBatch(h.rng, 1+st.b%40, float64(lo)*h.cfg.WindowLength, float64(hi+1)*h.cfg.WindowLength)
}

// same fails unless s equals the reference.
func (h *history) same(when string, s *Store) {
	if err := sameState(s, h.ref); err != nil {
		h.failf("%s: %v", when, err)
	}
}

// open opens the store on h.cfg.Dir, which holds log and, perhaps,
// inflight, and checks it: RecoveryStats against expectedRecovery, and
// the batches it holds against those it is owed — all of the log after a
// clean Close or a process crash, the durable ones after a power loss.
// The log and the reference become what it holds.
func (h *history) open(when string, power bool, log []logged, inflight tuple.Batch) {
	want, horizon, err := expectedRecovery(h.cfg.Dir)
	if err != nil {
		h.failf("%s: %v", when, err)
	}
	before := listing(h.cfg.Dir)
	s, err := Open(h.cfg)
	if err != nil {
		h.failf("%s: Open: %v", when, err)
	}
	h.s = s
	h.disk.opened(before, listing(h.cfg.Dir))
	h.instrument(s)
	h.rec = s.RecoveryStats()
	if want.SegmentsDeleted = h.rec.SegmentsDeleted; h.rec != want {
		h.failf("%s: recovery %+v, expected %+v", when, h.rec, want)
	}
	if want.FromCheckpoint {
		st := s.CheckpointStats()
		if seq, _, err := readManifest(h.cfg.Dir); err != nil || seq != want.CheckpointSeq || st.LastSeq != int64(seq) || st.LastTuples != int64(want.CheckpointTuples) {
			h.failf("%s: recovered from checkpoint %d of %d tuples, MANIFEST names %d (%v), stats %+v", when, want.CheckpointSeq, want.CheckpointTuples, seq, err, st)
		}
	}
	h.deadSegments(when, horizon)
	got := collectTuples(s)
	kept := func(b tuple.Batch) bool { return slices.ContainsFunc(b, func(r tuple.Raw) bool { return got[r] > 0 }) }
	h.log = nil
	if h.ref, err = Open(Config{WindowLength: h.cfg.WindowLength, Retain: h.cfg.Retain}); err != nil {
		h.failf("reference: %v", err)
	}
	for _, l := range log {
		if !power || l.durable || kept(l.b) {
			h.took(logged{l.b, l.durable || power, l.gen})
		}
	}
	if inflight != nil && kept(inflight) {
		h.took(logged{inflight, power, h.gen})
	}
	h.gen++
	h.stuck = false
	h.same(when, s)
}

// deadSegments fails when Open left a segment past horizon, other than the
// one it opened, whose intact frames all lie in windows older than the
// oldest it retains: with Retain set, Open deletes such a segment.
func (h *history) deadSegments(when string, horizon int) {
	idx := h.s.WindowIndexes()
	names, _ := segmentNames(h.cfg.Dir)
	if h.cfg.Retain == 0 || len(idx) == 0 || len(names) < 2 {
		return
	}
	for _, name := range names[:len(names)-1] {
		if seq, _ := parseSeq(name, "segment-", segExt); seq <= horizon {
			continue
		}
		data, _ := os.ReadFile(filepath.Join(h.cfg.Dir, name))
		var b tuple.Batch
		var err error
		for r := bytes.NewReader(data); err == nil; {
			if _, b, err = readFrame(r, nil, b); err == nil && slices.ContainsFunc(b, func(t tuple.Raw) bool { return tuple.WindowIndex(t.T, h.cfg.WindowLength) >= idx[0] }) {
				break
			}
		}
		if err != nil {
			h.failf("%s: %s holds nothing the store retains, and Open kept it", when, name)
		}
	}
}

// crashed reopens the image the armed crash took, or one of the directory
// as the step left it, and goes on from it.
func (h *history) crashed(i int) {
	if h.img == nil {
		h.image()
	}
	img := h.img
	h.s.Close()
	os.RemoveAll(h.cfg.Dir)
	h.cfg.Dir, h.disk = img.dir, img.disk
	if img.power {
		h.cov["power loss"]++
	} else {
		h.cov["process crash"]++
	}
	h.open(fmt.Sprintf("step %d: crash (power loss %v) before operation %d", i, img.power, h.arm.a%opRange), img.power, img.log, img.inflight)
}

// image takes the armed crash's image of the directory.
func (h *history) image() {
	img := &crashImage{dir: h.tempDir("image"), power: h.arm.b%2 == 1, log: slices.Clone(h.log), inflight: h.inflight}
	var err error
	if img.power {
		img.disk, err = h.disk.powerLoss(img.dir)
	} else if err = copyDir(h.cfg.Dir, img.dir); err == nil {
		img.disk = h.disk.clone()
	}
	if err != nil {
		h.failf("crash image: %v", err)
	}
	h.img = img
}

// tempDir makes a directory for the history.
func (h *history) tempDir(what string) string {
	dir, err := os.MkdirTemp(h.root, what)
	if err != nil {
		h.failf("%s: %v", what, err)
	}
	return dir
}

// at counts a disk operation of the step and says whether the armed crash
// or fault lands on it.
func (h *history) at(kind, path string) (crash, fault bool) {
	name := filepath.Base(path)
	if path == h.cfg.Dir {
		name = "dir"
	}
	h.trace = append(h.trace, kind+" "+name)
	if h.arm == nil || len(h.trace)-1 != h.arm.a%opRange {
		return false, false
	}
	if h.arm.kind == "crash" {
		return h.img == nil, false
	}
	h.fired = kind
	return false, true
}

// instrument routes s's disk operations through h.
func (h *history) instrument(s *Store) {
	s.writer = func(f *os.File) io.Writer {
		return writeFunc(func(p []byte) (int, error) {
			crash, fault := h.at("write", f.Name())
			n := 0
			if crash {
				n = h.arm.b % (len(p) + 1)
			} else if fault && len(p) > 1 && h.arm.b%3 > 0 {
				n = 1 + h.arm.b/3%(len(p)-1)
			}
			if _, err := f.Write(p[:n]); err != nil {
				return 0, err
			}
			switch {
			case crash:
				h.image()
			case fault:
				if h.arm.b%3 == 2 && strings.HasPrefix(filepath.Base(f.Name()), "segment-") {
					f.Close()
					h.closed[f], h.stuck = true, true
					h.cov["rotation"]++
				}
				return n, errInjected
			}
			m, err := f.Write(p[n:])
			return n + m, err
		})
	}
	s.syncSeg = func(f *os.File) error {
		if crash, fault := h.at("sync", f.Name()); crash {
			h.image()
		} else if fault {
			return errInjected
		}
		if h.closed[f] {
			return os.ErrClosed
		}
		h.disk.synced(h.cfg.Dir, f.Name())
		return nil
	}
	s.renameFile = func(oldpath, newpath string) error {
		if crash, fault := h.at("rename", newpath); crash {
			h.image()
		} else if fault {
			return errInjected
		}
		if err := os.Rename(oldpath, newpath); err != nil {
			return err
		}
		h.disk.cur[filepath.Base(newpath)] = h.disk.file(filepath.Base(oldpath))
		delete(h.disk.cur, filepath.Base(oldpath))
		return nil
	}
	s.removeFile = func(path string) error {
		if crash, fault := h.at("remove", path); crash {
			h.image()
		} else if fault {
			return errInjected
		}
		if err := os.Remove(path); err != nil {
			return err
		}
		delete(h.disk.cur, filepath.Base(path))
		return nil
	}
	s.openColumnar = func(path string) (*colblock.Reader, error) {
		if crash, fault := h.at("verify", path); crash {
			h.image()
		} else if fault {
			if err := flipByte(path, h.arm.b); err != nil {
				h.failf("read-back fault: %v", err)
			}
		}
		return colblock.OpenFile(path)
	}
}

// writeFunc is a function as an io.Writer.
type writeFunc func(p []byte) (int, error)

func (w writeFunc) Write(p []byte) (int, error) { return w(p) }

// damage reopens an image of the directory with a byte flipped in the
// newest checkpoint, which Open must pass over as expectedRecovery says,
// or in a replayed segment's frame that intact frames follow, which must
// fail Open.
func (h *history) damage(st hstep) {
	dir := h.tempDir("damaged")
	if err := copyDir(h.cfg.Dir, dir); err != nil {
		h.failf("damage: %v", err)
	}
	defer os.RemoveAll(dir)
	cfg := h.cfg
	cfg.Dir = dir
	if st.a%2 == 0 {
		cks, err := checkpointFiles(dir)
		if err != nil || len(cks) == 0 {
			return
		}
		if err := flipByte(filepath.Join(dir, cks[0].name), st.b); err != nil {
			h.failf("damage: %v", err)
		}
		want, _, err := expectedRecovery(dir)
		if err != nil {
			h.failf("damage: %v", err)
		}
		s, err := Open(cfg)
		if err != nil {
			h.failf("damaged %s: Open: %v", cks[0].name, err)
		}
		defer s.Close()
		got := s.RecoveryStats()
		if want.SegmentsDeleted = got.SegmentsDeleted; got != want {
			h.failf("damaged %s: recovery %+v, expected %+v", cks[0].name, got, want)
		}
		if want.CorruptCheckpoints > 0 {
			h.cov["checkpoint fallback"]++
		}
		ingested := map[tuple.Raw]int{}
		for _, l := range h.log {
			for _, r := range l.b {
				ingested[r]++
			}
		}
		for r, n := range collectTuples(s) {
			if n > ingested[r] {
				h.failf("damaged %s: tuple %v recovered %d times, taken in %d", cks[0].name, r, n, ingested[r])
			}
		}
		return
	}
	_, horizon, err := expectedRecovery(dir)
	names, _ := segmentNames(dir)
	for _, name := range names {
		if seq, _ := parseSeq(name, "segment-", segExt); seq <= horizon || err != nil {
			continue
		}
		path := filepath.Join(dir, name)
		data, _ := os.ReadFile(path)
		var ends []int
		for r := bytes.NewReader(data); ; {
			if _, _, err := readFrame(r, nil, nil); err != nil {
				break
			}
			ends = append(ends, len(data)-r.Len())
		}
		if len(ends) < 2 {
			continue
		}
		data[st.b%ends[len(ends)-2]] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			h.failf("damage: %v", err)
		}
		if s, err := Open(cfg); err == nil {
			s.Close()
			h.failf("%s, damaged in a frame %d intact ones follow, opened", name, len(ends)-1)
		}
		h.cov["segment refusal"]++
		return
	}
}

// flipByte flips byte off%len of the file at path.
func flipByte(path string, off int) error {
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		return err
	}
	data[off%len(data)] ^= 0xff
	return os.WriteFile(path, data, 0o644)
}

// expectedRecovery is an oracle for what Open does with dir: the
// checkpoint it recovers from — the one MANIFEST names first, then the
// others newest first, each decoded in full by colblock.Verify — how many
// it passes over as corrupt (a MANIFEST naming no file counts one), and
// the segments after that checkpoint's horizon, which it replays up to
// their first frame that does not decode. It also returns the horizon, -1
// without a checkpoint.
func expectedRecovery(dir string) (RecoveryStats, int, error) {
	var rs RecoveryStats
	names, err := segmentNames(dir)
	if err != nil {
		return rs, 0, err
	}
	cks, err := checkpointFiles(dir)
	if err != nil {
		return rs, 0, err
	}
	if manSeq, _, err := readManifest(dir); err == nil {
		if !slices.ContainsFunc(cks, func(ck ckFile) bool { return ck.seq == manSeq }) {
			rs.CorruptCheckpoints++
		}
		sort.SliceStable(cks, func(i, j int) bool { return cks[i].seq == manSeq && cks[j].seq != manSeq })
	}
	horizon := -1
	for _, ck := range cks {
		img, err := os.ReadFile(filepath.Join(dir, ck.name))
		if err == nil {
			err = colblock.Verify(img)
		}
		var rd *colblock.Reader
		if err == nil {
			rd, err = colblock.OpenBytes(img)
		}
		if err != nil || rd.Meta().Seq != ck.seq {
			rs.CorruptCheckpoints++
			continue
		}
		rs.FromCheckpoint, rs.CheckpointSeq, rs.CheckpointTuples, horizon = true, ck.seq, rd.Tuples(), rd.Meta().Horizon
		break
	}
	for _, name := range names {
		if seq, _ := parseSeq(name, "segment-", segExt); seq > horizon {
			rs.SegmentsReplayed++
			data, err := os.ReadFile(filepath.Join(dir, name))
			for r := bytes.NewReader(data); err == nil; {
				var b tuple.Batch
				if _, b, err = readFrame(r, nil, nil); err == nil {
					rs.TuplesReplayed += len(b)
				}
			}
		}
	}
	return rs, horizon, nil
}

// diskModel is what a power loss would leave of a data directory: each
// file's contents at its last fsync, under the names the directory's last
// fsync saw. cur holds the file each name holds now; a rename moves a
// file to its new name, and an fsync of the directory makes every name it
// holds durable (dur).
type diskModel struct {
	cur, dur map[string]*dfile
}

// dfile is one file; synced is nil until its first fsync.
type dfile struct{ synced []byte }

func newDiskModel() diskModel {
	return diskModel{cur: map[string]*dfile{}, dur: map[string]*dfile{}}
}

// synced records an fsync of path, the directory dir or a file in it.
func (d *diskModel) synced(dir, path string) {
	if path != dir {
		data, _ := os.ReadFile(path)
		d.file(filepath.Base(path)).synced = data
		return
	}
	entries, _ := os.ReadDir(dir)
	d.dur = map[string]*dfile{}
	for _, e := range entries {
		d.dur[e.Name()] = d.file(e.Name())
	}
}

// file returns the file name holds now, new if the model has not seen it.
func (d *diskModel) file(name string) *dfile {
	if d.cur[name] == nil {
		d.cur[name] = &dfile{}
	}
	return d.cur[name]
}

// opened records what Open did to the directory, from its listings
// before and after: the segment it created is new, a file it removed is
// gone from the current names, and the MANIFEST it healed is durable,
// written through an fsync, a rename and a directory fsync.
func (d *diskModel) opened(before, after map[string][]byte) {
	for name := range before {
		if _, ok := after[name]; !ok {
			delete(d.cur, name)
		}
	}
	for name, data := range after {
		old, ok := before[name]
		switch {
		case data != nil && !bytes.Equal(old, data):
			f := &dfile{synced: data}
			d.cur[name], d.dur[name] = f, f
		case !ok:
			d.cur[name] = &dfile{}
		}
	}
}

// clone copies the model, a file held under two names staying one file.
func (d *diskModel) clone() diskModel {
	c, seen := newDiskModel(), map[*dfile]*dfile{}
	cp := func(f *dfile) *dfile {
		if seen[f] == nil {
			seen[f] = &dfile{synced: f.synced}
		}
		return seen[f]
	}
	for name, f := range d.cur {
		c.cur[name] = cp(f)
	}
	for name, f := range d.dur {
		c.dur[name] = cp(f)
	}
	return c
}

// powerLoss writes what a power loss leaves into dir and returns its
// model: every file in it durable.
func (d *diskModel) powerLoss(dir string) (diskModel, error) {
	img := newDiskModel()
	for name, f := range d.dur {
		if err := os.WriteFile(filepath.Join(dir, name), f.synced, 0o644); err != nil {
			return img, err
		}
		g := &dfile{synced: f.synced}
		img.cur[name], img.dur[name] = g, g
	}
	return img, nil
}

// listing is the names of the files in dir, each with nil but MANIFEST,
// the one file Open may write: with its contents.
func listing(dir string) map[string][]byte {
	entries, _ := os.ReadDir(dir)
	names := make(map[string][]byte, len(entries))
	for _, e := range entries {
		names[e.Name()] = nil
	}
	if data, err := os.ReadFile(filepath.Join(dir, manifestName)); err == nil {
		names[manifestName] = data
	}
	return names
}

// readDir reads every file of dir, by name.
func readDir(dir string) (map[string][]byte, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			return nil, err
		}
	}
	return files, nil
}

// copyDir copies the files of src into dst.
func copyDir(src, dst string) error {
	files, err := readDir(src)
	for name, data := range files {
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, name), data, 0o644)
		}
	}
	return err
}

// TestStoreHistoryProperty: see the file comment.
func TestStoreHistoryProperty(t *testing.T) {
	cov := map[string]int{}
	for seed := int64(1); seed <= 8*histSeeds; seed++ {
		playHistory(t, seed, histConfig(seed), drawHistory(seed), cov, nil)
	}
	t.Logf("reached %v", cov)
	for _, what := range []string{"process crash", "power loss", "write", "sync", "rename", "remove", "verify", "rotation", "segment refusal", "checkpoint fallback"} {
		if cov[what] == 0 {
			t.Errorf("the sweep reached no %s", what)
		}
	}
}

// TestCheckpointCutPoints pins the disk operations of one checkpoint, in
// order — seal the segment, write the checkpoint file, commit MANIFEST,
// read the file back, compact — and crashes before each of them and after
// the last. Recovery finds the old checkpoint and its two-segment suffix
// up to and including the rename of MANIFEST (the new file is complete
// before that, but the committed one comes first), and the new one and
// the one segment after it from then on: never something in between, and
// the same tuples either way. A crash before the first checkpoint's
// MANIFEST exists leaves a complete file no MANIFEST names: recovery uses
// it, and commits it before it deletes the segment it covers.
func TestCheckpointCutPoints(t *testing.T) {
	cfg := Config{WindowLength: 100, Sync: SyncNever()}
	// Windows 0 and 1, checkpointed; late tuples into both, and window 2.
	script := []hstep{{"append", 1, 30}, {"append", 0, 30}, {"checkpoint", 0, 0}, {"late", 0, 30}, {"append", 0, 30}}
	var ops []string
	playHistory(t, 1, cfg, append(script, hstep{"checkpoint", 0, 0}), nil, func(h *history, i int) {
		if i == len(script) {
			ops = h.trace
			if cs := h.s.ColumnarStats(); cs.LazyWindows != 3 {
				t.Errorf("stats %+v: want all three windows released to the new file", cs)
			}
		}
	})
	wantOps := []string{
		"sync segment-000001.emt",
		"write checkpoint-000001.emc.tmp",
		"sync checkpoint-000001.emc.tmp",
		"rename checkpoint-000001.emc",
		"sync dir",
		"write MANIFEST.tmp",
		"sync MANIFEST.tmp",
		"rename MANIFEST",
		"sync dir",
		"verify checkpoint-000001.emc",
		"remove segment-000001.emt",
		"remove checkpoint-000000.emc",
	}
	if !slices.Equal(ops, wantOps) {
		t.Fatalf("checkpoint operations:\n%q\nwant\n%q", ops, wantOps)
	}
	for k := range len(wantOps) + 1 {
		playHistory(t, 1, cfg, append(script, hstep{"crash", k, 0}, hstep{"checkpoint", 0, 0}), nil, func(h *history, i int) {
			if i != len(script)+1 {
				return
			}
			wantSeq, wantSuffix := 0, 2 // segment 1, and segment 2 opened by the rotation
			if k > slices.Index(wantOps, "rename MANIFEST") {
				wantSeq, wantSuffix = 1, 1
			}
			if rs := h.rec; !rs.FromCheckpoint || rs.CheckpointSeq != wantSeq || rs.SegmentsReplayed != wantSuffix || rs.CorruptCheckpoints != 0 {
				t.Errorf("crash before operation %d: recovery %+v, want checkpoint %d and %d replayed segments", k, rs, wantSeq, wantSuffix)
			}
		})
	}
	first := []hstep{{"append", 1, 30}, {"crash", slices.Index(wantOps, "rename MANIFEST"), 0}, {"checkpoint", 0, 0}}
	playHistory(t, 1, cfg, first, nil, func(h *history, i int) {
		if i != len(first)-1 {
			return
		}
		if rs := h.s.RecoveryStats(); !rs.FromCheckpoint || rs.CheckpointSeq != 0 || rs.CorruptCheckpoints != 0 || rs.SegmentsDeleted != 1 {
			t.Errorf("crash before the first MANIFEST: recovery %+v, want checkpoint 0 and its segment deleted", rs)
		}
	})
}

// TestCheckpointReadBackFailureReleasesNothing damages the checkpoint file
// between the rename of MANIFEST and the read-back. Nothing that was
// durable fails — the file and MANIFEST stand — but the store releases
// nothing and compacts nothing: the heap copy keeps serving, and the
// attempt counts as a failure. The running store's next checkpoint goes
// through, releases and compacts; a restart instead finds the committed
// file bad and falls back to the previous one and the segments behind it.
func TestCheckpointReadBackFailureReleasesNothing(t *testing.T) {
	cfg := colCfg("")
	// Windows 0 and 1, checkpointed; late tuples into both, and windows 2
	// and 3; then a checkpoint whose read-back (its tenth operation) finds
	// a byte of the first block flipped.
	script := []hstep{{"append", 1, 39}, {"append", 0, 39}, {"checkpoint", 0, 0}, {"late", 0, 20},
		{"append", 0, 20}, {"append", 0, 20}, {"fault", 9, 20}, {"checkpoint", 0, 0}}
	failed := func(h *history) {
		if h.fired != "verify" {
			t.Fatalf("the fault failed %q, not the read-back", h.fired)
		}
		if st := h.s.CheckpointStats(); st.Failures != 1 || st.Checkpoints != 2 || st.LastSeq != 1 {
			t.Fatalf("checkpoint stats %+v: want checkpoint 1 committed and one failure", st)
		}
		if cs := h.s.ColumnarStats(); cs.LazyWindows != 2 || cs.MaterializeFailures != 0 {
			t.Fatalf("stats %+v: nothing may be released to a file that failed its read-back", cs)
		}
		for _, name := range []string{checkpointName(0), checkpointName(1), "segment-000001.emt"} {
			if _, err := os.Stat(filepath.Join(h.cfg.Dir, name)); err != nil {
				t.Errorf("a checkpoint that failed its read-back compacted: %v", err)
			}
		}
	}
	// The running store carries on: its next checkpoint reads its bases
	// from checkpoint 0, is read back, releases and compacts.
	playHistory(t, 1, cfg, append(script, hstep{"checkpoint", 0, 0}, hstep{"restart", 0, 0}), nil, func(h *history, i int) {
		switch i - len(script) {
		case -1:
			failed(h)
		case 0:
			if cs := h.s.ColumnarStats(); cs.LazyWindows != 4 {
				t.Errorf("stats %+v: want all four windows released", cs)
			}
		case 1:
			if rs := h.rec; !rs.FromCheckpoint || rs.CheckpointSeq != 2 || rs.CorruptCheckpoints != 0 {
				t.Errorf("recovery %+v: want checkpoint 2", rs)
			}
		}
	})
	// A restart instead: recovery rejects the committed file and falls
	// back, and the next checkpoint numbers past the rejected one.
	playHistory(t, 1, cfg, append(script, hstep{"restart", 0, 0}, hstep{"checkpoint", 0, 0}), nil, func(h *history, i int) {
		switch i - len(script) {
		case -1:
			failed(h)
		case 0:
			if rs := h.rec; !rs.FromCheckpoint || rs.CheckpointSeq != 0 || rs.CorruptCheckpoints != 1 {
				t.Errorf("recovery %+v: want checkpoint 1 rejected, checkpoint 0 used", rs)
			}
		case 1:
			if st := h.s.CheckpointStats(); st.LastSeq != 2 {
				t.Errorf("checkpoint stats %+v: want checkpoint 2", st)
			}
		}
	})
}

// TestTruncatedCheckpointDegrades: a checkpoint file cut to nothing under
// a running store costs each window its base, counted once, and the
// window serves its in-memory suffix; no read fails or faults.
func TestTruncatedCheckpointDegrades(t *testing.T) {
	// Windows 0 to 2, checkpointed, then late tuples into all three.
	script := []hstep{{"append", 1, 39}, {"append", 0, 39}, {"append", 0, 39}, {"checkpoint", 0, 0}, {"late", 1, 29}}
	playHistory(t, 1, colCfg(""), script, nil, func(h *history, i int) {
		if i != len(script)-1 {
			return
		}
		path := filepath.Join(h.cfg.Dir, checkpointName(0))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, 0); err != nil {
			t.Fatal(err)
		}
		suffix := slices.Clone(h.log[len(h.log)-1].b)
		suffix.SortByTime()
		for read := 1; read <= 2; read++ {
			for c := 0; c < 3; c++ {
				want := slices.DeleteFunc(slices.Clone(suffix), func(tp tuple.Raw) bool { return tuple.WindowIndex(tp.T, 100) != c })
				if got := h.s.Window(c); len(want) == 0 || !batchBitEqual(got, want) {
					t.Fatalf("read %d: window %d served %d tuples, want its %d-tuple suffix", read, c, len(got), len(want))
				}
			}
			if cs := h.s.ColumnarStats(); cs.MaterializeFailures != 3 || cs.LazyWindows != 0 {
				t.Fatalf("read %d: stats %+v: want each of the three lost bases counted once", read, cs)
			}
		}
		// Put the file back: the history's last restart recovers from it.
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCheckpointEmptyStore: a restart recovers from an empty checkpoint.
func TestCheckpointEmptyStore(t *testing.T) {
	playHistory(t, 1, Config{WindowLength: 100}, []hstep{{"checkpoint", 0, 0}, {"restart", 0, 0}}, nil, func(h *history, i int) {
		if i == 1 && !h.rec.FromCheckpoint {
			t.Error("the restart did not recover from the empty checkpoint")
		}
	})
}

// TestCheckpointBoundsOnDiskSegments: round after round of an append and
// a checkpoint, each checkpoint leaves MANIFEST, itself, the newest
// KeepSegments segments it covers and the one it rotated to (the sweep's
// check), and compaction deletes the rest.
func TestCheckpointBoundsOnDiskSegments(t *testing.T) {
	var steps []hstep
	for range 8 {
		steps = append(steps, hstep{"append", 0, 1}, hstep{"checkpoint", 0, 0})
	}
	playHistory(t, 1, Config{WindowLength: 100, Retain: 4, KeepSegments: 1}, steps, nil, func(h *history, i int) {
		if st := h.s.CheckpointStats(); i == len(steps)-1 && (st.Checkpoints != 8 || st.Failures != 0 || st.SegmentsDeleted != 7) {
			t.Errorf("CheckpointStats = %+v, want 8 checkpoints deleting 7 segments", st)
		}
	})
}

// TestRecoverDeletesRetentionDeadSegments: six windows, each appended to
// a segment of its own by a store restarted after it; with Retain 2 a
// restart deletes the segments whose frames all lie behind the retained
// windows (the sweep's check), and the survivors hold the retained ones.
func TestRecoverDeletesRetentionDeadSegments(t *testing.T) {
	var steps []hstep
	for range 6 {
		steps = append(steps, hstep{"append", 0, 1}, hstep{"restart", 0, 0})
	}
	playHistory(t, 1, Config{WindowLength: 100, Retain: 2}, steps, nil, func(h *history, i int) {
		if i == len(steps)-1 && (h.rec.SegmentsDeleted == 0 || !slices.Equal(h.s.WindowIndexes(), []int{5, 6})) {
			t.Errorf("recovery %+v, windows %v: want dead segments deleted and windows [5 6]", h.rec, h.s.WindowIndexes())
		}
	})
}
