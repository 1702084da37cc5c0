package cluster

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/colblock"
	"repro/internal/store"
	"repro/internal/tuple"
)

// TestIndexedReplLogProperty drives a primary's replication log over a
// durable store through seeded random histories, beside a by-value
// shadow colblock.Log that sheds its head as a mirror's log does (dropWhile
// over the store's retention). Commits are in order, late (into a
// retained window older than the newest) or dead on arrival (older than
// every retained window), one to a few windows at a time; checkpoints
// turn windows lazy, so runs are read back through the checkpoint
// reader; once, a checkpoint file is cut short, so the windows it held
// lose their base. After every step the log's sequence space must be the
// shadow's, and every suffix a puller could ask for must equal the
// shadow's bit for bit — or, when it reaches an indexed run of a window
// that lost its base, fail rather than return other tuples. A failure
// names its seed.
func TestIndexedReplLogProperty(t *testing.T) {
	seeds := int64(6)
	if raceEnabled {
		seeds = 2
	}
	var seen historyCounts
	for _, retain := range []int{0, 3} {
		for seed := int64(1); seed <= seeds; seed++ {
			seen.add(indexedLogHistory(t, seed, retain))
		}
	}
	// The histories must have taken every path they are meant to.
	if seen.lost == 0 || seen.byValue == 0 || seen.decoded == 0 || seen.failed == 0 {
		t.Fatalf("histories too tame: %+v", seen)
	}
}

// historyCounts is what one history exercised: windows that lost their
// base, steps ending with tuples held by value, base decodes, and
// suffixes that failed on a lost base.
type historyCounts struct {
	lost, byValue, failed int
	decoded               int64
}

func (h *historyCounts) add(o historyCounts) {
	h.lost += o.lost
	h.byValue += o.byValue
	h.failed += o.failed
	h.decoded += o.decoded
}

func indexedLogHistory(t *testing.T, seed int64, retain int) (seen historyCounts) {
	const window = 100.0
	name := fmt.Sprintf("seed %d, retain %d", seed, retain)
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	st, err := store.Open(store.Config{WindowLength: window, Retain: retain, Dir: dir, Sync: store.SyncNever()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var keep retention
	if retain > 0 {
		keep = retention{window: window, retain: retain}
	}
	lg := newReplLog(st, window, keep, 1)
	var shadow colblock.Log
	shadowKeep := keep
	lost := make(map[int]bool) // windows whose base the store lost
	clock := 0.0
	gen := func() []tuple.Raw {
		b := make([]tuple.Raw, 1+rng.Intn(60))
		kind := rng.Intn(6) // 0: late, 1: dead on arrival, else in order
		for i := range b {
			clock += rng.Float64() * 8
			ts := clock
			switch {
			case kind == 0 || rng.Intn(10) == 0:
				ts = max(0, clock-float64(1+rng.Intn(max(retain, 2)))*window)
			case kind == 1:
				ts = max(0, clock-float64(retain+1+rng.Intn(3))*window)
			}
			b[i] = tuple.Raw{T: ts, X: rng.Float64() * 1000, Y: rng.NormFloat64() * 100, S: float64(rng.Intn(800)) / 8}
		}
		return b
	}
	cut := false
	for step := 0; step < 150; step++ {
		switch op := rng.Intn(10); {
		case op < 7:
			b := gen()
			if err := st.Append(b); err != nil {
				t.Fatal(err)
			}
			lg.commit(b)
			shadow.Append(b)
			shadowKeep.add(b)
			shadow.DropWhile(shadowKeep.evicted)
		case op < 9:
			if err := st.Checkpoint(); err != nil {
				t.Fatalf("%s, step %d: %v", name, step, err)
			}
		case !cut && step > 50:
			// The checkpoint file is cut short under the reader: every lazy
			// window's base is gone. Reading each window settles which.
			files, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.emc"))
			if len(files) == 0 {
				continue
			}
			cut = true
			for _, f := range files {
				if err := os.Truncate(f, 0); err != nil {
					t.Fatal(err)
				}
			}
			for _, c := range st.WindowIndexes() {
				n := st.WindowLen(c)
				if st.Window(c); st.WindowLen(c) < n {
					lost[c] = true
				}
			}
		}

		if lg.start != shadow.Start() || lg.next() != shadow.Next() {
			t.Fatalf("%s, step %d: [start,next) = [%d,%d), shadow [%d,%d)", name, step, lg.start, lg.next(), shadow.Start(), shadow.Next())
		}
		for range 6 {
			have := shadow.Start() + uint64(rng.Intn(shadow.Len()+1))
			inc := uint64(1)
			if rng.Intn(6) == 0 {
				inc = 2 // another incarnation's position: a snapshot reset
			}
			limit := 1 + rng.Intn(400)
			got, err := lg.suffix(have, inc, limit)
			wantHave := have
			if inc != 1 {
				wantHave = otherIncarnation
			}
			want := suffix(&shadow, wantHave, limit)
			if reads := lg.readsLost(want.From-shadow.Start(), len(want.Tuples), lost); reads {
				if err == nil {
					t.Fatalf("%s, step %d: suffix(%d, %d) reaches a window that lost its base, and did not fail", name, step, have, limit)
				}
				seen.failed++
				continue
			}
			if err != nil {
				t.Fatalf("%s, step %d: suffix(%d, %d): %v", name, step, have, limit, err)
			}
			if got.Incarnation != 1 || got.From != want.From || got.Snapshot != want.Snapshot || got.Done != want.Done || !bitEqualTuples(got.Tuples, want.Tuples) {
				t.Fatalf("%s, step %d: suffix(%d, %d, inc %d) over [%d,%d) differs from the shadow", name, step, have, limit, inc, shadow.Start(), shadow.Next())
			}
		}
		byValue := 0
		for _, r := range lg.runs {
			if r.byValue() {
				byValue += r.n
			}
		}
		if byValue != lg.vals.Len() {
			t.Fatalf("%s, step %d: by-value runs hold %d tuples, vals %d", name, step, byValue, lg.vals.Len())
		}
		if byValue > 0 {
			seen.byValue++
		}
	}
	seen.lost = len(lost)
	seen.decoded = st.ColumnarStats().Materializations
	return seen
}

// readsLost reports whether the log's tuples [off, off+n) take in an
// indexed run of a window in lost.
func (l *replLog) readsLost(off uint64, n int, lost map[int]bool) bool {
	at := 0
	for _, r := range l.runs {
		if !r.byValue() && lost[r.c] && at < int(off)+n && int(off) < at+r.n {
			return true
		}
		at += r.n
	}
	return false
}

// TestReplLogWithoutStoreIsCappedSeqLog: a log with no store keeps every
// run by value, capped at logRetain, so it answers exactly what a capped
// colblock.Log fed the same commits does — also across a commit larger than the
// cap, and with windows interleaved so the runs do not merge.
func TestReplLogWithoutStoreIsCappedSeqLog(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lg := newReplLog(nil, 100, retention{}, 1)
	shadow := colblock.Log{Retain: logRetain, Recycle: true}
	clock := 0.0
	for step, size := range []int{500, 70_000, 9, 60_000, logRetain + 1_000, 3, 40_000} {
		b := make([]tuple.Raw, size)
		for i := range b {
			clock += rng.Float64()
			b[i] = tuple.Raw{T: clock - float64(rng.Intn(2))*150, X: rng.Float64(), S: float64(i)}
		}
		lg.commit(b)
		shadow.Append(b)
		if lg.start != shadow.Start() || lg.next() != shadow.Next() || lg.valueTuples() != shadow.Len() {
			t.Fatalf("step %d: log [%d,%d) holding %d, shadow [%d,%d) holding %d",
				step, lg.start, lg.next(), lg.valueTuples(), shadow.Start(), shadow.Next(), shadow.Len())
		}
		for range 8 {
			have := shadow.Start() + uint64(rng.Intn(shadow.Len()+1))
			got, err := lg.suffix(have, 1, 5_000)
			want := suffix(&shadow, have, 5_000)
			if err != nil || got.From != want.From || got.Snapshot != want.Snapshot || got.Done != want.Done || !bitEqualTuples(got.Tuples, want.Tuples) {
				t.Fatalf("step %d: suffix(%d) differs from the capped log's (%v)", step, have, err)
			}
		}
	}
}

// TestReplLogWithoutStoreShedsEvictedWindows: a log with no store under
// bounded retention sheds its head as a mirror's log does — the runs of
// evicted windows, no more.
func TestReplLogWithoutStoreShedsEvictedWindows(t *testing.T) {
	const window = 100.0
	lg := newReplicator(nil, ReplicationConfig{WindowLength: window, Retain: 2}).log(tuple.CO2)
	var shadow colblock.Log
	shadowKeep := retention{window: window, retain: 2}
	for w := range 5 {
		b := []tuple.Raw{{T: float64(w)*window + 1, S: 1}, {T: float64(w)*window + 2, S: 2}}
		lg.commit(b)
		shadow.Append(b)
		shadowKeep.add(b)
		shadow.DropWhile(shadowKeep.evicted)
		if lg.start != shadow.Start() || lg.next() != shadow.Next() {
			t.Fatalf("window %d: log [%d,%d), shadow [%d,%d)", w, lg.start, lg.next(), shadow.Start(), shadow.Next())
		}
	}
}
