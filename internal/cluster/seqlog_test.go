package cluster

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/tuple"
	"repro/internal/wire"
)

// naiveLog is the slice-and-copy log seqLog replaced, kept as the model
// the ring is checked against.
type naiveLog struct {
	start  uint64
	tuples []tuple.Raw
}

func (m *naiveLog) append(tuples []tuple.Raw, retain int) {
	m.tuples = append(m.tuples, tuples...)
	if over := len(m.tuples) - retain; over > 0 {
		m.start += uint64(over)
		m.tuples = append(m.tuples[:0:0], m.tuples[over:]...)
	}
}

func (m *naiveLog) suffix(have uint64, limit int) wire.ReplicaCatchupResponse {
	next := m.start + uint64(len(m.tuples))
	resp := wire.ReplicaCatchupResponse{}
	var idx int
	switch {
	case have == next:
		return wire.ReplicaCatchupResponse{From: next, Done: true}
	case have > next || have < m.start:
		resp.Snapshot = true
		resp.From = m.start
	default:
		resp.From = have
		idx = int(have - m.start)
	}
	end := min(idx+limit, len(m.tuples))
	resp.Tuples = append([]tuple.Raw(nil), m.tuples[idx:end]...)
	resp.Done = end == len(m.tuples)
	return resp
}

// TestSeqLogMatchesNaiveModel drives the ring and the model with the
// same random appends — sizes from empty to larger than the cap, so the
// log crosses its cap many times — and after each compares start, next
// and every suffix a puller could ask for: behind the log (snapshot), at
// every retained position, at next (done) and past it (diverged), with
// limits that cut the chunk short and limits that do not.
func TestSeqLogMatchesNaiveModel(t *testing.T) {
	for _, retain := range []int{1, 7, 64} {
		rng := rand.New(rand.NewSource(int64(retain)))
		lg := seqLog{retain: retain}
		var model naiveLog
		var seq float64
		for step := 0; step < 400; step++ {
			if step == 200 {
				// A snapshot reset mid-history: both restart at a new sequence.
				from := model.start + uint64(len(model.tuples)) + 5
				lg.reset(from)
				model = naiveLog{start: from}
			}
			b := make([]tuple.Raw, rng.Intn(2*retain+2))
			for i := range b {
				seq++
				b[i] = tuple.Raw{T: seq, X: rng.Float64(), Y: rng.Float64(), S: rng.Float64()}
			}
			lg.append(b)
			model.append(b, retain)

			next := model.start + uint64(len(model.tuples))
			if lg.start != model.start || lg.next() != next {
				t.Fatalf("retain %d step %d: [start,next) = [%d,%d), model [%d,%d)",
					retain, step, lg.start, lg.next(), model.start, next)
			}
			if cap(lg.buf) > retain {
				t.Fatalf("retain %d step %d: ring holds capacity for %d tuples", retain, step, cap(lg.buf))
			}
			lo := uint64(0)
			if model.start > 2 {
				lo = model.start - 2
			}
			for have := lo; have <= next+2; have++ {
				for _, limit := range []int{1, 3, retain, retain + 1} {
					got, want := lg.suffix(have, limit), model.suffix(have, limit)
					if len(got.Tuples) == 0 && len(want.Tuples) == 0 {
						got.Tuples, want.Tuples = nil, nil
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("retain %d step %d: suffix(%d, %d) over [%d,%d)\n got %+v\nwant %+v",
							retain, step, have, limit, model.start, next, got, want)
					}
				}
			}
		}
	}
}

// TestSeqLogSuffixIsACopy: a chunk handed to a puller must not alias the
// ring, which later appends overwrite in place.
func TestSeqLogSuffixIsACopy(t *testing.T) {
	lg := seqLog{retain: 4}
	lg.append([]tuple.Raw{{T: 1}, {T: 2}, {T: 3}, {T: 4}})
	chunk := lg.suffix(0, 4).Tuples
	lg.append([]tuple.Raw{{T: 5}, {T: 6}})
	if chunk[0].T != 1 || chunk[1].T != 2 {
		t.Errorf("suffix chunk changed under a later append: %+v", chunk)
	}
}

// fullSeqLog returns a log already at its cap.
func fullSeqLog(retain int) *seqLog {
	lg := &seqLog{retain: retain}
	lg.append(make([]tuple.Raw, retain))
	return lg
}

// TestSeqLogAppendAtCapAllocatesNothing: at the cap an append overwrites
// the oldest tuples in place.
func TestSeqLogAppendAtCapAllocatesNothing(t *testing.T) {
	lg := fullSeqLog(1 << 12)
	batch := make([]tuple.Raw, 256)
	if allocs := testing.AllocsPerRun(100, func() { lg.append(batch) }); allocs != 0 {
		t.Errorf("append at the cap = %v allocs, want 0", allocs)
	}
	if len(lg.buf) != 1<<12 || cap(lg.buf) != 1<<12 {
		t.Errorf("ring is %d/%d tuples, want exactly the cap %d", len(lg.buf), cap(lg.buf), 1<<12)
	}
}

// BenchmarkReplLogAppendAtCap is one 256-tuple commit landing on a
// replication log that already retains defaultLogRetain tuples — the
// steady state of a long-running primary or mirror.
func BenchmarkReplLogAppendAtCap(b *testing.B) {
	lg := fullSeqLog(defaultLogRetain)
	batch := make([]tuple.Raw, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lg.append(batch)
	}
}
