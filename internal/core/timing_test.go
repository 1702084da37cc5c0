package core

// Which cover answers a live-window read depends on when its rebuilds
// land: under stale-while-revalidate a read right after a write gets the
// window's previous cover until the scheduler installs the new one. This
// reports, without gating on it, how many answers of one seeded history
// change when every scheduled build is held back.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/store"
	"repro/internal/tuple"
)

// timingWindowLen is the window length of the timing history.
const timingWindowLen = 100.0

// answer is one read of the timing history: its value's bits, or the
// error it failed with.
type answer struct {
	bits uint64
	err  string
}

// playTimingHistory plays the seeded history of appends and reads on a
// maintainer under a two-worker scheduler and returns every read's
// answer. With hold set, no scheduled build runs until the history ends.
func playTimingHistory(t *testing.T, seed int64, hold bool) []answer {
	t.Helper()
	st := store.MustOpenMemory(timingWindowLen)
	defer st.Close()
	m := NewMaintainer(st, Config{Cluster: clusterSeed(seed)})
	defer m.Close()
	s := NewScheduler(SchedulerConfig{Workers: 2})
	defer s.Close()
	release := make(chan struct{})
	if hold {
		s.testHold = func() { <-release }
	}
	defer close(release) // before Close, which waits for held workers
	defer s.Watch(m)()

	rng := rand.New(rand.NewSource(seed))
	write := func(c int) {
		b := make(tuple.Batch, 5+rng.Intn(30))
		for i := range b {
			x, y := rng.Float64()*2000, rng.Float64()*2000
			b[i] = tuple.Raw{
				T: (float64(c) + rng.Float64()) * timingWindowLen,
				X: x, Y: y,
				S: 400 + 0.05*x + 0.02*y + 20*rng.NormFloat64(),
			}
		}
		if err := st.Append(b); err != nil {
			t.Fatal(err)
		}
		m.Invalidate(c)
	}
	newest := 0
	write(0)
	var answers []answer
	for step := 0; step < 600; step++ {
		switch op := rng.Intn(100); {
		case op < 40: // a write to the live window or the one before, sometimes opening the next
			c := max(newest-rng.Intn(2), 0)
			if rng.Intn(10) == 0 {
				newest++
				c = newest
			}
			write(c)
		default: // a read of a recent window
			c := max(newest-rng.Intn(3), 0)
			tm := (float64(c) + rng.Float64()) * timingWindowLen
			x, y := rng.Float64()*2000, rng.Float64()*2000
			var a answer
			cv, err := m.CoverFor(c)
			if err == nil {
				var v float64
				v, err = cv.Interpolate(tm, x, y)
				a.bits = math.Float64bits(v)
			}
			if err != nil {
				a.err = err.Error()
			}
			answers = append(answers, a)
		}
	}
	return answers
}

// TestRebuildTimingDependence plays one seeded history twice — with the
// scheduler as it is, and with every scheduled build held back — and
// logs how many of the reads are answered differently (report-only).
func TestRebuildTimingDependence(t *testing.T) {
	const seed = 1
	asIs := playTimingHistory(t, seed, false)
	held := playTimingHistory(t, seed, true)
	if len(asIs) != len(held) {
		t.Fatalf("the history read %d times, then %d times", len(asIs), len(held))
	}
	differ := 0
	for i := range asIs {
		if asIs[i] != held[i] {
			differ++
		}
	}
	t.Logf("seed %d (reported): %d of %d answers differ when every scheduled build is held back", seed, differ, len(asIs))
}
