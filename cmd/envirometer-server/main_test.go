package main

import (
	"context"
	"math"
	"slices"
	"testing"
	"time"

	"repro"
)

func openMem(t *testing.T) *repro.Platform {
	t.Helper()
	p, err := repro.Open(repro.Config{WindowSeconds: 3600})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// readingsAt returns one reading at each stream time.
func readingsAt(ts ...float64) []repro.Reading {
	rs := make([]repro.Reading, len(ts))
	for i, t := range ts {
		rs[i] = repro.Reading{T: t, X: 100, Y: 200, S: 400}
	}
	return rs
}

// replay runs runLive on a fresh platform with a recorded pause, so no
// test waits on the wall clock, and checks that the platform stored
// every tuple runLive counted.
func replay(t *testing.T, readings []repro.Reading, speedup float64) (counts [3]int, pauses []time.Duration) {
	t.Helper()
	p := openMem(t)
	tuples, batches, rejected, err := runLive(context.Background(), p, repro.CO2, readings, speedup,
		func(d time.Duration) { pauses = append(pauses, d) })
	if err != nil || p.Len() != tuples {
		t.Fatalf("runLive = %v with %d stored, want no error and %d stored", err, p.Len(), tuples)
	}
	return [3]int{tuples, batches, rejected}, pauses
}

// every5s is 100 readings 5 s apart (t 0–495): nine 60 s batches.
func every5s() []repro.Reading {
	ts := make([]float64, 100)
	for i := range ts {
		ts[i] = float64(i) * 5
	}
	return readingsAt(ts...)
}

func TestLiveReplayBatching(t *testing.T) {
	// A batch holds the tuples less than 60 s after its first one.
	if got, _ := replay(t, readingsAt(0, 30, 59, 60, 119.5, 120), 0); got != [3]int{6, 3, 0} {
		t.Errorf("tuples, batches, rejected = %v, want [6 3 0]", got)
	}
}

func TestLiveReplayEmptyData(t *testing.T) {
	if got, pauses := replay(t, nil, 120); got != [3]int{} || pauses != nil {
		t.Errorf("tuples, batches, rejected = %v, pauses %v; want nothing", got, pauses)
	}
}

// TestLiveReplayPumpsEverything also checks that speedup 0 never pauses.
func TestLiveReplayPumpsEverything(t *testing.T) {
	if got, pauses := replay(t, every5s(), 0); got != [3]int{100, 9, 0} || pauses != nil {
		t.Errorf("tuples, batches, rejected = %v, pauses %v; want [100 9 0] and none", got, pauses)
	}
}

func TestLiveReplaySkipsRejectedBatches(t *testing.T) {
	readings := every5s()
	readings[30].S = math.NaN() // the third batch (t 120–175) is refused whole
	if got, _ := replay(t, readings, 0); got != [3]int{88, 9, 1} {
		t.Errorf("tuples, batches, rejected = %v, want [88 9 1]", got)
	}
}

func TestLiveReplayPacingSpeedsUp(t *testing.T) {
	// Before each batch but the first: the stream gap ÷ speedup.
	got, pauses := replay(t, readingsAt(0, 60, 150), 120)
	if want := []time.Duration{500 * time.Millisecond, 750 * time.Millisecond}; got != [3]int{3, 3, 0} || !slices.Equal(pauses, want) {
		t.Errorf("tuples, batches, rejected = %v, pauses %v; want [3 3 0] and %v", got, pauses, want)
	}
}

func TestLiveReplayBatchGapCap(t *testing.T) {
	if _, pauses := replay(t, readingsAt(0, 1e9), 120); !slices.Equal(pauses, []time.Duration{time.Second}) {
		t.Errorf("pauses %v, want one capped at 1s", pauses)
	}
}

func TestLiveReplayRefusesUnsortedData(t *testing.T) {
	p := openMem(t)
	_, _, _, err := runLive(context.Background(), p, repro.CO2, readingsAt(10, 5), 0, func(time.Duration) {})
	if err == nil || err.Error() != "replay data must be time sorted" || p.Len() != 0 {
		t.Errorf("runLive = %v with %d stored, want the time-sorted refusal and nothing stored", err, p.Len())
	}
}

// TestRestartLoadsNothing restarts on the same -dir: the second load
// must find the recovered tuples and add none.
func TestRestartLoadsNothing(t *testing.T) {
	o := options{polls: "CO2", window: 3600, days: 0.05, seed: 1, dir: t.TempDir()}
	pollutants := []repro.Pollutant{repro.CO2}
	lens := make([]int, 2)
	for i := range lens {
		p, err := repro.Open(repro.Config{WindowSeconds: o.window, Pollutants: pollutants, Dir: o.dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := load(context.Background(), p, o, pollutants); err != nil {
			t.Fatal(err)
		}
		lens[i] = p.Len()
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if lens[0] == 0 || lens[1] != lens[0] {
		t.Errorf("tuples after first load %d, after restart %d; want equal and non-zero", lens[0], lens[1])
	}
}
