package store

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tuple"
)

// TestWindowsPartitionData: for random batches, the union of all windows
// equals exactly what was appended — no tuple lost, duplicated, or
// misfiled.
func TestWindowsPartitionData(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := 1 + rng.Float64()*500
		s, err := Open(Config{WindowLength: h})
		if err != nil {
			return false
		}
		n := 1 + rng.Intn(500)
		appended := make(map[tuple.Raw]int, n)
		var batch tuple.Batch
		for i := 0; i < n; i++ {
			r := tuple.Raw{
				T: rng.Float64() * 10000,
				X: rng.Float64() * 100,
				Y: rng.Float64() * 100,
				S: rng.Float64() * 1000,
			}
			appended[r]++
			batch = append(batch, r)
			// Split the stream into several Append calls.
			if rng.Intn(10) == 0 {
				if err := s.Append(batch); err != nil {
					return false
				}
				batch = nil
			}
		}
		if err := s.Append(batch); err != nil {
			return false
		}
		if s.Len() != n {
			return false
		}
		seen := make(map[tuple.Raw]int, n)
		for _, c := range s.WindowIndexes() {
			for _, r := range s.Window(c) {
				if tuple.WindowIndex(r.T, h) != c {
					return false // misfiled
				}
				seen[r]++
			}
		}
		if len(seen) != len(appended) {
			return false
		}
		for r, count := range appended {
			if seen[r] != count {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
