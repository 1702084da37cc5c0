package cache

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/regress"
)

func coverValid(from, until float64) *core.Cover {
	return &core.Cover{
		ValidFrom:  from,
		ValidUntil: until,
		Features:   regress.Constant,
		Centroids:  []geo.Point{{}},
		Coefs:      []float64{400},
	}
}

func TestEmptyCacheMisses(t *testing.T) {
	c := New()
	if _, ok := c.Lookup(10); ok {
		t.Error("empty cache should miss")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 0 {
		t.Errorf("stats = %+v", st)
	}
	if c.Peek() != nil {
		t.Error("Peek on empty cache should be nil")
	}
}

func TestHitWithinValidity(t *testing.T) {
	c := New()
	cv := coverValid(100, 200)
	c.Store(cv)
	got, ok := c.Lookup(150)
	if !ok || got != cv {
		t.Errorf("Lookup(150) = %v,%v", got, ok)
	}
	// The t_l ≤ t_n boundary is inclusive.
	if _, ok := c.Lookup(200); !ok {
		t.Error("t_l == t_n should hit")
	}
	if _, ok := c.Lookup(201); ok {
		t.Error("t_l > t_n should miss")
	}
	if _, ok := c.Lookup(99); ok {
		t.Error("before ValidFrom should miss")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Refreshes != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStoreReplaces(t *testing.T) {
	c := New()
	c.Store(coverValid(0, 100))
	cv2 := coverValid(100, 200)
	c.Store(cv2)
	got, ok := c.Lookup(150)
	if !ok || got != cv2 {
		t.Error("second Store should win")
	}
	if _, ok := c.Lookup(50); ok {
		t.Error("old validity should be gone")
	}
}

func TestInvalidate(t *testing.T) {
	c := New()
	c.Store(coverValid(0, 100))
	c.Invalidate()
	if _, ok := c.Lookup(50); ok {
		t.Error("invalidated cache should miss")
	}
	if c.Peek() != nil {
		t.Error("Peek after Invalidate should be nil")
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Error("zero stats hit rate should be 0")
	}
	s = Stats{Hits: 3, Misses: 1}
	if got := s.HitRate(); got != 0.75 {
		t.Errorf("HitRate = %v, want 0.75", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New()
	cv := coverValid(0, 1e9)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if i%4 == 0 {
					c.Store(cv)
				} else {
					c.Lookup(float64(j))
				}
				c.Peek()
			}
		}(i)
	}
	wg.Wait()
	st := c.Stats()
	if st.Refreshes != 400 {
		t.Errorf("Refreshes = %d, want 400", st.Refreshes)
	}
	if st.Hits+st.Misses != 1200 {
		t.Errorf("lookups = %d, want 1200", st.Hits+st.Misses)
	}
}
