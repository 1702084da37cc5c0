// Package cache implements the smartphone-side model cache of §2.3: the
// client stores the (t_n, µ, M) triple received from the server and
// answers pollution queries locally while the cover is valid (t_l ≤ t_n),
// contacting the server only to refresh an invalid cover. This is the
// mechanism behind the ~two-orders-of-magnitude bandwidth savings of
// Figure 7(b).
//
// Only internal/client imports it (the ModelCache strategy). It is part
// of the paper's design, not a leftover: the Figure 7(b) reproduction and
// examples/lowbandwidth measure it against the baseline strategy, so it
// stays however small its import graph is.
package cache

import (
	"sync"

	"repro/internal/core"
)

// Stats counts cache outcomes.
type Stats struct {
	// Hits are queries answered locally from a valid cached cover.
	Hits int64
	// Misses are queries that required fetching a cover (cold start or
	// expiry t_l > t_n).
	Misses int64
	// Refreshes counts covers stored.
	Refreshes int64
}

// HitRate returns Hits / (Hits + Misses), or 0 when no lookups happened.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache holds at most one model cover — the current one, exactly as the
// paper's client does. It is safe for concurrent use.
type Cache struct {
	mu    sync.Mutex
	cover *core.Cover
	stats Stats
}

// New returns an empty cache.
func New() *Cache { return &Cache{} }

// Lookup returns the cached cover if it is valid at query time t. The
// validity test is the paper's t_l ≤ t_n check (plus the lower bound,
// which matters when a client replays history).
func (c *Cache) Lookup(t float64) (*core.Cover, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cover != nil && c.cover.ValidAt(t) {
		c.stats.Hits++
		return c.cover, true
	}
	c.stats.Misses++
	return nil, false
}

// Peek returns the cached cover (even if expired) without touching stats.
func (c *Cache) Peek() *core.Cover {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cover
}

// Store replaces the cached cover with cv.
func (c *Cache) Store(cv *core.Cover) {
	c.mu.Lock()
	c.cover = cv
	c.stats.Refreshes++
	c.mu.Unlock()
}

// Invalidate drops the cached cover.
func (c *Cache) Invalidate() {
	c.mu.Lock()
	c.cover = nil
	c.mu.Unlock()
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
