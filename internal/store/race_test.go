//go:build race

package store

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// it is given, so a path whose scratch is pooled allocates now and then.
const raceEnabled = true

// racePackAllocs is the allowance, per chunk a store's append seals, for
// colblock's pooled packing scratch under the race detector: a dropped
// encoder costs ≈ 6 allocations to make afresh (0–2 an append measured
// over 40 runs of 30 warm 256-tuple appends, 0 without the detector); the
// rest is room for the spread of the drops.
const racePackAllocs = 8
