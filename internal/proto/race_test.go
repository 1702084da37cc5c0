//go:build race

package proto

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// it is given, so a path whose scratch is pooled allocates now and then.
const raceEnabled = true

// racePackAllocs is the allowance, per packed run encoded or decoded, for
// colblock's pooled scratch under the race detector: a dropped encoder or
// unpack scratch costs ≈ 9 allocations to make afresh, ≈ 2.3 a run on
// average (1–3 measured over 50 warm encodes of a 256-tuple upload, 8–10
// for a warm exchange that packs and unpacks one against 4 without the
// detector); the rest is room for the spread of the drops.
const racePackAllocs = 4
