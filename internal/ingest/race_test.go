//go:build race

package ingest

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// it is given, so a pooled result channel is made afresh now and then.
const raceEnabled = true
