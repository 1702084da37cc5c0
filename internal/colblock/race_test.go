//go:build race

package colblock

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// it is given, so a path whose scratch is pooled allocates now and then.
const raceEnabled = true
