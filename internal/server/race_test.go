//go:build race

package server

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// it is given, so a handler whose buffers are pooled allocates now and
// then.
const raceEnabled = true
