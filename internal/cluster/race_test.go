//go:build race

package cluster

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// it is given, so a path whose scratch is pooled allocates now and then,
// and the replication log's tight pack and unpack loops run many times
// slower.
const raceEnabled = true
