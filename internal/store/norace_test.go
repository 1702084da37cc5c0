//go:build !race

package store

const (
	raceEnabled    = false
	racePackAllocs = 0
)
