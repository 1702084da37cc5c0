//go:build !race

package proto

const (
	raceEnabled    = false
	racePackAllocs = 0
)
