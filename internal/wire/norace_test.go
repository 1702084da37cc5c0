//go:build !race

package wire

const (
	raceEnabled    = false
	racePackAllocs = 0
)
