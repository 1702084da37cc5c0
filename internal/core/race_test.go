//go:build race

package core

// raceEnabled: the race detector adds its own shadow memory and makes
// sync.Pool drop a quarter of what it is given, so memory ceilings do not
// hold under it.
const raceEnabled = true
