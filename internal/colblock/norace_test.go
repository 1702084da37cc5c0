//go:build !race

package colblock

const raceEnabled = false
