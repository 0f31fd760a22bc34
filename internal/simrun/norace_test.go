//go:build !race

package simrun

const raceEnabled = false
