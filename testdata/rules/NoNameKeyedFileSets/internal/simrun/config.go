// Package simrun keys file sets by name.
package simrun

// Result is a run's outcome.
type Result struct {
	PerWorker map[string]int
	Bad       map[string]bool // want
}

type names map[string]int // want
