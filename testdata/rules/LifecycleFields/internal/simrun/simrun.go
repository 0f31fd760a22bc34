// Package simrun's structs keep copies of sched's state.
package simrun

// Runner keeps a phase.
type Runner struct {
	a, phase int // want
}

type simWorker struct {
	has map[int]bool // want
}
