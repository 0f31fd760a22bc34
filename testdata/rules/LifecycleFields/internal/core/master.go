// Package core's structs keep copies of sched's state.
package core

// Master keeps a queue.
type Master struct {
	queue []int // want
	n     int
}

type masterWorker struct {
	name        string
	inflight, x int // want
}

// Other may keep anything.
type Other struct{ queue []int }
