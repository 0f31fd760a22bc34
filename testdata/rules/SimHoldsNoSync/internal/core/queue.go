// Package core is the real runtime, not the simulator: it may lock.
package core

import "sync"

type queue struct {
	mu    sync.Mutex
	items []int
}
