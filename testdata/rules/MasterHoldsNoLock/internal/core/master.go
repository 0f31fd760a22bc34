// Package core's master.go declares a lock of each kind.
package core

import "sync"

// Master holds three.
type Master struct {
	mu        sync.Mutex // want
	sync.Once            // want
	ready     *sync.Cond // want
	n         int
}

func (m *Master) run() {
	var lock sync.RWMutex // want
	lock.Lock()
	m.n++
	lock.Unlock()
}
