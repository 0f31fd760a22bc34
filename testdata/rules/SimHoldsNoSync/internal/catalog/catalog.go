// Package catalog's replica map takes a lock; its MemSource may.
package catalog

import "sync"

// Replicas locks its map.
type Replicas struct {
	mu    sync.Mutex // want
	files []string
}

// MemSource is read by the real master's writers concurrently.
type MemSource struct {
	mu    sync.RWMutex
	files map[string][]byte
}

// Put adds a file under the source's lock.
func (s *MemSource) Put(name string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.files[name] = data
}
