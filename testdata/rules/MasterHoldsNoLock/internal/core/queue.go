package core

import "sync"

// queue may lock: it is not master.go.
type queue struct{ mu sync.Mutex }
