// Package core names every forbidden word, in comments only: an
// "encoding/gob" import, a sync.Mutex, sync.RWMutex, sync.Cond or
// sync.Once field, a map[string]int of workers, a catalog.Replicas, and
// the fields queue, retries, terminal, admitted, transfers, unstaged,
// prefetchMult, phase, inputs, inputAt, sent, has, outstanding and
// inflight. cfg.Prefetch, cfg.Multicore and strategy.AssignerByName are
// not read; MasterConfig.Batch is not used.
package core

// Master keeps no queue, inflight or map[string]int.
type Master struct {
	// mu sync.Mutex
	n int // not a queue
}

/*
	var workers map[string]int
	once sync.Once
*/

// String names the master.
func (m Master) String() string { return "master" }
