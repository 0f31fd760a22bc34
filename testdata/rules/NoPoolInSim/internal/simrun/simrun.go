// Package simrun is not internal/sim: it may pool.
package simrun

import "sync"

var pool sync.Pool
