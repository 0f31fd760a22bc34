// Package sim keeps a pool.
package sim

import "sync"

var pool sync.Pool // want

func get() any { return pool.Get() } // want
