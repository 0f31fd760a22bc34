// Package simrun counts with sync/atomic.
package simrun

import "sync/atomic"

var events atomic.Int32 // want

func count() int32 { return events.Add(1) } // want
