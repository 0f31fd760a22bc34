// Package simrun is the simulator's, and imports the runtime.
package simrun

import (
	"fixture/Layers/internal/sched"
	"fixture/Layers/internal/transport" // want
)

// N is a count.
const N = sched.N + transport.N
