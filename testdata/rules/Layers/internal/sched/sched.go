// Package sched is shared, and imports the simulator.
package sched

import "fixture/Layers/internal/sim" // want

// N is a count.
const N = sim.N
