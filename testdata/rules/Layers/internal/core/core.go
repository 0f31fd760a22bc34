// Package core is the runtime's, and imports the simulator.
package core

import (
	"fixture/Layers/internal/catalog"
	"fixture/Layers/internal/sim" // want
	"fixture/Layers/internal/transport"
)

// N is a count.
const N = catalog.N + sim.N + transport.N
