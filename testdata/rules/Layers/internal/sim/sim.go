// Package sim is the simulator's.
package sim

import "fixture/Layers/internal/catalog"

// N is a count.
const N = catalog.N
