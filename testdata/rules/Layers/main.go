// Package layers is the root: it may import both stacks.
package layers

import (
	"fixture/Layers/internal/core"
	"fixture/Layers/internal/simrun"
)

// N is a count.
const N = core.N + simrun.N
