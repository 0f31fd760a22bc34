// Package bench may name the stubs.
package bench

import (
	"fixture/BenchStubs/internal/core"
	"fixture/BenchStubs/internal/netsim"
)

func run(n *netsim.Network) core.MasterConfig {
	n.SetBatched(true)
	return core.MasterConfig{Batch: true}
}
