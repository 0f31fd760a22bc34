// Command tool calls bench stubs.
package main

import (
	"fixture/BenchStubs/internal/core"
	"fixture/BenchStubs/internal/netsim"
)

func main() {
	var n netsim.Network
	n.SetBatched(true)                    // want
	_ = core.MasterConfig{Batch: true}    // want
	_ = core.MasterConfig{Name: "master"} // a stub's type is not the stub
}
