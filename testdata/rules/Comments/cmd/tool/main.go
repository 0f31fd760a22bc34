// Command tool imports every package of the fixture; it parses no strategy
// word, as in case "no-partition", case "pre-partition", case "real-time",
// case "remote", case "local", case "data-to-compute" or
// case "compute-to-data", and it names no protocol.TExecuteBatch,
// ExecuteSpec or Message.Executes.
package main

import (
	"fixture/Comments/internal/core"
	"fixture/Comments/internal/sim"
	"fixture/Comments/internal/simrun"
)

func main() {
	switch sim.N {
	case 1: // "real-time"
	}
	println((&core.Worker{}).Run(), core.Master{}.String(), simrun.Runner{} == simrun.Runner{})
}
