// Package core takes its groups from Groups, and derives them itself.
package core

import (
	"fixture/OneGroupList/internal/partition"
	"fixture/OneGroupList/internal/strategy"
)

func groups(c strategy.Config, files []string) int {
	n := len(c.Groups(files))
	gen := partition.ByName(c.Grouping)                // want
	n += len(gen.Generate(files))                      // want
	n += len(c.Generator().Generate(files))            // want
	return n + len(partition.Single{}.Generate(files)) // want
}
