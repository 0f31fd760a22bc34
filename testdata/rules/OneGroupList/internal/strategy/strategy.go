// Package strategy derives a job's groups, the one place outside partition
// that runs a generator.
package strategy

import "fixture/OneGroupList/internal/partition"

// Config is a strategy.
type Config struct{ Grouping string }

// Generator resolves the grouping.
func (c Config) Generator() partition.Generator { return partition.ByName(c.Grouping) }

// Groups is the job's groups.
func (c Config) Groups(files []string) [][]string { return c.Generator().Generate(files) }
