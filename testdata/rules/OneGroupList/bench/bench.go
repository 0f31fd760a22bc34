// Package bench times the generator alone.
package bench

import "fixture/OneGroupList/internal/strategy"

func generate(c strategy.Config) int { return len(c.Generator().Generate(nil)) }
