// Package simrun picks an assigner by name.
package simrun

import "fixture/LifecycleStrategyReads/internal/strategy"

func assigner() int { return strategy.AssignerByName("x") } // want
