// Package cli may read Prefetch: it sets the strategy.
package cli

import "fixture/LifecycleStrategyReads/internal/strategy"

func prefetch(cfg strategy.Config) int { return cfg.Prefetch }
