// Package core reads the strategy fields sched's rules are made of.
package core

import "fixture/LifecycleStrategyReads/internal/strategy"

func window(cfg strategy.Config) int {
	c := strategy.Config{Multicore: true}     // want
	return cfg.Prefetch + cfg.Slots + c.Slots // want
}
