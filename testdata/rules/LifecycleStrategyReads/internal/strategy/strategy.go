// Package strategy is the fixture's strategy.
package strategy

// Config is a strategy.
type Config struct {
	Prefetch  int
	Multicore bool
	Slots     int
}

// AssignerByName picks an assigner.
func AssignerByName(name string) int { return len(name) }
