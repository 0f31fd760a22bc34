// Package simrun's core loop reads a plug-in's sub-config.
package simrun

// GrayConfig is a plug-in's.
type GrayConfig struct{ Pause bool }

// Config is a run's.
type Config struct {
	Workers int
	Gray    *GrayConfig
	Tracer  *int
}

func hooks(cfg Config) bool { return cfg.Gray != nil && cfg.Tracer != nil }
