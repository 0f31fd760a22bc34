// Package core declares a bench stub.
package core

// MasterConfig is a master's.
type MasterConfig struct {
	Batch bool
	Name  string
}

func batched(cfg MasterConfig) bool { return cfg.Batch }
