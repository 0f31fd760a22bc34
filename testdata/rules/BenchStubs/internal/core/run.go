package core

func run(cfg MasterConfig) bool { return cfg.Batch } // want
