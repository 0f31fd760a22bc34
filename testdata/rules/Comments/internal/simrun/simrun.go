// Package simrun reads no cfg.Gray, cfg.Durability, cfg.Detection,
// cfg.Master, cfg.CtrlPlane, cfg.Tracer, cfg.Metrics or cfg.Attrib, keys
// nothing by map[string]bool, and keeps no phase or has field; nor does it
// set Config.BatchSched or DurabilityConfig.Verify, or call
// netsim.SetBatched or SetColdAggregation.
package simrun

// Runner keeps no phase.
type Runner struct {
	n int // phase, has, inflight
}
