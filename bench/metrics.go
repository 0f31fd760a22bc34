package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one metric exactly as BENCHMARK.json does; the smoke test
// compares the two lists, so a metric cannot be added to one and not the other.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse; per-layer metrics have none.
	bound float64
}

// endToEnd is what a user of either stack sees. Every metric is defined on
// every workload through one vocabulary: an iteration is one controller job
// (rt_*) or one whole sweep (sim_*); an op is one task reported OK (rt_*) or
// one simulator event fired (sim_*). See README.md for why the stack-specific
// names of the issue were merged.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"iter_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"alloc_bytes_per_op", "B", "lower", 0.03},
	{"mallocs_per_op", "count", "lower", 0.03},
}

// perLayer lists the traced run's metrics, prefixed with the module they
// measure. A metric of a layer the workload does not use reads 0.
var perLayer = []metricDef{
	// transport, in situ: tracing Transport/Conn wrapper.
	{"transport.send_busy_s", "s", "lower", 0},
	{"transport.recv_wait_s", "s", "lower", 0},
	{"transport.ctrl_msgs", "count", "lower", 0},
	{"transport.data_msgs", "count", "lower", 0},
	{"transport.wire_bytes", "B", "lower", 0},
	{"transport.dial_accept_ms", "ms", "lower", 0},
	// transport, probes.
	{"transport.tcp_rtt_us", "us", "lower", 0},
	{"transport.tcp_stream_mb_per_s", "MB/s", "higher", 0},
	{"transport.mem_rtt_ns", "ns", "lower", 0},
	// protocol, probes over a bytes.Buffer.
	{"protocol.encode_ctrl_ns", "ns", "lower", 0},
	{"protocol.decode_ctrl_ns", "ns", "lower", 0},
	{"protocol.encode_data_ns_per_kb", "ns", "lower", 0},
	{"protocol.decode_data_ns_per_kb", "ns", "lower", 0},
	{"protocol.data_alloc_bytes_per_kb", "B", "lower", 0},
	{"protocol.wire_overhead_frac", "ratio", "lower", 0},
	// core, in situ: spans around the controller calls and Report fields.
	{"core.controller_start_ms", "ms", "lower", 0},
	{"core.register_ms", "ms", "lower", 0},
	{"core.first_task_ms", "ms", "lower", 0},
	{"core.wait_s", "s", "lower", 0},
	{"core.shutdown_ms", "ms", "lower", 0},
	{"core.report_makespan_s", "s", "lower", 0},
	{"core.report_transfer_phase_s", "s", "lower", 0},
	// core, in situ: the wrapper's master-side timeline.
	{"core.task_rtt_us_p50", "us", "lower", 0},
	{"core.task_rtt_us_p99", "us", "lower", 0},
	{"core.dispatch_gap_us_p50", "us", "lower", 0},
	{"core.dispatch_gap_us_p99", "us", "lower", 0},
	// core, in situ: Program and Store wrappers, one extra batched job.
	{"core.program_busy_s", "s", "lower", 0},
	{"core.store_write_s", "s", "lower", 0},
	{"core.store_read_s", "s", "lower", 0},
	{"core.output_return_s", "s", "lower", 0},
	{"core.batched_tasks_per_s", "1/s", "higher", 0},
	{"core.payload_mb_per_s", "MB/s", "higher", 0},
	// catalog: Source wrapper in situ, Replicas and Journal probes.
	{"catalog.source_read_s", "s", "lower", 0},
	{"catalog.under_replicated_us", "us", "lower", 0},
	{"catalog.replicas_add_ns", "ns", "lower", 0},
	{"catalog.replicas_has_ns", "ns", "lower", 0},
	{"catalog.replicas_drop_node_us", "us", "lower", 0},
	{"catalog.journal_append_ns", "ns", "lower", 0},
	// planning and the decision cache, probes.
	{"partition.generate_ns_per_group", "ns", "lower", 0},
	{"strategy.assign_ns_per_group", "ns", "lower", 0},
	{"ctrlplane.lookup_hit_ns", "ns", "lower", 0},
	{"ctrlplane.invalidate_install_ns", "ns", "lower", 0},
	// sim: counts through the Instrument hook, engine probes.
	{"sim.events", "count", "lower", 0},
	{"sim.host_us_per_event", "us", "lower", 0},
	{"sim.schedule_fire_ns", "ns", "lower", 0},
	{"sim.cancel_ns", "ns", "lower", 0},
	// netsim: counts through the hook, flow-churn probes.
	{"netsim.flows", "count", "lower", 0},
	{"netsim.host_us_per_flow", "us", "lower", 0},
	{"netsim.flat_flow_us", "us", "lower", 0},
	{"netsim.tree_flow_us", "us", "lower", 0},
	{"netsim.set_capacity_us", "us", "lower", 0},
	{"netsim.fail_restore_us", "us", "lower", 0},
	// cloud and storage, probes.
	{"cloud.provision_us_per_vm", "us", "lower", 0},
	{"cloud.testbed_build_s", "s", "lower", 0},
	{"storage.write_op_us", "us", "lower", 0},
	// simrun: one cell of the workload's kind built by hand, phase by phase.
	{"simrun.runner_build_s", "s", "lower", 0},
	{"simrun.event_loop_s", "s", "lower", 0},
	{"simrun.setup_frac", "ratio", "lower", 0},
	{"simrun.tasks_completed", "count", "higher", 0},
	{"simrun.bytes_moved_gb", "GB", "lower", 0},
	{"simrun.repairs_completed", "count", "lower", 0},
	// Modelled values: simulated seconds and the error against the paper.
	// They repeat exactly, so a change in either is a correctness failure
	// and not a regression to be bounded.
	{"simrun.virtual_makespan_s", "sim_s", "lower", 0},
	{"experiments.paper_err_frac", "ratio", "lower", 0},
	// exprun and experiments: pool probes and cell walls from the hook.
	{"exprun.cell_overhead_ns", "ns", "lower", 0},
	{"exprun.parallel_speedup", "ratio", "higher", 0},
	{"experiments.cells", "count", "lower", 0},
	{"experiments.cell_s_p50", "s", "lower", 0},
	{"experiments.cell_s_max", "s", "lower", 0},
	// obs: one extra sweep with Tracer and Metrics attached, attribution probe.
	{"obs.trace_overhead_frac", "ratio", "lower", 0},
	{"obs.attrib_ns_per_edge", "ns", "lower", 0},
	// harness.
	{"trace_overhead_frac", "ratio", "lower", 0},
	{"proc.peak_rss_mb", "MB", "lower", 0},
}

// metric is one reported value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values collects measured numbers by metric name.
type values map[string]float64

// merge copies every entry of other into v.
func (v values) merge(other values) {
	for k, x := range other {
		v[k] = x
	}
}

// report turns the measured values into the result's metric map. Every
// definition is reported; an end-to-end metric must have been measured and
// be a positive finite number, a per-layer metric the workload does not
// exercise reads 0. A value under a name no definition has is a bug in the
// benchmark and is refused.
func report(defs []metricDef, v values, requireAll bool) (map[string]metric, error) {
	known := make(map[string]bool, len(defs))
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		known[d.name] = true
		x, ok := v[d.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, x)
		}
		if requireAll && (!ok || x <= 0) {
			return nil, fmt.Errorf("end-to-end metric %s was not measured (value %v)", d.name, x)
		}
		out[d.name] = metric{Value: x, Unit: d.unit}
	}
	var unnamed []string
	for k := range v {
		if !known[k] {
			unnamed = append(unnamed, k)
		}
	}
	if len(unnamed) > 0 {
		sort.Strings(unnamed)
		return nil, fmt.Errorf("values under names BENCHMARK.json does not have: %v", unnamed)
	}
	return out, nil
}
