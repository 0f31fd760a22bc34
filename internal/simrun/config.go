package simrun

import (
	"fmt"

	"frieda/internal/catalog"
	"frieda/internal/fault"
	"frieda/internal/obs"
	"frieda/internal/obs/attrib"
	"frieda/internal/sim"
	"frieda/internal/storage"
	"frieda/internal/strategy"
)

// TaskSpec is one simulated task: its input files and its compute cost on a
// single reference core.
type TaskSpec struct {
	// Index is the task's partition-group index.
	Index int
	// Files are the task's inputs; sizes drive transfer and disk times.
	Files []catalog.FileMeta
	// ComputeSec is the task's execution time on one core.
	ComputeSec float64
}

// InputBytes sums the task's file sizes.
func (t TaskSpec) InputBytes() float64 {
	var n int64
	for _, f := range t.Files {
		n += f.Size
	}
	return float64(n)
}

// Workload is a set of tasks plus dataset-wide properties.
type Workload struct {
	// Name labels reports.
	Name string
	// Tasks is the full task list.
	Tasks []TaskSpec
	// CommonBytes is data staged to every node before execution (the BLAST
	// database). Zero means none.
	CommonBytes float64
}

// TotalComputeSec sums per-task compute cost (the sequential-execution
// lower bound on one core, excluding I/O).
func (w Workload) TotalComputeSec() float64 {
	var s float64
	for _, t := range w.Tasks {
		s += t.ComputeSec
	}
	return s
}

// TotalInputBytes sums all task inputs (without dedup).
func (w Workload) TotalInputBytes() float64 {
	var s float64
	for _, t := range w.Tasks {
		s += t.InputBytes()
	}
	return s
}

// Config selects the strategy and fault handling for a run. Each pointer
// sub-config from Detection on turns on one plug-in (hooks.go); a nil one
// leaves its feature out of the run's hooks, byte-identical to the
// published model. Recording plug-ins (Tracer, Metrics, Attrib) never
// schedule events or consume randomness, so they never change a result.
type Config struct {
	// Strategy is the data-management strategy, exactly as in the real
	// runtime.
	Strategy strategy.Config
	// Recover requeues work lost to failures (the paper's future-work
	// extension); off, failed workers are isolated and their in-flight
	// work abandoned, matching the published behaviour.
	Recover bool
	// MaxRetries bounds per-task retries under Recover (default 2).
	MaxRetries int
	// ModelDiskIO charges local-disk write time on receipt and read time
	// before compute. Off unless set; the experiments turn it on.
	ModelDiskIO bool
	// Storage, when non-nil, provisions each worker's scratch space from
	// this tier spec instead of the instance-local disk — the paper's
	// storage-selection dimension (local vs block store vs networked).
	Storage *storage.Spec
	// NetFaults, when non-nil, makes transfers survivable: a flow killed by
	// a link fault is retried with capped exponential backoff instead of
	// failing the task or isolating the worker. Nil reproduces the published
	// prototype, where a broken stream is fatal to its transfer.
	NetFaults *NetFaultConfig
	// Detection runs a heartbeat failure detector over the simulated
	// network, so partitions become suspicions and declared deaths
	// (detection.go).
	Detection *DetectionConfig
	// Durability makes the replica map a managed store: repair to RF,
	// verified transfers, loss accounting (durability.go).
	Durability *DurabilityConfig
	// Tracer records the run's spans and instants (tracer.go).
	Tracer *obs.Tracer
	// Metrics samples the run's gauges, counters and histograms on a
	// virtual-time ticker (metrics.go).
	Metrics *obs.Metrics
	// BatchSched does nothing: same-instant admission is always batched
	// (Runner.kick), not a mode. It remains only because bench/probes.go:415
	// sets it and a PR that edits simrun may not edit bench/; the benchmark
	// PR (ROADMAP item 1) removes that line and this field. Nothing else may
	// set it.
	BatchSched bool
	// Gray handles gray failures: slow-suspicion, admission pause,
	// speculative re-execution, hedged transfers. Requires Detection
	// (gray.go).
	Gray *GrayConfig
	// Attrib records the run's causal DAG; Result.Attribution carries the
	// solved critical-path blame (attrib.go).
	Attrib *attrib.Recorder
	// Master makes the control plane mortal: seeded crashes, journaled or
	// amnesiac recovery (master.go).
	Master *MasterConfig
	// CtrlPlane prices the master's scheduling decisions on the virtual
	// clock, optionally behind an execution-template cache (ctrlplane.go).
	CtrlPlane *CtrlPlaneConfig
}

// NetFaultConfig makes transfers survivable: a transfer whose flow a link
// fault kills gets up to maxTransferAttempts flows, with capped, jittered
// exponential backoff between them.
type NetFaultConfig struct {
	// Resume continues an interrupted transfer from the delivered-byte
	// offset and re-stages from the best surviving replica instead of
	// restarting from byte zero at the master.
	Resume bool
}

// DurabilityConfig tunes the replication manager and the end-to-end
// integrity machinery.
type DurabilityConfig struct {
	// RF is the target replication factor per file. RF <= 1 keeps the
	// prototype's single-copy placement and disables the repair manager;
	// integrity verification still applies.
	RF int
	// ScanPeriodSec is the repair ticker period (default 60). The manager
	// additionally scans immediately after every worker or disk death.
	ScanPeriodSec float64
	// MaxConcurrentRepairs caps in-flight repair flows (default 2) — the
	// budget knob that keeps background repair below foreground transfers.
	MaxConcurrentRepairs int
	// EvacuateSource makes the master drop each file once its first copy
	// lands on a worker — the elastic-archival mode where the worker pool
	// is the durable store and replication is what stands between a worker
	// death and data loss. The common dataset is never evacuated.
	EvacuateSource bool
	// Verify does nothing: every arrival is verified against its checksum,
	// so CorruptionRate alone turns corruption on. It remains only because
	// bench/probes.go:421 sets it and a change to simrun may not edit
	// bench/; the benchmark change (ROADMAP item 1) removes that setting and
	// this field. Nothing else may set it.
	Verify bool
	// CorruptionRate is the probability a transfer arriving over a
	// currently-degraded link delivers a corrupt payload, which verification
	// on arrival catches and refetches from the next-best replica.
	CorruptionRate float64
	// Seed drives the corruption and disk-read-error draws. Draws happen
	// only when a fault condition is present, so fault-free runs consume no
	// randomness from it.
	Seed int64
}

// DetectionConfig tunes the heartbeat failure detector: workers beat every
// heartbeatSec and owe one beat per detectTimeoutSec deadline.
type DetectionConfig struct {
	// K is the consecutive missed deadlines before a worker is declared
	// failed (default 1, the prototype's binary detector).
	K int
}

// Completion records one finished task.
type Completion struct {
	Task    int
	Worker  string
	Start   sim.Time
	End     sim.Time
	OK      bool
	Attempt int
	// Speculative marks attempts born as speculation clones.
	Speculative bool
	// Cancelled marks a speculation loser: the attempt was killed because
	// its twin finished first. Not a terminal outcome — the winner's
	// completion carries the task's fate.
	Cancelled bool
}

// Result summarises a simulated run.
type Result struct {
	// MakespanSec is virtual time from run start to the last terminal task.
	MakespanSec float64
	// TransferWallSec is wall time with at least one staging/dispatch flow
	// active (for pre/no-partition this is the staging phase; for
	// real-time it overlaps execution).
	TransferWallSec float64
	// StagingPhaseSec is the strict barrier phase of pre/no-partition
	// (0 for real-time).
	StagingPhaseSec float64
	// ExecWallSec is wall time with at least one task computing.
	ExecWallSec float64
	// BytesMoved counts payload bytes sent by the master.
	BytesMoved float64
	// Succeeded and Abandoned partition the tasks.
	Succeeded, Abandoned int
	// Completions lists every terminal task.
	Completions []Completion
	// PerWorker counts successful tasks by worker.
	PerWorker map[string]int
	// TransferInterrupts counts flows killed by link faults.
	TransferInterrupts int
	// TransferRetries counts re-attempts after interrupted transfers.
	TransferRetries int
	// Detections lists the detector's suspect/declare/recover transitions
	// (nil without Config.Detection).
	Detections []fault.Transition
	// FilesLost counts files whose every copy vanished — no live replica
	// and no master copy left to repair from.
	FilesLost int
	// CorruptionsDetected counts verification failures: corrupt transfer
	// arrivals plus disk read errors caught before compute.
	CorruptionsDetected int
	// RepairBytes counts bytes delivered by background repair flows
	// (including partial deliveries of interrupted repairs). Kept separate
	// from BytesMoved, which remains foreground staging/dispatch traffic.
	RepairBytes float64
	// RepairsCompleted counts replica copies finished by the repair
	// manager.
	RepairsCompleted int
	// StragglersSuspected counts adaptive slow-suspicion verdicts (gray
	// runs only).
	StragglersSuspected int
	// SpeculativeLaunched and SpeculativeWon count speculation clones
	// started and clones that beat their primaries.
	SpeculativeLaunched, SpeculativeWon int
	// SpeculativeWastedSec sums the elapsed effort of cancelled speculation
	// losers — the price paid for the makespan recovered.
	SpeculativeWastedSec float64
	// HedgedTransfers counts transfers that launched a hedge flow.
	HedgedTransfers int
	// Attribution is the solved critical-path report (nil without
	// Config.Attrib): per-category makespan blame summing to MakespanSec,
	// the critical-path segments, and task/transfer latency percentiles.
	Attribution *attrib.Report
	// MasterOutages counts control-plane crash episodes (Config.Master).
	MasterOutages int
	// MasterDownSec sums crash→restart outage time across episodes.
	MasterDownSec float64
	// RecoveryReplaySec sums restart→recovered replay/startup time — the
	// modelled recovery cost (master.go), plus any replay wasted by a re-crash.
	RecoveryReplaySec float64
	// OrphansReconciled counts tasks recovery reconciliation re-enqueued:
	// work whose dispatch state did not survive the crash (journaled mode:
	// worker-backlog assignments; amnesia: additionally every completed task
	// the master forgot). Deliberately separate from the failure-retry
	// counters — recovery re-dispatch is not a task failure.
	OrphansReconciled int
	// ReplayedRecords counts snapshot entries plus journal records replayed
	// across all journaled recoveries.
	ReplayedRecords int
	// TasksReExecuted counts terminal re-executions of tasks an amnesiac
	// master had forgotten were done — pure wasted work a journal prevents.
	TasksReExecuted int
	// TemplateHits and TemplateMisses count control-plane scheduling
	// decisions served by the execution-template cache vs derived by the
	// full slow path (Config.CtrlPlane with Templates on; misses include
	// cold classes, invalidated generations, and untemplatable classes).
	TemplateHits, TemplateMisses int
	// CtrlPlaneDecisionSec sums the modeled busy time of the master's
	// decision server across all dispatches (Config.CtrlPlane only) —
	// tasks ÷ this is the control plane's tasks/sec.
	CtrlPlaneDecisionSec float64
}

// normalize validates the config for a workload of n tasks. The plug-ins
// fill their own defaults, on their own copies.
func (cfg *Config) normalize(n int) error {
	if err := cfg.Strategy.Validate(); err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("simrun: empty workload")
	}
	if cfg.Storage != nil && cfg.Storage.ReadOnly {
		return fmt.Errorf("simrun: %s storage is read-only and cannot host worker scratch space",
			cfg.Storage.Class)
	}
	if d := cfg.Durability; d != nil {
		if d.CorruptionRate < 0 || d.CorruptionRate > 1 {
			return fmt.Errorf("simrun: corruption rate %v outside [0,1]", d.CorruptionRate)
		}
	}
	if cfg.Gray != nil && cfg.Detection == nil {
		return fmt.Errorf("simrun: gray-failure handling requires Detection (progress watermarks ride heartbeats)")
	}
	if mc := cfg.Master; mc != nil {
		if cfg.Gray != nil {
			return fmt.Errorf("simrun: master faults and gray-failure handling are not modelled together")
		}
		if mc.Faults != nil {
			return mc.Faults.Validate()
		}
	}
	return nil
}
