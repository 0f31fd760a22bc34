// Package simrun executes a (cluster, strategy, workload) triple on the
// discrete-event engine, mirroring the execution-plane logic of
// internal/core on virtual time. It exists because the paper's experiments
// span wall-clock hours (BLAST sequential = 61 200 s): the same strategy
// decisions — staging order, pull-based dispatch, transfer/compute overlap,
// failure isolation — replayed against the flow-level network reproduce the
// published behaviour in milliseconds.
//
// The correspondence with the real runtime is one-to-one: pre-partitioning
// runs a strict transfer phase then a compute phase (Section II-C "the
// phases are sequential"); real-time is a per-slot pull loop whose transfer
// overlaps other slots' computation; no-partitioning stages the full
// dataset everywhere first. Worker deaths isolate the worker and abandon
// (or, with Recover, requeue) its work exactly as core.Master does.
package simrun

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"frieda/internal/catalog"
	"frieda/internal/cloud"
	"frieda/internal/ctrlplane"
	"frieda/internal/fault"
	"frieda/internal/netsim"
	"frieda/internal/obs"
	"frieda/internal/obs/attrib"
	"frieda/internal/partition"
	"frieda/internal/sim"
	"frieda/internal/storage"
	"frieda/internal/strategy"
)

// commonFile is the replica-map pseudo-file standing for the workload's
// common dataset (the BLAST database).
const commonFile = "__common__"

// connectTimeoutSec is the master's dispatch-failure observation delay: a
// transfer that dies on a faulted link costs this long before the worker
// asks for more work. Without it a partitioned-but-undeclared worker would
// churn through the whole queue in zero virtual time, abandoning a task per
// rejected connection.
const connectTimeoutSec = 15.0

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

// Config selects the strategy and fault handling for a run.
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
	// Detection, when non-nil, runs a heartbeat failure detector between
	// the master and each worker over the simulated network: heartbeats
	// stop crossing failed links, so network partitions become suspicions
	// and (after K missed deadlines) declared failures. Nil keeps the
	// cloud-level VM failure callback as the only death signal.
	Detection *DetectionConfig
	// Durability, when non-nil, turns the replica map into a managed store:
	// a replication manager repairs under-replicated files over real
	// network flows, transfers verify checksums on arrival and refetch
	// corrupt payloads from the next-best replica, and permanently lost
	// files are detected and accounted instead of silently vanishing. Nil
	// reproduces the published prototype, where a worker death destroys
	// every byte it held.
	Durability *DurabilityConfig
	// Tracer, when non-nil, records typed spans and instant events for the
	// run: task dispatch/run spans on per-core lanes, transfer spans with
	// attempt spans nested under them on per-worker transfer lanes, retry
	// and worker-death instants, and detector transitions. Recording never
	// schedules events or consumes randomness, so a traced run is
	// event-for-event identical to an untraced one; nil disables tracing at
	// the cost of one branch per site.
	Tracer *obs.Tracer
	// Metrics, when non-nil, is sampled on a virtual-time ticker for the
	// run's duration: queue depth, live workers, busy/total slots, active
	// flows, aggregate goodput, bytes moved, plus task/transfer outcome
	// counters and duration histograms. Sampling is read-only and does not
	// change run results.
	Metrics *obs.Metrics
	// BatchSched coalesces same-instant scheduling: events that would each
	// run their own admit pass (task completions, staging finishes, Recover
	// requeues, worker deaths) instead enqueue the affected workers once and
	// a single drain event per virtual instant admits across all of them,
	// with the admission limit resolved once per runner rather than per
	// call. Off (the default), every event admits eagerly — the published
	// behaviour, kept byte-identical. Batched runs remain deterministic
	// (the drain visits workers in kick order, itself event-order
	// deterministic) but may dispatch in a different order than eager runs.
	BatchSched bool
	// Gray, when non-nil, turns on gray-failure handling (gray.go): adaptive
	// slow-suspicion over heartbeat interarrivals and task-progress
	// watermarks, admission pause for suspected stragglers, speculative
	// re-execution, and hedged transfers. Requires Detection — the watermarks
	// ride the heartbeat channel. Nil keeps the fail-stop-only model,
	// byte-identical to the published behaviour.
	Gray *GrayConfig
	// Attrib, when non-nil, records the run's causal DAG for critical-path
	// attribution: every completion (transfer attempt, disk write, compute
	// finish, retry timer, detector verdict, repair landing, speculation
	// launch) becomes a timestamped node with typed edges to the events it
	// unblocked, and Result.Attribution carries the solved makespan blame.
	// Recording never schedules events or consumes randomness, so an
	// attributed run is event-for-event identical to a plain one; nil
	// disables it at one branch per site.
	Attrib *attrib.Recorder
	// Master, when non-nil, makes the control plane mortal: a seeded crash
	// schedule takes the master process down for MTTR-distributed outages
	// during which dispatch, admission, repair scans and failure detection
	// pause while in-flight transfers and computes continue and worker
	// messages queue. Recovery is journaled (write-ahead journal + snapshot,
	// replayed and byte-asserted on restart) or amnesiac (Journal=false).
	// Nil keeps the immortal-master model, byte-identical to all published
	// behaviour.
	Master *MasterConfig
	// CtrlPlane, when non-nil, prices the master's per-task scheduling
	// decisions on the virtual clock: each dispatch queues behind a single
	// decision server charging decisionSec per full decision, and the
	// execution-template cache (Templates) collapses repeated decisions to
	// decisionSec/50 — see ctrlplane.go. Nil keeps decisions free and
	// instantaneous, byte-identical to the published behaviour.
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
	// Verify enables checksum verification on transfer arrival; a mismatch
	// triggers a refetch from the next-best replica. Corruption injection
	// requires Verify (silent corruption is out of the model).
	Verify bool
	// CorruptionRate is the probability a transfer arriving over a
	// currently-degraded link delivers a corrupt payload.
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

// Runner drives one simulated run. Create with NewRunner, add workers, then
// Start and run the engine.
type Runner struct {
	eng     *sim.Engine
	cluster *cloud.Cluster
	cfg     Config
	wl      Workload

	master  *cloud.VM
	workers []*simWorker
	// byVM is indexed by VM id (dense per cluster); VMs that never joined,
	// the master's among them, have a nil slot.
	byVM []*simWorker

	queue    []int
	retries  map[int]int
	terminal int
	started  bool
	finished bool
	startAt  sim.Time

	// replicas tracks which worker holds which file after staging, the
	// source pool for replica-aware transfer resume.
	replicas *catalog.Replicas
	// rng jitters retry backoff; non-nil only with NetFaults, and consumed
	// only on retries.
	rng      *rand.Rand
	detector *fault.Detector

	// Durability state; all nil/empty unless cfg.Durability is set.
	repair *repairManager
	// durRng draws corruption and read-error outcomes; consumed only when a
	// fault condition is present.
	durRng *rand.Rand
	// evacuated marks files the master no longer holds (EvacuateSource).
	evacuated map[string]bool
	// lostFiles marks files declared permanently lost.
	lostFiles map[string]bool
	// fileSize maps file names to sizes for repair scheduling.
	fileSize map[string]float64

	// Phase accounting.
	activeFlows    int
	activeComputes int
	flowSince      sim.Time
	computeSince   sim.Time

	// Batched-scheduling state (cfg.BatchSched): workers awaiting an admit
	// pass this instant (deduplicated via simWorker.queued), whether the
	// pass must cover every live worker, and the pre-bound drain callback so
	// kicks never allocate. prefetchMult is the admission-limit multiplier,
	// resolved once from the strategy instead of per admit call.
	pendAdmit    []*simWorker
	admitAll     bool
	drainOn      bool
	drainFn      func()
	prefetchMult int

	// Gray-failure state (gray.go); all nil/zero unless cfg.Gray is set.
	// specs maps task index → in-flight speculative race.
	specs map[int]*specPair
	// hedgeRng jitters hedge goodput-check delays; consumed only when
	// Gray.Hedge is on.
	hedgeRng *rand.Rand
	// activeHedges counts in-flight hedge flows against the hedge budget.
	activeHedges int
	// xferEwmaBps is the running average goodput of completed transfers,
	// the baseline a hedging decision compares against.
	xferEwmaBps float64

	// Attribution state (cfg.Attrib only). anStart is the run-start node.
	// anCause is the ambient cause: every emission site sets it to the node
	// it just recorded before invoking downstream callbacks, so the next
	// site in the same causal chain — which runs synchronously or as the
	// next event the chain schedules — picks up its true predecessor without
	// threading node ids through every signature. anLastTerminal tracks the
	// latest terminal completion, the run-end node's parent. repairNode maps
	// file\x00worker to the node where that repair copy landed, so a
	// transfer sourced from a repaired replica can record its dependency on
	// the repair that made the source exist.
	anStart, anCause, anLastTerminal attrib.NodeID
	repairNode                       map[string]attrib.NodeID

	// Master-fault state (master.go); nil unless cfg.Master is set.
	mf *masterState

	// Control-plane decision model (ctrlplane.go); nil unless cfg.CtrlPlane
	// is set.
	ctrl *ctrlState

	// nameScratch recycles the per-dispatch missing-file name slices: a
	// dispatch's slice returns to the free list once its transfer bookkeeping
	// is done with it, so the steady-state pull loop allocates no fresh slice
	// per dispatched task. Slices abandoned mid-transfer (worker death) are
	// simply dropped to the garbage collector.
	nameScratch [][]string

	// Metric handles for what Result does not count; the zero values ignore
	// updates when Metrics is nil. Every other metric column is a gauge over
	// a Result field. mRepairsFailed and hGrayTaskSec are registered only
	// with cfg.Durability and cfg.Gray, so legacy runs keep their exact
	// metric column set.
	mRequeues, mRepairsFailed obs.Counter
	hTaskSec, hXferSec        *obs.Histogram
	hGrayTaskSec              *obs.Histogram

	res  Result
	done func(Result)
}

// simWorker is the simulated execution-plane worker.
type simWorker struct {
	vm    *cloud.VM
	name  string
	slots int
	disk  *storage.Volume
	// has marks the files on the worker's disk; nil until the first one
	// (setHas).
	has   map[string]bool
	ready bool // common data staged
	// admitted counts tasks in the transfer→compute pipeline.
	admitted int
	cores    *sim.Resource
	// inflight tracks admitted task attempts for failure handling; nil until
	// the first dispatch.
	inflight map[int]*taskAttempt
	backlog  []int
	dead     bool
	draining bool
	// speed is the compute-rate factor (1 = provisioned); straggler
	// injection lowers it via SetWorkerSpeed without touching liveness.
	speed float64
	// queued marks the worker as already enqueued for this instant's batched
	// admit pass (cfg.BatchSched).
	queued bool
	// cpuLanes and xferLanes allocate trace tracks so concurrent spans on
	// one worker render as properly nested per-lane timelines. Populated
	// only when tracing is enabled.
	cpuLanes  []bool
	xferLanes []bool
}

// setHas marks file as on the worker's disk, making the map on first use: a
// worker that never receives a task file costs no map, and in the
// 65,536-worker BLAST cell (7,500 tasks) most never do.
func (w *simWorker) setHas(file string) {
	if w.has == nil {
		w.has = make(map[string]bool)
	}
	w.has[file] = true
}

// taskAttempt tracks cancellation state of one admitted task.
type taskAttempt struct {
	task    int
	stage   *stageIn
	compute sim.EventRef
	started sim.Time
	// span is the open compute span on cpu lane `lane` (tracing only).
	span *obs.Span
	lane int
	// Rate-varying compute state: workTotal/workLeft are reference-seconds
	// of work, rateSince timestamps the last speed change, and finish is
	// the completion callback so SetWorkerSpeed can reschedule it.
	workTotal, workLeft float64
	rateSince           sim.Time
	finish              func()
	// clone marks a speculation clone; cancelled marks a race loser killed
	// by cancelAttempt.
	clone, cancelled bool
	// claimed lists files this attempt marked resident at dispatch, so a
	// cancelled attempt can release claims that never landed (gray only).
	claimed []string
	// anStart is the attempt's compute-start attribution node (cfg.Attrib
	// only): the finish emission splits elapsed-vs-reference work from it,
	// and a speculation launch chains its detection latency from it.
	anStart attrib.NodeID
}

// stageIn is the handle of one logical transfer: the current flow plus any
// pending backoff retry, so worker death can abandon the whole retry chain.
type stageIn struct {
	flow      *netsim.Flow
	retry     sim.EventRef
	abandoned bool
	// startAt timestamps the logical transfer for the duration histogram.
	startAt sim.Time
	// Tracing state: the open transfer span and current attempt span on the
	// worker's transfer lane `lane` of track `track`.
	w       *simWorker
	span    *obs.Span
	attempt *obs.Span
	track   string
	lane    int
	// Hedged-transfer state (gray only): the racing second flow and the
	// pending goodput-check event that may launch it.
	hedge      *netsim.Flow
	hedgeCheck sim.EventRef
	// Attribution state (cfg.Attrib only): anCause is the chain's current
	// cause node — the ambient cause at transfer start, then each attempt
	// outcome (interrupt, backoff expiry, corrupt arrival) in turn. anHedge
	// is the hedge-launch node while a hedge races, so a hedge win chains
	// the delivery from the launch decision. bnDetail names the bottleneck
	// link of the flow that produced the pending arrival.
	anCause  attrib.NodeID
	anHedge  attrib.NodeID
	bnDetail string
}

// NewRunner builds a runner for the cluster. The master VM hosts the data
// source; per the paper it must run close to the input data, so its uplink
// is the staging bottleneck.
func NewRunner(cluster *cloud.Cluster, master *cloud.VM, cfg Config, wl Workload) (*Runner, error) {
	if err := cfg.Strategy.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 2
	}
	if len(wl.Tasks) == 0 {
		return nil, fmt.Errorf("simrun: empty workload")
	}
	if dc := cfg.Detection; dc != nil {
		d := *dc // don't mutate the caller's struct
		if d.K < 1 {
			d.K = 1
		}
		cfg.Detection = &d
	}
	if cfg.Storage != nil && cfg.Storage.ReadOnly {
		return nil, fmt.Errorf("simrun: %s storage is read-only and cannot host worker scratch space",
			cfg.Storage.Class)
	}
	if dc := cfg.Durability; dc != nil {
		d := *dc // don't mutate the caller's struct
		if d.CorruptionRate < 0 || d.CorruptionRate > 1 {
			return nil, fmt.Errorf("simrun: corruption rate %v outside [0,1]", d.CorruptionRate)
		}
		if d.CorruptionRate > 0 && !d.Verify {
			return nil, fmt.Errorf("simrun: corruption injection requires Verify (silent corruption is out of the model)")
		}
		if d.ScanPeriodSec <= 0 {
			d.ScanPeriodSec = 60
		}
		if d.MaxConcurrentRepairs <= 0 {
			d.MaxConcurrentRepairs = 2
		}
		cfg.Durability = &d
	}
	if cfg.Gray != nil && cfg.Detection == nil {
		return nil, fmt.Errorf("simrun: gray-failure handling requires Detection (progress watermarks ride heartbeats)")
	}
	if mc := cfg.Master; mc != nil {
		if cfg.Gray != nil {
			return nil, fmt.Errorf("simrun: master faults and gray-failure handling are not modelled together")
		}
		if mc.Faults != nil {
			if err := mc.Faults.Validate(); err != nil {
				return nil, err
			}
		}
	}
	r := &Runner{
		eng:      cluster.Engine(),
		cluster:  cluster,
		cfg:      cfg,
		wl:       wl,
		master:   master,
		retries:  make(map[int]int),
		replicas: catalog.NewReplicas(),

		anStart:        attrib.None,
		anCause:        attrib.None,
		anLastTerminal: attrib.None,
	}
	if cfg.Attrib.Enabled() && cfg.Durability != nil {
		r.repairNode = make(map[string]attrib.NodeID)
	}
	r.prefetchMult = 1
	if cfg.Strategy.Kind == strategy.RealTime && cfg.Strategy.Prefetch > 1 {
		r.prefetchMult = cfg.Strategy.Prefetch
	}
	r.drainFn = r.drainAdmits // bound once; kicks never allocate
	if cc := cfg.CtrlPlane; cc != nil {
		r.ctrl = &ctrlState{templates: cc.Templates, cache: ctrlplane.NewCache()}
	}
	if cfg.NetFaults != nil {
		r.rng = rand.New(rand.NewSource(backoffJitterSeed))
	}
	if d := cfg.Durability; d != nil {
		r.durRng = rand.New(rand.NewSource(d.Seed))
		r.evacuated = make(map[string]bool)
		r.lostFiles = make(map[string]bool)
		r.fileSize = make(map[string]float64)
		for _, t := range wl.Tasks {
			for _, f := range t.Files {
				r.fileSize[f.Name] = float64(f.Size)
			}
		}
		cluster.OnDiskFailure(func(vm *cloud.VM, _ *storage.Volume) {
			if w := r.worker(vm); w != nil {
				r.diskDied(w)
			}
		})
		if m := cfg.Metrics; m.Enabled() {
			m.Gauge("under_replicated", func() float64 {
				rf := d.RF
				if rf < 1 {
					rf = 1
				}
				return float64(r.replicas.UnderCount(rf))
			})
			m.Gauge("active_repairs", func() float64 {
				if r.repair == nil {
					return 0
				}
				return float64(len(r.repair.active))
			})
			m.Gauge("files_lost", func() float64 { return float64(r.res.FilesLost) })
			m.Gauge("repair_goodput_bps", func() float64 {
				if r.repair == nil {
					return 0
				}
				return r.repair.goodputBps()
			})
			countGauge(m, "corruptions_detected", &r.res.CorruptionsDetected)
			countGauge(m, "files_lost_total", &r.res.FilesLost)
			countGauge(m, "repairs_ok", &r.res.RepairsCompleted)
			r.mRepairsFailed = m.Counter("repairs_failed")
			m.Gauge("repair_bytes", func() float64 { return r.res.RepairBytes })
		}
	}
	if g := cfg.Gray; g != nil {
		r.specs = make(map[int]*specPair)
		if g.Hedge {
			r.hedgeRng = rand.New(rand.NewSource(hedgeSeed))
		}
		if m := cfg.Metrics; m.Enabled() {
			m.Gauge("slow_suspected", func() float64 {
				if r.detector == nil {
					return 0
				}
				return float64(len(r.detector.SlowSuspects()))
			})
			m.Gauge("active_speculations", func() float64 { return float64(len(r.specs)) })
			m.Gauge("active_hedges", func() float64 { return float64(r.activeHedges) })
			countGauge(m, "stragglers_suspected", &r.res.StragglersSuspected)
			countGauge(m, "speculative_launched", &r.res.SpeculativeLaunched)
			countGauge(m, "speculative_won", &r.res.SpeculativeWon)
			countGauge(m, "hedged_transfers", &r.res.HedgedTransfers)
		}
		r.hGrayTaskSec = cfg.Metrics.Histogram("gray_task_sec",
			[]float64{1, 3, 10, 30, 100, 300, 1000, 3000, 10000})
	}
	if m := cfg.Metrics; m.Enabled() {
		m.Gauge("queue_depth", func() float64 { return float64(r.QueueLen()) })
		m.Gauge("live_workers", func() float64 { return float64(r.LiveWorkers()) })
		m.Gauge("busy_slots", func() float64 { b, _ := r.SlotStats(); return float64(b) })
		m.Gauge("total_slots", func() float64 { _, t := r.SlotStats(); return float64(t) })
		m.Gauge("active_flows", func() float64 { return float64(r.activeFlows) })
		m.Gauge("goodput_bps", cluster.Network().AggregateRateBps)
		m.Gauge("terminal_tasks", func() float64 { return float64(r.terminal) })
		m.Gauge("bytes_moved", func() float64 { return r.res.BytesMoved })
		countGauge(m, "tasks_ok", &r.res.Succeeded)
		countGauge(m, "tasks_failed", &r.res.Abandoned)
		r.mRequeues = m.Counter("task_requeues")
		countGauge(m, "transfer_interrupts", &r.res.TransferInterrupts)
		countGauge(m, "transfer_retries", &r.res.TransferRetries)
	}
	r.hTaskSec = cfg.Metrics.Histogram("task_sec", []float64{1, 3, 10, 30, 100, 300, 1000, 3000, 10000})
	r.hXferSec = cfg.Metrics.Histogram("transfer_sec", []float64{0.1, 0.3, 1, 3, 10, 30, 100, 300, 1000})
	r.res.PerWorker = make(map[string]int)
	cluster.OnFailure(func(vm *cloud.VM) {
		if w := r.worker(vm); w != nil {
			r.workerDied(w)
		}
	})
	return r, nil
}

// worker returns the worker running on vm, or nil if vm never joined. IDs
// are unique only within a cluster, so the slot's VM must be vm itself.
func (r *Runner) worker(vm *cloud.VM) *simWorker {
	if id := vm.ID(); id < len(r.byVM) {
		if w := r.byVM[id]; w != nil && w.vm == vm {
			return w
		}
	}
	return nil
}

// countGauge registers a metrics column that samples one Result count, so
// each run statistic is kept once, in Result.
func countGauge(m *obs.Metrics, name string, n *int) {
	m.Gauge(name, func() float64 { return float64(*n) })
}

// QueueLen reports tasks awaiting dispatch: the shared queue plus every
// live worker's assigned-but-undispatched backlog. Pre-partitioned work
// parked on a backlog is still queued load — counting only the shared queue
// made the queue_depth gauge (and the autoscaler's QueuedTasks signal) read
// zero while thousands of backlog tasks waited.
func (r *Runner) QueueLen() int {
	n := len(r.queue)
	for _, w := range r.workers {
		if !w.dead {
			n += len(w.backlog)
		}
	}
	return n
}

// SlotStats reports currently busy and total compute slots over live
// workers — the autoscaler's load signal.
func (r *Runner) SlotStats() (busy, total int) {
	for _, w := range r.workers {
		if w.dead || w.draining {
			continue
		}
		busy += w.cores.InUse()
		total += w.cores.Capacity()
	}
	return busy, total
}

// LiveWorkers counts workers that have not died or drained.
func (r *Runner) LiveWorkers() int {
	n := 0
	for _, w := range r.workers {
		if !w.dead && !w.draining {
			n++
		}
	}
	return n
}

// Terminal reports how many tasks reached a terminal state so far.
func (r *Runner) Terminal() int { return r.terminal }

// AddWorker registers a compute VM. Before Start it joins the initial set;
// after Start it joins elastically (real-time strategies give it work
// immediately).
func (r *Runner) AddWorker(vm *cloud.VM) *simWorker {
	slots := 1
	if r.cfg.Strategy.Multicore {
		slots = vm.Type().Cores
	}
	disk := vm.LocalDisk()
	if r.cfg.Storage != nil {
		disk = storage.MustVolume(vm.Name()+"/scratch", *r.cfg.Storage)
	}
	w := &simWorker{
		vm:    vm,
		name:  vm.Name(),
		slots: slots,
		disk:  disk,
		cores: sim.NewResource(slots),
		speed: 1,
	}
	r.workers = append(r.workers, w)
	if id := vm.ID(); id >= len(r.byVM) {
		r.byVM = append(r.byVM, make([]*simWorker, id+1-len(r.byVM))...)
	}
	r.byVM[vm.ID()] = w
	if r.started {
		register := func() {
			if w.dead {
				return
			}
			if tr := r.cfg.Tracer; tr.Enabled() {
				tr.Instant(w.name, "sched", "worker-joined", nil)
			}
			if ab := r.cfg.Attrib; ab.Enabled() {
				// An elastic join is an external decision; its staging chain
				// starts here rather than inheriting an unrelated ambient cause.
				r.anCause = ab.After(r.anStart, attrib.Unattributed, "worker-joined", w.name)
			}
			r.ctrlInvalidate() // worker set changed: templates re-derive
			r.startDetection(w)
			r.stageCommon(w, func() { r.kick(w) })
		}
		if r.mf.deferring() {
			// Registration is a master-side handshake; the VM exists but
			// joins the pool when the control plane is back.
			r.mf.enqueue(register)
		} else {
			register()
		}
	}
	return w
}

// Heartbeat detection timing, as every detecting experiment (netfail,
// durability, stragglers, masterfail) runs it: a worker beats every
// heartbeatSec and is suspected after detectTimeoutSec of silence — three
// beats, so one lost beat is never a miss.
const (
	heartbeatSec     = 5
	detectTimeoutSec = 15
)

// initDetector builds the suspect→confirm heartbeat detector; declaration
// isolates the worker exactly as a cloud-level VM failure does.
func (r *Runner) initDetector() {
	r.detector = fault.NewDetectorK(r.eng, detectTimeoutSec, r.cfg.Detection.K, func(node string) {
		for _, w := range r.workers {
			if w.name == node {
				r.workerDied(w)
				return
			}
		}
	})
	r.detector.SetTracer(r.cfg.Tracer)
}

// startDetection watches the worker and starts its heartbeat loop. A
// heartbeat only reaches the master while the worker's network path is up,
// so link faults surface as missed deadlines — the false-positive source
// the K > 1 suspicion ladder exists to absorb.
func (r *Runner) startDetection(w *simWorker) {
	if r.detector == nil {
		return
	}
	r.detector.Watch(w.name)
	var beat func()
	beat = func() {
		if w.dead || r.finished {
			return
		}
		if r.pathUp(w) {
			r.detector.Heartbeat(w.name)
			if r.cfg.Gray != nil {
				r.reportProgress(w)
			}
		}
		r.eng.Schedule(heartbeatSec, beat)
	}
	r.eng.Schedule(heartbeatSec, beat)
}

// pathUp reports whether the worker's control channel to the master is
// usable in both directions (no failed link on either transfer path).
func (r *Runner) pathUp(w *simWorker) bool {
	for _, l := range r.cluster.TransferPath(w.vm, r.master) {
		if l.Failed() {
			return false
		}
	}
	for _, l := range r.cluster.TransferPath(r.master, w.vm) {
		if l.Failed() {
			return false
		}
	}
	return true
}

// Run executes the whole simulation synchronously and returns the result.
func (r *Runner) Run() (Result, error) {
	var out Result
	finished := false
	if err := r.Start(func(res Result) {
		out = res
		finished = true
	}); err != nil {
		return Result{}, err
	}
	r.eng.Run()
	if !finished {
		return Result{}, fmt.Errorf("simrun: %s deadlocked with %d/%d tasks terminal",
			r.wl.Name, r.terminal, len(r.wl.Tasks))
	}
	return out, nil
}

// Start begins the run at the current virtual time; done receives the
// result when every task is terminal.
func (r *Runner) Start(done func(Result)) error {
	if len(r.workers) == 0 {
		return fmt.Errorf("simrun: no workers")
	}
	r.done = done
	r.started = true
	r.startAt = r.eng.Now()
	r.cfg.Metrics.StartSampling()
	if ab := r.cfg.Attrib; ab.Enabled() {
		r.anStart = ab.At("run-start")
		r.anCause = r.anStart
	}

	if r.cfg.Detection != nil {
		r.initDetector()
		if r.cfg.Gray != nil {
			r.initGray()
		}
		for _, w := range r.workers {
			r.startDetection(w)
		}
	}
	if d := r.cfg.Durability; d != nil && d.RF > 1 {
		r.repair = newRepairManager(r)
	}
	r.initMaster()

	switch r.cfg.Strategy.Kind {
	case strategy.PrePartition:
		return r.startPrePartition()
	case strategy.NoPartition:
		return r.startNoPartition()
	case strategy.RealTime:
		for i := range r.wl.Tasks {
			r.queue = append(r.queue, i)
		}
		for _, w := range r.workers {
			w := w
			r.stageCommon(w, func() { r.kick(w) })
		}
		return nil
	default:
		return fmt.Errorf("simrun: unknown strategy kind %v", r.cfg.Strategy.Kind)
	}
}

// transfer moves bytes of the named files from the master (first attempt)
// to w. With cfg.NetFaults set, a flow killed by a link fault retries after
// a capped, jittered exponential backoff — resuming from the delivered-byte
// offset and from the best surviving replica when Resume is on, restarting
// from zero at the master otherwise. done runs exactly once with lost=true
// when the transfer cannot complete (no retry budget, or the worker died
// between attempts); it never runs at all if the stage is abandoned by
// workerDied. The fault-free path is event-for-event identical to a plain
// cluster.Transfer.
func (r *Runner) transfer(w *simWorker, files []string, bytes float64, done func(lost bool)) *stageIn {
	s := &stageIn{w: w, startAt: r.eng.Now(), anCause: r.anCause, anHedge: attrib.None}
	tr := r.cfg.Tracer
	ab := r.cfg.Attrib
	if tr.Enabled() {
		s.lane = claimLane(&w.xferLanes)
		s.track = fmt.Sprintf("%s/net%d", w.name, s.lane)
		s.span = tr.Begin(s.track, "transfer", transferName(files), obs.Args{
			"worker": w.name, "bytes": bytes, "files": len(files),
		})
	}
	refetches := 0
	var attempt func(remaining float64, n int)
	attempt = func(remaining float64, n int) {
		src := r.sourceFor(w, files, n)
		if src == nil {
			// Durability only: every copy is gone — nothing to stream.
			r.eng.Schedule(0, func() {
				if s.abandoned {
					return
				}
				r.endStage(s, "lost")
				r.anCause = ab.After(s.anCause, attrib.NetworkTransfer, "xfer-lost", "no-source")
				done(true)
			})
			return
		}
		if s.span != nil {
			s.attempt = tr.Begin(s.track, "attempt", fmt.Sprintf("attempt %d", n), obs.Args{
				"src": src.Name(), "bytes": remaining,
			})
		}
		// arrive settles a delivered payload — from the primary flow or,
		// under gray-failure hedging, from whichever of the two racing flows
		// finished first (`from` names the winner's source for the
		// corruption draw).
		arrive := func(from *cloud.VM) {
			if s.abandoned {
				if s.attempt != nil {
					s.attempt.End(obs.Args{"outcome": "ok"})
					s.attempt = nil
				}
				return
			}
			if d := r.cfg.Durability; d != nil && d.Verify && d.CorruptionRate > 0 &&
				r.pathDegraded(from, w) && r.durRng.Float64() < d.CorruptionRate {
				// Checksum mismatch on arrival: the payload crossed a
				// degraded link and came out wrong. Refetch the whole
				// payload (from the next-best replica, if any) up to
				// maxRefetch times.
				if s.attempt != nil {
					s.attempt.End(obs.Args{"outcome": "corrupt"})
					s.attempt = nil
				}
				r.res.CorruptionsDetected++
				refetches++
				if tr.Enabled() {
					tr.Instant(s.track, "durability", "checksum-mismatch", obs.Args{
						"refetch": refetches,
					})
				}
				s.anCause = ab.After(s.anCause, attrib.NetworkTransfer, "xfer-corrupt", s.bnDetail)
				if refetches <= maxRefetch && !w.dead {
					attempt(bytes, n+1)
					return
				}
				r.endStage(s, "corrupt")
				r.anCause = s.anCause
				done(true)
				return
			}
			if s.attempt != nil {
				s.attempt.End(obs.Args{"outcome": "ok"})
				s.attempt = nil
			}
			if r.cfg.Gray != nil {
				r.observeGoodput(bytes, float64(r.eng.Now()-s.startAt))
			}
			r.hXferSec.Observe(float64(r.eng.Now() - s.startAt))
			r.endStage(s, "ok")
			if ab.Enabled() {
				ab.ObserveTransferSec(float64(r.eng.Now() - s.startAt))
				dn := ab.After(s.anCause, attrib.NetworkTransfer, "xfer-done", s.bnDetail)
				if r.repairNode != nil {
					// The payload came off a replica; if a background repair
					// put that replica there, the delivery causally depends on
					// the repair having landed first.
					for _, f := range files {
						if rn, okr := r.repairNode[f+"\x00"+from.Name()]; okr {
							ab.Edge(rn, dn, attrib.Repair, f)
						}
					}
				}
				r.anCause = dn
			}
			done(false)
		}
		// retryAfter schedules attempt n+1 of `next` bytes, or declares the
		// transfer lost — attributed to `lost` — when there is no retry
		// budget.
		retryAfter := func(next float64, n int, lost string) {
			if r.cfg.NetFaults == nil || n >= maxTransferAttempts || w.dead {
				r.endStage(s, "lost")
				r.anCause = ab.After(s.anCause, attrib.NetworkTransfer, "xfer-lost", lost)
				done(true)
				return
			}
			r.res.TransferRetries++
			backoff := r.backoff(n)
			if s.span != nil {
				tr.Instant(s.track, "transfer", "retry-scheduled", obs.Args{
					"delay_sec": float64(backoff), "next_attempt": n + 1,
				})
			}
			s.retry = r.eng.Schedule(backoff, func() {
				s.retry = sim.EventRef{}
				if s.abandoned {
					return
				}
				if w.dead {
					r.endStage(s, "lost")
					r.anCause = ab.After(s.anCause, attrib.NetworkTransfer, "xfer-lost", "worker-dead")
					done(true)
					return
				}
				s.anCause = ab.After(s.anCause, attrib.RetryBackoff, "retry", "")
				attempt(next, n+1)
			})
		}
		r.flowStarted()
		r.res.BytesMoved += remaining
		var fl *netsim.Flow
		fl = r.cluster.Transfer(src, w.vm, remaining, func(sim.Time) {
			r.flowEnded()
			s.flow = nil
			s.hedgeCheck.Cancel()
			s.hedgeCheck = sim.EventRef{}
			if s.hedge != nil {
				r.dropHedge(s)
			}
			if ab.Enabled() {
				s.bnDetail = bottleneckName(fl)
			}
			arrive(src)
		})
		s.flow = fl
		s.flow.OnInterrupt(func(delivered float64, _ sim.Time) {
			r.flowEnded()
			s.flow = nil
			s.hedgeCheck.Cancel()
			s.hedgeCheck = sim.EventRef{}
			if s.attempt != nil {
				s.attempt.End(obs.Args{"outcome": "interrupted", "delivered": delivered})
				s.attempt = nil
			}
			r.res.BytesMoved -= remaining - delivered
			if s.abandoned {
				return
			}
			r.res.TransferInterrupts++
			if ab.Enabled() {
				s.anCause = ab.After(s.anCause, attrib.NetworkTransfer, "xfer-interrupted", bottleneckName(fl))
			}
			if s.hedge != nil {
				// The hedge twin is still streaming; let it finish the
				// transfer (its interrupt handler resumes the retry ladder
				// if it dies too).
				return
			}
			next := remaining
			if nf := r.cfg.NetFaults; nf != nil && nf.Resume {
				next = remaining - delivered
			}
			retryAfter(next, n, "no-retry")
		})
		if g := r.cfg.Gray; g != nil && g.Hedge {
			r.armHedge(s, w, files, remaining, src, arrive, func() {
				// Both racing flows died: resume the retry ladder with the
				// full remaining payload.
				retryAfter(remaining, n, "retries-exhausted")
			})
		}
	}
	attempt(bytes, 1)
	return s
}

// transferName labels a logical transfer span.
func transferName(files []string) string {
	switch {
	case len(files) == 1 && files[0] == commonFile:
		return "stage common"
	case len(files) == 1:
		return "xfer " + files[0]
	default:
		return fmt.Sprintf("xfer %d files", len(files))
	}
}

// bottleneckName names the link that capped a finished or interrupted flow,
// the detail string of attribution transfer segments.
func bottleneckName(f *netsim.Flow) string {
	if l := f.Bottleneck(); l != nil {
		return l.Name()
	}
	return ""
}

// endStage closes the transfer's spans and frees its trace lane; safe to
// call on an untraced or already-closed stage.
func (r *Runner) endStage(s *stageIn, outcome string) {
	if s.span == nil {
		return
	}
	if s.attempt != nil {
		s.attempt.End(obs.Args{"outcome": outcome})
		s.attempt = nil
	}
	s.span.End(obs.Args{"outcome": outcome})
	s.span = nil
	releaseLane(s.w.xferLanes, s.lane)
}

// sourceFor picks a transfer attempt's source. Without durability this is
// the published behaviour, bit for bit: the master on the first attempt,
// the best surviving replica on Resume retries. With durability the master
// is only eligible while it still holds every requested file (EvacuateSource
// drops files once staged), worker replicas are preferred once the master is
// out, and nil means every copy is gone — the caller declares the transfer
// lost without touching the network.
func (r *Runner) sourceFor(w *simWorker, files []string, n int) *cloud.VM {
	if c := r.ctrl; c != nil && c.tmplSrc != nil && n == 1 {
		// Template-instantiated dispatch: the source was decided when the
		// template was derived and re-validated by the generation check.
		src := c.tmplSrc
		c.tmplSrc = nil
		return src
	}
	return r.sourceForSlow(w, files, n)
}

// sourceForSlow is the source rule — the path every decision took before
// the execution-template cache, and the oracle checkTemplate re-derives
// against. A first attempt streams from the master, the canonical source
// provisioned for staging, while it holds the files; otherwise, with
// durability or Resume, from the best holder (bestHolder); otherwise from
// the master if it still holds them; otherwise nil.
func (r *Runner) sourceForSlow(w *simWorker, files []string, n int) *cloud.VM {
	masterHolds := r.masterHolds(files)
	if n == 1 && masterHolds {
		return r.master
	}
	if nf := r.cfg.NetFaults; r.cfg.Durability != nil || (nf != nil && nf.Resume) {
		if o := r.bestHolder(files, w, nil); o != nil {
			return o.vm
		}
	}
	if masterHolds {
		return r.master
	}
	return nil
}

// bestHolder is the replica picker: the live, undrained worker on a
// healthy uplink that holds every named file and carries the fewest active
// uplink flows, the first in registration order on ties. skip and skipVM
// (either may be nil) exclude the destination and a source already in use.
// Nil when no worker qualifies.
func (r *Runner) bestHolder(files []string, skip *simWorker, skipVM *cloud.VM) *simWorker {
	var best *simWorker
	for _, o := range r.workers {
		if o == skip || o.vm == skipVM || o.dead || o.draining || o.vm.Host().Up().Failed() {
			continue
		}
		holds := true
		for _, f := range files {
			if !r.replicas.Has(f, o.name) {
				holds = false
				break
			}
		}
		if holds && (best == nil || o.vm.Host().Up().ActiveFlows() < best.vm.Host().Up().ActiveFlows()) {
			best = o
		}
	}
	return best
}

// pathDegraded reports whether any link on the current src→w transfer path
// is running below its provisioned rate — the corruption-injection
// condition, checked at arrival time.
func (r *Runner) pathDegraded(src *cloud.VM, w *simWorker) bool {
	for _, l := range r.cluster.TransferPath(src, w.vm) {
		if l.Degraded() {
			return true
		}
	}
	return false
}

// Transfer retry budgets, as the netfail and durability sweeps run them:
// under NetFaults a transfer gets maxTransferAttempts flows with jittered
// exponential backoff between them, and under Durability a corrupt payload
// is refetched at most maxRefetch times. The jitter RNG is consumed only on
// retries, so fault-free runs never draw from it.
const (
	maxTransferAttempts = 6
	maxRefetch          = 3
	backoffSec          = 1
	backoffCapSec       = 30
	backoffJitterSeed   = 13
)

// backoff returns the delay before attempt n+1: backoffSec doubling per
// attempt, capped at backoffCapSec, with seeded jitter in [0.5, 1.5) to
// de-synchronise retry storms across workers sharing a restored link.
func (r *Runner) backoff(n int) sim.Duration {
	d := backoffSec * math.Pow(2, float64(n-1))
	if d > backoffCapSec {
		d = backoffCapSec
	}
	return sim.Duration(d * (0.5 + r.rng.Float64()))
}

// abandonStage kills a transfer's current flow and pending retry; its done
// callback will never run.
func (r *Runner) abandonStage(s *stageIn) {
	if s == nil || s.abandoned {
		return
	}
	s.abandoned = true
	if s.flow != nil {
		r.cluster.Network().Cancel(s.flow)
		s.flow = nil
		r.flowEnded()
	}
	if s.hedge != nil {
		r.cluster.Network().Cancel(s.hedge)
		s.hedge = nil
		r.activeHedges--
		r.flowEnded()
	}
	s.retry.Cancel()
	s.retry = sim.EventRef{}
	s.hedgeCheck.Cancel()
	s.hedgeCheck = sim.EventRef{}
	r.endStage(s, "abandoned")
}

// stageCommon transfers the common dataset (if any) and marks the worker
// ready. A transfer lost to link faults isolates the worker: without its
// database it can never run a task, matching the prototype's behaviour of
// dropping a worker whose staging failed.
func (r *Runner) stageCommon(w *simWorker, then func()) {
	if r.wl.CommonBytes <= 0 || r.cfg.Strategy.Locality == strategy.Local {
		w.ready = true
		then()
		return
	}
	r.transfer(w, []string{commonFile}, r.wl.CommonBytes, func(lost bool) {
		if w.dead {
			then() // keep barrier counts balanced; dead path is a no-op
			return
		}
		if lost {
			r.workerDied(w)
			then()
			return
		}
		r.chargeDiskWrite(w, r.wl.CommonBytes, func() {
			if w.dead {
				then()
				return
			}
			w.ready = true
			r.noteStaged(commonFile, w.name)
			then()
		})
	})
}

// chargeDiskWrite models writing received bytes to local disk. NewRunner
// rejects read-only worker storage, so a write error here is a programming
// error, not a run condition.
func (r *Runner) chargeDiskWrite(w *simWorker, bytes float64, then func()) {
	if !r.cfg.ModelDiskIO || bytes <= 0 {
		then()
		return
	}
	dur, err := w.disk.Write(bytes)
	if err != nil {
		panic(fmt.Sprintf("simrun: disk write on %s: %v", w.name, err))
	}
	if ab := r.cfg.Attrib; ab.Enabled() {
		cause := r.anCause
		r.eng.Schedule(dur, func() {
			r.anCause = ab.After(cause, attrib.DiskIO, "disk-write", w.name)
			then()
		})
		return
	}
	r.eng.Schedule(dur, then)
}

// startPrePartition: strict two-phase. Each worker's unique files stream as
// a chain of flows (one at a time per worker, like a per-worker scp loop);
// execution begins only after every worker's staging completes.
func (r *Runner) startPrePartition() error {
	assigner, err := strategy.AssignerByName(r.cfg.Strategy.Assigner)
	if err != nil {
		return err
	}
	groups := tasksAsGroups(r.wl.Tasks)
	assignment, err := assigner.Assign(groups, len(r.workers))
	if err != nil {
		return err
	}
	per := assignment.PerWorker()
	for wi, w := range r.workers {
		w.backlog = per[wi]
	}
	stagingStart := r.eng.Now()
	remaining := len(r.workers)
	barrier := func() {
		remaining--
		if remaining > 0 {
			return
		}
		r.res.StagingPhaseSec = float64(r.eng.Now() - stagingStart)
		for _, w := range r.workers {
			if !w.dead {
				r.kick(w)
			} else {
				r.reassign(w)
			}
		}
		r.checkDone()
	}
	for _, w := range r.workers {
		w := w
		r.stageCommon(w, func() {
			if r.cfg.Strategy.Locality == strategy.Local {
				// Data pre-placed: everything is already on disk.
				for _, gi := range w.backlog {
					for _, f := range r.wl.Tasks[gi].Files {
						w.setHas(f.Name)
					}
				}
				barrier()
				return
			}
			files := uniqueFiles(r.wl.Tasks, w.backlog)
			r.streamChain(w, files, 0, barrier)
		})
	}
	return nil
}

// streamChain sends files[i:] to w one flow at a time. A file lost to link
// faults isolates the worker (its staging is incomplete), and the chain's
// barrier callback still runs.
func (r *Runner) streamChain(w *simWorker, files []catalog.FileMeta, i int, then func()) {
	if i >= len(files) || w.dead {
		then()
		return
	}
	f := files[i]
	if w.has[f.Name] {
		r.streamChain(w, files, i+1, then)
		return
	}
	r.transfer(w, []string{f.Name}, float64(f.Size), func(lost bool) {
		if w.dead {
			then()
			return
		}
		if lost {
			r.workerDied(w)
			then()
			return
		}
		r.chargeDiskWrite(w, float64(f.Size), func() {
			w.setHas(f.Name)
			r.noteStaged(f.Name, w.name)
			r.streamChain(w, files, i+1, then)
		})
	})
}

// startNoPartition stages the complete dataset on every worker, then farms
// tasks with no further data movement.
func (r *Runner) startNoPartition() error {
	all := uniqueFiles(r.wl.Tasks, allIndices(len(r.wl.Tasks)))
	for i := range r.wl.Tasks {
		r.queue = append(r.queue, i)
	}
	stagingStart := r.eng.Now()
	remaining := len(r.workers)
	barrier := func() {
		remaining--
		if remaining > 0 {
			return
		}
		r.res.StagingPhaseSec = float64(r.eng.Now() - stagingStart)
		for _, w := range r.workers {
			if !w.dead {
				r.kick(w)
			}
		}
		r.checkDone()
	}
	for _, w := range r.workers {
		w := w
		r.stageCommon(w, func() {
			if r.cfg.Strategy.Locality == strategy.Local {
				for _, f := range all {
					w.setHas(f.Name)
				}
				barrier()
				return
			}
			r.streamChain(w, all, 0, barrier)
		})
	}
	return nil
}

// kick requests an admit pass for the worker. Eager mode runs it on the
// spot; batched mode (cfg.BatchSched) enqueues the worker, deduplicated, for
// this instant's single drain pass.
func (r *Runner) kick(w *simWorker) {
	if !r.cfg.BatchSched {
		r.admit(w)
		return
	}
	if !w.queued {
		w.queued = true
		r.pendAdmit = append(r.pendAdmit, w)
	}
	if !r.drainOn {
		r.drainOn = true
		r.eng.Schedule(0, r.drainFn)
	}
}

// kickAll requests an admit pass over every live worker — Recover requeues
// and worker deaths put work or capacity back for everyone. Batched mode
// collapses any number of same-instant broadcasts into one full pass.
func (r *Runner) kickAll() {
	if !r.cfg.BatchSched {
		for _, o := range r.workers {
			if !o.dead {
				r.admit(o)
			}
		}
		return
	}
	r.admitAll = true
	if !r.drainOn {
		r.drainOn = true
		r.eng.Schedule(0, r.drainFn)
	}
}

// drainAdmits is the batched scheduling pass: one admit sweep over the
// workers kicked this instant (or all live workers after a broadcast). The
// engine delivers same-instant events FIFO, so the pass runs after every
// already-queued completion/staging event of the tick has settled its
// bookkeeping. Kicks arriving synchronously from inside the pass extend the
// pend slice and are handled by the index loop.
func (r *Runner) drainAdmits() {
	r.drainOn = false
	if r.admitAll {
		r.admitAll = false
		for _, w := range r.pendAdmit {
			w.queued = false
		}
		r.pendAdmit = r.pendAdmit[:0]
		for _, o := range r.workers {
			if !o.dead {
				r.admit(o)
			}
		}
		return
	}
	for i := 0; i < len(r.pendAdmit); i++ {
		w := r.pendAdmit[i]
		w.queued = false
		r.admit(w)
	}
	r.pendAdmit = r.pendAdmit[:0]
}

// admit pulls tasks into the worker's pipeline up to slots × prefetch.
func (r *Runner) admit(w *simWorker) {
	if w.dead || w.draining || !w.ready {
		return
	}
	if r.mf.deferring() {
		// No dispatcher to admit from; recovery ends with a kickAll.
		return
	}
	if r.cfg.Gray != nil && r.detector != nil && r.detector.SlowSuspected(w.name) {
		// Detect-only mitigation: a slow-suspected worker keeps its current
		// pipeline but is not fed more work until the suspicion clears.
		return
	}
	limit := w.slots * r.prefetchMult
	for w.admitted < limit {
		if r.ctrl != nil {
			// Priced control plane: the decision server picks, charges and
			// schedules the dispatch (ctrlplane.go).
			if !r.dispatchCtrl(w) {
				return
			}
			continue
		}
		gi, ok := r.nextTask(w)
		if !ok {
			return
		}
		w.admitted++
		r.fetchAndRun(w, gi)
	}
}

// nextTask pops the worker's backlog first (pre-partition), then the shared
// queue at the index the slow path picks.
func (r *Runner) nextTask(w *simWorker) (int, bool) {
	if len(w.backlog) > 0 {
		return ctrlplane.PopAt(&w.backlog, 0), true
	}
	if len(r.queue) == 0 {
		return 0, false
	}
	return ctrlplane.PopAt(&r.queue, r.pickQueue(w)), true
}

// pickQueue is the slow-path shared-queue decision for w (ctrlplane.Pick);
// a group is resident when the worker already holds every file of it.
func (r *Runner) pickQueue(w *simWorker) int {
	idx, _ := ctrlplane.Pick(r.queue, r.cfg.Strategy.Placement == strategy.ComputeToData, func(gi int) bool {
		for _, f := range r.wl.Tasks[gi].Files {
			if !w.has[f.Name] {
				return false
			}
		}
		return true
	})
	return idx
}

// fetchAndRun transfers the task's missing bytes (real-time remote), then
// computes. Returns the attempt so speculation can track its clone.
func (r *Runner) fetchAndRun(w *simWorker, gi int) *taskAttempt {
	task := r.wl.Tasks[gi]
	att := &taskAttempt{task: gi}
	if w.inflight == nil {
		w.inflight = make(map[int]*taskAttempt)
	}
	w.inflight[gi] = att
	if tr := r.cfg.Tracer; tr.Enabled() {
		tr.Instant(w.name, "sched", "dispatch", obs.Args{
			"task": gi, "bytes": task.InputBytes(),
		})
	}

	var missing float64
	var names []string
	var metas []catalog.FileMeta
	fetching := r.cfg.Strategy.Kind == strategy.RealTime && r.cfg.Strategy.Locality == strategy.Remote
	if fetching {
		if r.cfg.Durability == nil {
			names = r.takeNames()
		}
		for _, f := range task.Files {
			if !w.has[f.Name] {
				missing += float64(f.Size)
				if r.cfg.Durability == nil {
					names = append(names, f.Name)
				} else {
					metas = append(metas, f)
				}
				// Claim at dispatch, exactly as the real master marks the
				// replica before streaming: a concurrent slot fetching a
				// shared file (one-to-all's pivot, all-to-all pairs) must
				// not fetch it twice.
				w.setHas(f.Name)
				if r.cfg.Gray != nil {
					att.claimed = append(att.claimed, f.Name)
				}
			}
		}
	}
	start := func() {
		if w.dead {
			return
		}
		r.compute(w, att)
	}
	if missing <= 0 {
		r.putNames(names)
		start()
		return att
	}
	if r.cfg.Durability != nil {
		// With replicas spread by the repair manager, a task's files may
		// live on different nodes — fetch per file so each transfer can use
		// its own best source. The bundled single-flow fetch below stays
		// byte-identical for the published model.
		r.fetchChain(w, att, metas, start)
		return att
	}
	att.stage = r.transfer(w, names, missing, func(lost bool) {
		att.stage = nil
		if w.dead {
			return
		}
		if lost {
			// The fetch is unrecoverable: un-claim the files so a future
			// attempt re-fetches them, and fail this attempt. The worker
			// itself stays (the detector isolates it separately if it is
			// truly partitioned), but it only asks for more work after a
			// connection timeout.
			for _, name := range names {
				delete(w.has, name)
			}
			r.putNames(names)
			delete(w.inflight, gi)
			w.admitted--
			r.taskDone(w, att, false)
			r.scheduleConnectTimeout(w)
			return
		}
		r.chargeDiskWrite(w, missing, func() {
			for _, f := range names {
				r.noteStaged(f, w.name)
			}
			r.putNames(names)
			start()
		})
	})
	return att
}

// scheduleConnectTimeout re-kicks a worker after the master's
// dispatch-failure observation delay. With attribution on, the delayed kick
// re-establishes the ambient cause as a retry/backoff node chained from the
// failure that started the timer, so work dispatched by the kick blames the
// timeout, not whatever event happened to precede it.
func (r *Runner) scheduleConnectTimeout(w *simWorker) {
	if ab := r.cfg.Attrib; ab.Enabled() {
		cause := r.anCause
		r.eng.Schedule(sim.Duration(connectTimeoutSec), func() {
			r.anCause = ab.After(cause, attrib.RetryBackoff, "connect-timeout", w.name)
			r.kick(w)
		})
		return
	}
	r.eng.Schedule(sim.Duration(connectTimeoutSec), func() { r.kick(w) })
}

// takeNames pops a recycled name slice (len 0) from the scratch free list,
// or returns nil for append to grow on first use.
func (r *Runner) takeNames() []string {
	if n := len(r.nameScratch); n > 0 {
		s := r.nameScratch[n-1]
		r.nameScratch[n-1] = nil
		r.nameScratch = r.nameScratch[:n-1]
		return s
	}
	return nil
}

// putNames returns a dispatch's name slice to the free list once no closure
// will touch it again. putNames(nil) is a no-op.
func (r *Runner) putNames(s []string) {
	if s == nil {
		return
	}
	r.nameScratch = append(r.nameScratch, s[:0])
}

// fetchChain stages a task's missing files one flow at a time (durability
// runs only). Files already landed keep their on-disk copies when a later
// file in the chain fails; only the not-yet-fetched claims are released.
func (r *Runner) fetchChain(w *simWorker, att *taskAttempt, metas []catalog.FileMeta, start func()) {
	gi := att.task
	fail := func(i int) {
		for _, f := range metas[i:] {
			delete(w.has, f.Name)
		}
		delete(w.inflight, gi)
		w.admitted--
		r.taskDone(w, att, false)
		r.scheduleConnectTimeout(w)
	}
	var step func(i int)
	step = func(i int) {
		if w.dead {
			return
		}
		if i >= len(metas) {
			start()
			return
		}
		f := metas[i]
		if r.lostFiles[f.Name] {
			fail(i)
			return
		}
		att.stage = r.transfer(w, []string{f.Name}, float64(f.Size), func(lost bool) {
			att.stage = nil
			if w.dead {
				return
			}
			if lost {
				fail(i)
				return
			}
			r.chargeDiskWrite(w, float64(f.Size), func() {
				if w.dead {
					return
				}
				// Re-assert the claim: a disk wipe mid-transfer cleared it,
				// and the bytes just landed on the fresh media.
				w.setHas(f.Name)
				r.noteStaged(f.Name, w.name)
				step(i + 1)
			})
		})
	}
	step(0)
}

// compute acquires a core, charges local read time, then runs the task.
func (r *Runner) compute(w *simWorker, att *taskAttempt) {
	task := r.wl.Tasks[att.task]
	w.cores.Acquire(func() {
		if w.dead {
			return
		}
		if att.cancelled {
			// The attempt lost its speculative race while waiting for the
			// core; its slot bookkeeping is already settled.
			w.cores.Release()
			return
		}
		if d := r.cfg.Durability; d != nil && r.cfg.ModelDiskIO && w.disk.ReadErrorRate() > 0 &&
			r.durRng.Float64() < w.disk.ReadErrorRate() {
			r.readFailed(w, att)
			return
		}
		att.started = r.eng.Now()
		// The ambient cause here is whichever event made the compute
		// runnable: this attempt's own staging chain when a core was free,
		// or the completion that released the core after a queue wait.
		att.anStart = r.cfg.Attrib.After(r.anCause, attrib.QueueWait, "task-start", w.name)
		if tr := r.cfg.Tracer; tr.Enabled() {
			cat := "task"
			if att.clone {
				cat = "spec"
			}
			att.lane = claimLane(&w.cpuLanes)
			att.span = tr.Begin(fmt.Sprintf("%s/cpu%d", w.name, att.lane), cat,
				fmt.Sprintf("task %d", att.task), obs.Args{
					"worker": w.name, "attempt": r.retries[att.task] + 1,
				})
		}
		dur := sim.Duration(task.ComputeSec)
		if r.cfg.ModelDiskIO {
			dur += w.disk.Read(task.InputBytes())
			if r.wl.CommonBytes > 0 {
				// Database pages stream from disk during the search; charge
				// a single read of the working set once per task.
				dur += w.disk.Read(r.wl.CommonBytes / 100)
			}
		}
		r.computeStarted()
		// The compute runs as workTotal reference-seconds draining at the
		// worker's speed factor; SetWorkerSpeed settles workLeft at the old
		// rate and reschedules finish at the new one. At speed 1 the /1
		// division is bitwise exact, so unstraggled runs fire the same event
		// at the same instant as the fixed-duration model did.
		att.workTotal = float64(dur)
		att.workLeft = float64(dur)
		att.rateSince = att.started
		att.finish = func() {
			r.computeEnded()
			att.compute = sim.EventRef{}
			r.endTaskSpan(w, att, "ok")
			if ab := r.cfg.Attrib; ab.Enabled() {
				// Elapsed beyond the reference work is straggler inflation:
				// time the span spent draining below provisioned speed.
				inflate := float64(r.eng.Now()-att.started) - att.workTotal
				if inflate < 1e-9 {
					inflate = 0
				}
				r.anCause = ab.AfterSplit(att.anStart, attrib.Compute, inflate, "task-done", w.name)
			}
			delete(w.inflight, att.task)
			w.admitted--
			w.cores.Release()
			r.taskDone(w, att, true)
			r.kick(w)
		}
		att.compute = r.eng.Schedule(sim.Duration(att.workLeft/w.speed), att.finish)
	})
}

// readFailed handles a media read error at task start (durability runs
// only), in two halves like workerDied. The physical half runs now: the
// worker's local copies of the task's inputs are suspect and dropped, so
// future attempts re-fetch from surviving replicas. readFailedMaster is the
// master's reaction and runs right after, or queued behind a control-plane
// outage — in which case the core frees at once, not after the bookkeeping.
func (r *Runner) readFailed(w *simWorker, att *taskAttempt) {
	if tr := r.cfg.Tracer; tr.Enabled() {
		tr.Instant(w.name, "fault", "read-error", obs.Args{"task": att.task})
	}
	// bad comes off the recycled name slices: read errors recur all run.
	bad := r.takeNames()
	for _, f := range r.wl.Tasks[att.task].Files {
		if w.has[f.Name] {
			delete(w.has, f.Name)
			bad = append(bad, f.Name)
		}
	}
	if r.mf.deferring() {
		r.freeSlot(w, att)
		r.mf.enqueue(func() { r.readFailedMaster(w, att, bad, false) })
		return
	}
	r.readFailedMaster(w, att, bad, true)
}

// readFailedMaster is the master half of a read error: drop the bad
// replicas, declare what has no source left lost, rescan, and fail the
// attempt through the normal retry ladder. free releases the attempt's core
// and slot after the bookkeeping and before the verdict, because
// sim.Resource.Release hands the core to the next waiter synchronously.
func (r *Runner) readFailedMaster(w *simWorker, att *taskAttempt, bad []string, free bool) {
	r.res.CorruptionsDetected++
	if ab := r.cfg.Attrib; ab.Enabled() {
		r.anCause = ab.After(r.anCause, attrib.DiskIO, "read-error", w.name)
	}
	for _, f := range bad {
		r.repRemove(f, w.name)
	}
	r.putNames(bad)
	for _, f := range r.wl.Tasks[att.task].Files {
		if !r.sourceExists(f.Name) {
			r.markFileLost(f.Name)
		}
	}
	if r.repair != nil {
		r.repair.scan()
	}
	if free {
		r.freeSlot(w, att)
	}
	r.taskDone(w, att, false)
	r.kick(w)
}

// freeSlot releases a failed attempt's core and pipeline slot.
func (r *Runner) freeSlot(w *simWorker, att *taskAttempt) {
	w.cores.Release()
	delete(w.inflight, att.task)
	w.admitted--
}

// taskDone records a terminal (or requeued) outcome.
func (r *Runner) taskDone(w *simWorker, att *taskAttempt, ok bool) {
	if r.mf.deferring() {
		// A completion report with nobody to receive it: the worker holds it
		// and re-delivers when the master is back.
		r.mf.enqueue(func() { r.taskDone(w, att, ok) })
		return
	}
	if r.specs != nil && r.settleSpec(w, att, ok) {
		return
	}
	if m := r.mf; m != nil && m.reQueuedDone[att.task] {
		if ok || !(r.cfg.Recover && r.retries[att.task]+1 <= r.cfg.MaxRetries) {
			// An amnesia re-execution settled: restore the belief the wipe
			// destroyed and book the wasted work. The task's historical
			// completion stands — no second Completion, no double count.
			delete(m.reQueuedDone, att.task)
			r.retries[att.task]++
			r.terminal++
			r.res.TasksReExecuted++
			r.checkDone()
			return
		}
		// Failed re-execution with retry budget: falls through to requeue.
	}
	if ok {
		r.retries[att.task]++
	} else if r.requeueLost(att.task) {
		// With only draining workers left nobody takes the requeued task;
		// checkDone abandons it instead of leaving the run stalled.
		r.kickAll()
		r.checkDone()
		return
	}
	r.settle(Completion{
		Task: att.task, Worker: w.name, Start: att.started, End: r.eng.Now(),
		OK: ok, Attempt: r.retries[att.task], Speculative: att.clone,
	})
	r.checkDone()
}

// requeueLost is the lost-task rule: book one more spent attempt of gi and,
// under Recover with retry budget left, put it back on the shared queue.
// False means the caller must settle the task as failed.
func (r *Runner) requeueLost(gi int) bool {
	r.retries[gi]++
	if r.cfg.Recover && r.retries[gi] <= r.cfg.MaxRetries {
		r.mRequeues.Inc()
		r.queue = append(r.queue, gi)
		return true
	}
	return false
}

// settle books c as its task's terminal outcome.
func (r *Runner) settle(c Completion) {
	r.terminal++
	if r.mf != nil {
		r.mf.taskTerminal(c.Task, c.OK)
	}
	r.res.Completions = append(r.res.Completions, c)
	if c.OK {
		r.res.Succeeded++
		r.res.PerWorker[c.Worker]++
		r.hTaskSec.Observe(float64(c.End - c.Start))
		r.hGrayTaskSec.Observe(float64(c.End - c.Start))
		r.cfg.Attrib.ObserveTaskSec(float64(c.End - c.Start))
	} else {
		r.res.Abandoned++
	}
	if r.cfg.Attrib.Enabled() {
		r.anLastTerminal = r.anCause
	}
}

// workerDied isolates the worker as core.Master does, in two halves. The
// physical half runs now: the machine is gone, so its flows and computes die
// with it. The master's reaction — dropping replicas, settling the attempts,
// reassigning — is workerDiedMaster, which waits for the control plane when
// that is down.
func (r *Runner) workerDied(w *simWorker) {
	if w.dead {
		return
	}
	w.dead = true
	if tr := r.cfg.Tracer; tr.Enabled() {
		tr.Instant(w.name, "fault", "worker-died", nil)
	}
	attempts := sortedInflight(w)
	for _, att := range attempts {
		if att.stage != nil {
			r.abandonStage(att.stage)
			att.stage = nil
		}
		if att.compute.Pending() {
			att.compute.Cancel()
			r.computeEnded()
		}
		r.endTaskSpan(w, att, "killed")
	}
	if r.mf.deferring() {
		r.mf.enqueue(func() { r.workerDiedMaster(w, attempts) })
		return
	}
	r.workerDiedMaster(w, attempts)
}

// workerDiedMaster is the master half of a worker death: requeue (Recover)
// or abandon the worker's pipeline and backlog. attempts are the in-flight
// attempts workerDied tore down.
func (r *Runner) workerDiedMaster(w *simWorker, attempts []*taskAttempt) {
	r.ctrlInvalidate() // worker set changed: templates re-derive
	if ab := r.cfg.Attrib; ab.Enabled() {
		// Chain the death from the detector's suspicion when one exists —
		// the suspect→declare gap is detection latency, the price of the K
		// missed-deadline confirmation ladder. A death with no suspicion
		// (cloud-level VM failure callback) has no in-model cause.
		cause, cat, detail := r.anStart, attrib.Unattributed, ""
		if r.detector != nil {
			trs := r.detector.Transitions()
			for i := len(trs) - 1; i >= 0; i-- {
				if trs[i].Node == w.name && trs[i].State == fault.Suspect {
					sus := ab.NodeAt(trs[i].At, "suspect")
					ab.Edge(r.anStart, sus, attrib.Unattributed, w.name)
					cause, cat, detail = sus, attrib.DetectionLatency, w.name
					break
				}
			}
		}
		r.anCause = ab.After(cause, cat, "worker-died", detail)
	}
	lost := r.repDropNode(w.name)
	if r.cfg.Durability != nil {
		for _, f := range lost {
			if f != commonFile && !r.sourceExists(f) {
				r.markFileLost(f)
			}
		}
	}
	if r.detector != nil {
		r.detector.Stop(w.name)
	}
	if r.repair != nil {
		r.repair.onWorkerDied(w)
	}
	for _, att := range attempts {
		delete(w.inflight, att.task)
		w.admitted--
		r.taskDone(w, att, false)
	}
	r.reassign(w)
	r.kickAll()
	r.checkDone()
}

// sortedInflight snapshots a worker's in-flight attempts in task order.
func sortedInflight(w *simWorker) []*taskAttempt {
	attempts := make([]*taskAttempt, 0, len(w.inflight))
	for _, att := range w.inflight {
		attempts = append(attempts, att)
	}
	sort.Slice(attempts, func(i, j int) bool { return attempts[i].task < attempts[j].task })
	return attempts
}

// reassign handles a dead worker's unstarted backlog.
func (r *Runner) reassign(w *simWorker) {
	if r.mf.deferring() {
		r.mf.enqueue(func() { r.reassign(w) })
		return
	}
	backlog := w.backlog
	w.backlog = nil
	for _, gi := range backlog {
		if !r.requeueLost(gi) {
			r.settle(Completion{Task: gi, Worker: w.name, End: r.eng.Now(), Attempt: r.retries[gi]})
		}
	}
	r.checkDone()
}

// checkDone finishes the run once every task is terminal, or abandons
// unreachable work when no worker can take it — dead and draining workers
// cannot, as in core.Master's stall check.
func (r *Runner) checkDone() {
	if r.done == nil {
		return
	}
	if r.mf.deferring() {
		// Nobody is watching the ledger; recovery re-checks.
		return
	}
	if r.terminal < len(r.wl.Tasks) {
		live := false
		for _, w := range r.workers {
			if !w.dead && !w.draining {
				live = true
				break
			}
		}
		if !live && len(r.queue) > 0 {
			queue := r.queue
			r.queue = nil
			for _, gi := range queue {
				if m := r.mf; m != nil && m.reQueuedDone[gi] {
					// An amnesia re-queue with no worker left to re-run it:
					// restore the belief, keep the historical completion.
					delete(m.reQueuedDone, gi)
					r.terminal++
					if r.cfg.Attrib.Enabled() {
						r.anLastTerminal = r.anCause
					}
					continue
				}
				r.settle(Completion{Task: gi, End: r.eng.Now(), Attempt: r.retries[gi]})
			}
		}
		if r.terminal < len(r.wl.Tasks) {
			return
		}
	}
	done := r.done
	r.done = nil
	r.finished = true
	if r.mf != nil {
		// Disarm the crash schedule and any pending recovery event so an
		// idle engine can drain.
		r.mf.stop()
		if r.mf.journaling() {
			// Every journaled run ends with a replay property check: the
			// reconstructed state must match both the shadow view and the
			// live replica map, whether or not a crash ever fired.
			if err := r.JournalCheck(); err != nil {
				panic(fmt.Sprintf("simrun: %v", err))
			}
		}
	}
	if r.repair != nil {
		// Disarm the repair ticker and cancel in-flight repairs so an idle
		// engine can drain.
		r.repair.stop()
	}
	if r.detector != nil {
		// Disarm watchdog timers so an idle engine can drain; heartbeat
		// loops stop themselves on r.finished.
		for _, w := range r.workers {
			r.detector.Stop(w.name)
		}
		r.res.Detections = r.detector.Transitions()
	}
	r.res.MakespanSec = float64(r.eng.Now() - r.startAt)
	if r.ctrl != nil {
		s := r.ctrl.cache.Stats()
		r.res.TemplateHits = s.Hits
		r.res.TemplateMisses = s.Misses
	}
	if ab := r.cfg.Attrib; ab.Enabled() {
		end := ab.After(r.anLastTerminal, attrib.Unattributed, "run-end", "")
		r.res.Attribution = ab.Solve(r.anStart, end)
	}
	r.cfg.Metrics.StopSampling()
	done(r.res)
}

// --- phase accounting ---

func (r *Runner) flowStarted() {
	if r.activeFlows == 0 {
		r.flowSince = r.eng.Now()
	}
	r.activeFlows++
}

func (r *Runner) flowEnded() {
	r.activeFlows--
	if r.activeFlows == 0 {
		r.res.TransferWallSec += float64(r.eng.Now() - r.flowSince)
	}
}

func (r *Runner) computeStarted() {
	if r.activeComputes == 0 {
		r.computeSince = r.eng.Now()
	}
	r.activeComputes++
}

func (r *Runner) computeEnded() {
	r.activeComputes--
	if r.activeComputes == 0 {
		r.res.ExecWallSec += float64(r.eng.Now() - r.computeSince)
	}
}

// --- trace lanes ---

// endTaskSpan closes an attempt's open compute span and frees its cpu lane.
func (r *Runner) endTaskSpan(w *simWorker, att *taskAttempt, outcome string) {
	if att.span == nil {
		return
	}
	att.span.End(obs.Args{"outcome": outcome})
	att.span = nil
	releaseLane(w.cpuLanes, att.lane)
}

// claimLane returns the smallest free lane index, growing the lane set on
// demand. Lanes exist so overlapping spans on one worker land on distinct
// trace tracks, which viewers require for valid nesting.
func claimLane(lanes *[]bool) int {
	for i, busy := range *lanes {
		if !busy {
			(*lanes)[i] = true
			return i
		}
	}
	*lanes = append(*lanes, true)
	return len(*lanes) - 1
}

// releaseLane frees a claimed lane.
func releaseLane(lanes []bool, i int) { lanes[i] = false }

// --- helpers ---

// tasksAsGroups adapts TaskSpecs to partition.Groups for the assigners.
func tasksAsGroups(tasks []TaskSpec) []partition.Group {
	out := make([]partition.Group, len(tasks))
	for i, t := range tasks {
		out[i] = partition.Group{Index: i, Files: t.Files}
	}
	return out
}

// uniqueFiles collects the distinct files of the given task indices in
// first-use order.
func uniqueFiles(tasks []TaskSpec, idx []int) []catalog.FileMeta {
	seen := make(map[string]bool)
	var out []catalog.FileMeta
	for _, gi := range idx {
		for _, f := range tasks[gi].Files {
			if !seen[f.Name] {
				seen[f.Name] = true
				out = append(out, f)
			}
		}
	}
	return out
}

// allIndices returns 0..n-1.
func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
