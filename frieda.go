// Package frieda is a Go implementation of FRIEDA — Flexible Robust
// Intelligent Elastic Data Management in Cloud Environments (Ghoshal &
// Ramakrishnan, SC 2012 companion).
//
// FRIEDA runs unmodified data-parallel programs over transient cloud
// resources while giving the application control over how input data is
// partitioned, placed and moved. A control-plane controller configures an
// execution-plane master and symmetric workers; the master partitions the
// input file list (single / one-to-all / pairwise-adjacent / all-to-all
// groupings), moves payloads, and farms out executions under one of three
// strategies: no-partitioning (full replication), pre-partitioning (strict
// transfer-then-execute phases) or real-time (lazy pull, inherently
// load-balanced, transfer overlapped with computation).
//
// Two entry points cover the two ways to use the library:
//
//   - Run deploys a real controller/master/worker ensemble (in-process
//     goroutines over channels, or across machines via TCP) and executes a
//     real program — a Go function or an external command template such as
//     {"blastp", "-query", "$inp1"}.
//
//   - Simulate replays the same strategy logic on a virtual-time cluster
//     model (flow-level network, storage tiers, failure injection) to
//     explore strategy choices at paper scale in milliseconds; this is the
//     engine behind the reproduction of the paper's Table I and Figures
//     6–7 (see cmd/friedabench).
package frieda

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"

	"frieda/internal/catalog"
	"frieda/internal/core"
	"frieda/internal/history"
	"frieda/internal/strategy"
	"frieda/internal/transport"
)

// Strategy configures data management; see the strategy presets.
type Strategy = strategy.Config

// Re-exported strategy vocabulary.
type (
	// Kind is the partitioning mode (NoPartition, PrePartition, RealTime).
	Kind = strategy.Kind
	// Locality says whether data starts remote or node-local.
	Locality = strategy.Locality
	// Placement is the data-vs-computation movement direction.
	Placement = strategy.Placement
)

// Strategy enum values.
const (
	NoPartition  = strategy.NoPartition
	PrePartition = strategy.PrePartition
	RealTime     = strategy.RealTime

	Remote = strategy.Remote
	Local  = strategy.Local

	DataToCompute = strategy.DataToCompute
	ComputeToData = strategy.ComputeToData
)

// Strategy presets from the paper's evaluation.
var (
	// PrePartitionedLocal computes where the data already lives (Fig. 5b).
	PrePartitionedLocal = strategy.PrePartitionedLocal
	// PrePartitionedRemote transfers each partition up front, then
	// executes (Fig. 5a).
	PrePartitionedRemote = strategy.PrePartitionedRemote
	// RealTimeRemote distributes lazily on worker request (Fig. 5c). Its
	// Prefetch of 0 lets the master size the window as the job runs: from
	// one group in flight per worker slot, doubled while the job's
	// completions per second rise, up to strategy.PipelineBytes (1 MiB) of
	// input and strategy.MaxAutoPrefetch (64) groups per slot, fewer on a
	// short job (strategy.AutoCeiling). So a worker runs its next groups
	// while the master hears of the last, and a job's last groups still go
	// out one per free slot. A job whose groups hold more than half of
	// PipelineBytes each keeps one per slot. Set Prefetch to 1 for the
	// paper's strict request-one-get-one.
	RealTimeRemote = strategy.RealTimeRemote
	// CommonData replicates the full dataset to every node.
	CommonData = strategy.CommonData
)

// Task, Program and store types for in-process programs.
type (
	// Task is one execution unit handed to a Program.
	Task = core.Task
	// Program executes one task; FuncProgram and ExecProgram implement it.
	Program = core.Program
	// FuncProgram adapts a Go function to Program.
	FuncProgram = core.FuncProgram
	// ExecProgram runs an external command template with $inpN bindings.
	ExecProgram = core.ExecProgram
	// Report summarises a finished run.
	Report = core.Report
	// Store is a worker-side file repository; NewMemStore and NewDirStore
	// build the two implementations.
	Store = core.Store
)

// Store constructors, re-exported for output sinks and custom workers.
var (
	// NewMemStore returns an in-memory store.
	NewMemStore = core.NewMemStore
)

// NewDirStore returns a disk-backed store rooted at dir.
func NewDirStore(dir string) (Store, error) { return core.NewDirStore(dir) }

// Dataset is an input collection: Run serves its bytes, Simulate its sizes.
type Dataset struct {
	source catalog.Source
}

// DirDataset serves the files under root (the paper's input directory).
func DirDataset(root string) Dataset {
	return Dataset{source: catalog.NewDirSource(root)}
}

// MemDataset serves in-memory files; convenient for tests and generators.
// The bytes are not copied: the dataset keeps them, and the workers'
// in-memory stores share them, so they must not be modified while Run runs.
func MemDataset(files map[string][]byte) Dataset {
	src := catalog.NewMemSource()
	for name, data := range files {
		src.Put(name, data)
	}
	return Dataset{source: src}
}

// SizedDataset lists files by name and size alone, in name order: Simulate
// charges their sizes, Run refuses it with ErrSizesOnly. Simulate refuses an
// empty name, a negative size or a name given twice with catalog's error.
func SizedDataset(files ...FileMeta) Dataset {
	return Dataset{source: catalog.NewSizedSource(files)}
}

// ErrSizesOnly is Run's refusal of a SizedDataset: it has no bytes to send.
var ErrSizesOnly = errors.New("frieda: a sizes-only dataset has no bytes to run")

// RunConfig describes one deployment.
type RunConfig struct {
	// Strategy selects the data-management behaviour. The zero value is
	// no-partition (the full dataset on every worker), remote,
	// data-to-compute, one file per task.
	Strategy Strategy
	// Dataset is the input collection. Required, and not a SizedDataset.
	Dataset Dataset
	// Program runs tasks in-process. Exactly one of Program/Template is
	// required.
	Program Program
	// Template is the execution syntax for external programs, e.g.
	// {"app", "arg1", "$inp1"}. Workers bind $inpN to received file paths.
	Template []string
	// Workers is the worker-node count (required, >= 1).
	Workers int
	// CoresPerWorker models the node core count (default 4, the paper's
	// c1.xlarge).
	CoresPerWorker int
	// WorkDir, when set, gives each worker a disk-backed store under
	// WorkDir/<name> (required for Template programs). Empty means
	// in-memory stores.
	WorkDir string
	// ThrottleBytesPerSec, when > 0, rate-limits all in-memory transport
	// links through one shared token bucket — emulating the paper's
	// provisioned 100 Mbps uplink at laptop scale.
	ThrottleBytesPerSec float64
	// Recover enables failed-task requeue (the paper's future-work
	// recovery); off, failed workers are isolated only.
	Recover bool
	// MaxRetries bounds per-group retries under Recover (default 2).
	MaxRetries int
	// OutputSink, when set, collects result files programs register with
	// Task.AddOutput — the paper's "results transferred to the master"
	// option. Nil leaves outputs on the workers (the evaluated setup).
	OutputSink Store
}

// Run deploys controller, master and workers in-process and executes the
// workload to completion.
func Run(ctx context.Context, cfg RunConfig) (Report, error) {
	if cfg.Dataset.source == nil {
		return Report{}, fmt.Errorf("frieda: RunConfig needs a Dataset")
	}
	if _, ok := cfg.Dataset.source.(*catalog.SizedSource); ok {
		return Report{}, ErrSizesOnly
	}
	if (cfg.Program == nil) == (len(cfg.Template) == 0) {
		return Report{}, fmt.Errorf("frieda: exactly one of Program or Template is required")
	}
	if cfg.Workers < 1 {
		return Report{}, fmt.Errorf("frieda: %d workers", cfg.Workers)
	}
	if cfg.CoresPerWorker == 0 {
		cfg.CoresPerWorker = 4
	}
	if cfg.CoresPerWorker < 1 {
		return Report{}, fmt.Errorf("frieda: %d cores per worker", cfg.CoresPerWorker)
	}
	var limiter *transport.Limiter
	if cfg.ThrottleBytesPerSec > 0 {
		limiter = transport.NewLimiter(cfg.ThrottleBytesPerSec, cfg.ThrottleBytesPerSec/4)
	}
	tr := transport.NewMem(limiter)

	ctl, err := core.NewController(core.ControllerConfig{
		Strategy:        cfg.Strategy,
		Template:        cfg.Template,
		Transport:       tr,
		MasterAddr:      "frieda-master",
		InProcessMaster: true,
		Master: core.MasterConfig{
			Source:     cfg.Dataset.source,
			Recover:    cfg.Recover,
			MaxRetries: cfg.MaxRetries,
			OutputSink: cfg.OutputSink,
		},
		Workers: cfg.Workers,
	})
	if err != nil {
		return Report{}, err
	}
	if err := ctl.Start(ctx); err != nil {
		return Report{}, err
	}
	for i := 0; i < cfg.Workers; i++ {
		name := fmt.Sprintf("w%d", i)
		var store core.Store
		if cfg.WorkDir != "" {
			store, err = core.NewDirStore(filepath.Join(cfg.WorkDir, name))
			if err != nil {
				return Report{}, err
			}
		} else {
			store = core.NewMemStore()
		}
		if _, err := ctl.SpawnWorker(ctx, core.WorkerConfig{
			Name:    name,
			Cores:   cfg.CoresPerWorker,
			Store:   store,
			Program: cfg.Program,
		}); err != nil {
			return Report{}, err
		}
	}
	report, err := ctl.Wait(ctx)
	if err != nil {
		return Report{}, err
	}
	if serr := ctl.Shutdown(); serr != nil && err == nil {
		// Shutdown failures after a successful run are advisory.
		report.WorkerErrors = append(report.WorkerErrors, "shutdown: "+serr.Error())
	}
	return report, nil
}

// Advise recommends a strategy for a workload profile on a cluster profile
// — the controller "intelligence" the paper's future work describes.
func Advise(totalInputBytes, totalComputeSec, costVariance float64, dataResident bool,
	workers, slotsPerNode int, uplinkBps float64) (string, string, Strategy) {
	rec, cfg := history.Model(
		history.WorkloadProfile{
			TotalInputBytes:       totalInputBytes,
			TotalComputeSec:       totalComputeSec,
			CostVariance:          costVariance,
			DataResidentOnWorkers: dataResident,
		},
		history.ClusterProfile{Workers: workers, SlotsPerNode: slotsPerNode, UplinkBps: uplinkBps},
	)
	return rec.Strategy, rec.Reason, cfg
}
