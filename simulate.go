package frieda

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"frieda/internal/catalog"
	"frieda/internal/cloud"
	"frieda/internal/sched"
	"frieda/internal/sim"
	"frieda/internal/simrun"
)

// Simulation types, re-exported for the public API.
type (
	// SimResult is a simulated run's outcome.
	SimResult = simrun.Result
	// FileMeta names and sizes one input file.
	FileMeta = catalog.FileMeta
)

// SimConfig describes a virtual-time experiment: Run's job, costed by group.
type SimConfig struct {
	// Strategy is the data-management strategy under test, read as Run reads it.
	Strategy Strategy
	// Dataset is the input collection. Required; a SizedDataset will do.
	Dataset Dataset
	// ComputeSec is each group's compute time on one core.
	ComputeSec float64
	// Workers is the compute-VM count (required, >= 1).
	Workers int
	// Instance is the VM flavour (default cloud.C1XLarge: 4 cores, 4 GB,
	// 100 Mbps).
	Instance cloud.InstanceType
	// Seed drives boot latency and failure draws.
	Seed int64
	// FailureMTBFSec > 0 injects exponential VM failures.
	FailureMTBFSec float64
	// Recover requeues failed work (paper future work); off = isolation
	// only (published behaviour).
	Recover bool
	// MaxRetries bounds per-task retries under Recover.
	MaxRetries int
	// DisableDiskModel skips local-disk read/write charging.
	DisableDiskModel bool
	// FailAtSec schedules scripted failures: worker index -> virtual time.
	FailAtSec map[int]float64
	// AddWorkerAtSec schedules elastic additions at the given virtual
	// times (each adds one VM of the same instance type).
	AddWorkerAtSec []float64
}

// Simulate runs the job on a simulated cluster: the groups the real master
// would run (the strategy's grouping over the catalogue less the common
// files, which every node stages), from a data source and master on a node
// whose uplink models the paper's provisioned 100 Mbps.
func Simulate(cfg SimConfig) (SimResult, error) {
	if err := cfg.validate(); err != nil {
		return SimResult{}, err
	}
	if cfg.Instance.Cores == 0 {
		cfg.Instance = cloud.C1XLarge
	}
	if err := sched.CheckSlots(cfg.Strategy.Slots(cfg.Instance.Cores)); err != nil {
		return SimResult{}, fmt.Errorf("frieda: instance %s: %w", cfg.Instance.Name, err)
	}
	cat, err := cfg.Dataset.source.Catalog()
	if err != nil {
		return SimResult{}, err
	}
	groups, err := cfg.Strategy.Groups(cat)
	if err != nil {
		return SimResult{}, err
	}
	wl := simrun.Workload{Name: cfg.Strategy.String(), Tasks: make([]simrun.TaskSpec, len(groups))}
	for i, g := range groups {
		wl.Tasks[i] = simrun.TaskSpec{Index: g.Index, Files: g.Files, ComputeSec: cfg.ComputeSec}
	}
	// Each common file counts once. Under Remote one the dataset lacks is an
	// error, as to the real master's staging; a Local one is in place already.
	for _, name := range slices.Compact(slices.Sorted(slices.Values(cfg.Strategy.CommonFiles))) {
		f, ok := cat.Get(name)
		if !ok && cfg.Strategy.Locality == Remote {
			return SimResult{}, fmt.Errorf("frieda: common file %q is not in the dataset", name)
		}
		wl.CommonBytes += float64(f.Size)
	}
	eng := sim.NewEngine()
	cluster := cloud.New(eng, cloud.Options{
		Seed:           cfg.Seed,
		InstantBoot:    true,
		FailureMTBFSec: cfg.FailureMTBFSec,
	})
	vms, err := cluster.Provision(cfg.Workers+1+len(cfg.AddWorkerAtSec), cfg.Instance)
	if err != nil {
		return SimResult{}, err
	}
	eng.RunUntil(eng.Now())

	runner, err := simrun.NewRunner(cluster, vms[0], simrun.Config{
		Strategy:    cfg.Strategy,
		Recover:     cfg.Recover,
		MaxRetries:  cfg.MaxRetries,
		ModelDiskIO: !cfg.DisableDiskModel,
	}, wl)
	if err != nil {
		return SimResult{}, err
	}
	for _, vm := range vms[1 : 1+cfg.Workers] {
		runner.AddWorker(vm)
	}
	// Failures at the same instant fire in scheduling order, so schedule
	// them in worker-index order, not the map's.
	for _, wi := range slices.Sorted(maps.Keys(cfg.FailAtSec)) {
		vm := vms[1+wi]
		eng.At(sim.Time(cfg.FailAtSec[wi]), func() { cluster.Fail(vm) })
	}
	for i, at := range cfg.AddWorkerAtSec {
		vm := vms[1+cfg.Workers+i]
		eng.At(sim.Time(at), func() { runner.AddWorker(vm) })
	}
	return runner.Run()
}

// validate refuses, before anything is scheduled, a job the simulator
// cannot run, and a strategy Validate refuses with Validate's error, as Run
// does.
func (cfg SimConfig) validate() error {
	notTime := func(x float64) bool { return !(x >= 0) } // negative or NaN
	switch {
	case cfg.Dataset.source == nil:
		return fmt.Errorf("frieda: SimConfig needs a Dataset")
	case cfg.Workers < 1:
		return fmt.Errorf("frieda: %d workers", cfg.Workers)
	case notTime(cfg.ComputeSec) || math.IsInf(cfg.ComputeSec, 1):
		return fmt.Errorf("frieda: ComputeSec %v is not a duration", cfg.ComputeSec)
	case notTime(cfg.FailureMTBFSec):
		return fmt.Errorf("frieda: FailureMTBFSec %v is not a rate (0 disables failures)", cfg.FailureMTBFSec)
	case slices.ContainsFunc(cfg.AddWorkerAtSec, notTime):
		return fmt.Errorf("frieda: AddWorkerAtSec %v holds a time that is negative or NaN", cfg.AddWorkerAtSec)
	}
	for wi, at := range cfg.FailAtSec {
		if wi < 0 || wi >= cfg.Workers || notTime(at) {
			return fmt.Errorf("frieda: FailAtSec[%d] = %v is not a worker's failure time", wi, at)
		}
	}
	return cfg.Strategy.Validate()
}
