package frieda

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"frieda/internal/catalog"
	"frieda/internal/cloud"
	"frieda/internal/partition"
	"frieda/internal/sched"
	"frieda/internal/sim"
	"frieda/internal/simrun"
)

// Simulation types, re-exported for the public API.
type (
	// SimTask is one simulated task (inputs + single-core compute cost).
	SimTask = simrun.TaskSpec
	// SimWorkload is a simulated task collection.
	SimWorkload = simrun.Workload
	// SimResult is a simulated run's outcome.
	SimResult = simrun.Result
	// FileMeta names and sizes one input file.
	FileMeta = catalog.FileMeta
)

// SimConfig describes a virtual-time experiment.
type SimConfig struct {
	// Strategy is the data-management strategy under test.
	Strategy Strategy
	// Workers is the compute-VM count (default 4, the paper's slice).
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

// Simulate runs the workload on a simulated cluster and returns the
// result. The data source (and master) occupy a dedicated node whose
// uplink models the paper's provisioned 100 Mbps.
func Simulate(cfg SimConfig, wl SimWorkload) (SimResult, error) {
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	if cfg.Workers < 1 {
		return SimResult{}, fmt.Errorf("frieda: %d workers", cfg.Workers)
	}
	if cfg.Instance.Cores == 0 {
		cfg.Instance = cloud.C1XLarge
	}
	if err := cfg.validateTimes(); err != nil {
		return SimResult{}, err
	}
	if err := sched.CheckSlots(cfg.Strategy.Slots(cfg.Instance.Cores)); err != nil {
		return SimResult{}, fmt.Errorf("frieda: instance %s: %w", cfg.Instance.Name, err)
	}
	eng := sim.NewEngine()
	cluster := cloud.New(eng, cloud.Options{
		Seed:           cfg.Seed,
		InstantBoot:    true,
		FailureMTBFSec: cfg.FailureMTBFSec,
	})
	extra := len(cfg.AddWorkerAtSec)
	vms, err := cluster.Provision(cfg.Workers+1+extra, cfg.Instance)
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

// validateTimes rejects scripted times the simulator cannot schedule and a
// negative failure rate, before anything is scheduled.
func (cfg SimConfig) validateTimes() error {
	if cfg.FailureMTBFSec < 0 || math.IsNaN(cfg.FailureMTBFSec) {
		return fmt.Errorf("frieda: FailureMTBFSec %v is not a rate (0 disables failures)", cfg.FailureMTBFSec)
	}
	for wi, at := range cfg.FailAtSec {
		if wi < 0 || wi >= cfg.Workers {
			return fmt.Errorf("frieda: FailAtSec index %d out of range", wi)
		}
		if at < 0 || math.IsNaN(at) {
			return fmt.Errorf("frieda: FailAtSec[%d] = %v is not a time", wi, at)
		}
	}
	for i, at := range cfg.AddWorkerAtSec {
		if at < 0 || math.IsNaN(at) {
			return fmt.Errorf("frieda: AddWorkerAtSec[%d] = %v is not a time", i, at)
		}
	}
	return nil
}

// GroupedSimWorkload builds tasks by running the named partition grouping
// ("single", "one-to-all", "pairwise-adjacent", "all-to-all",
// "sliding-window") over a synthetic file list — the same generator the
// real master uses, so simulated runs mirror real ones group for group.
func GroupedSimWorkload(name, grouping string, files int, fileBytes int64, computeSec float64) (SimWorkload, error) {
	gen, err := partition.ByName(grouping)
	if err != nil {
		return SimWorkload{}, err
	}
	cat := catalog.New()
	for i := 0; i < files; i++ {
		cat.MustAdd(catalog.FileMeta{Name: fmt.Sprintf("%s-%05d", name, i), Size: fileBytes})
	}
	groups, err := gen.Generate(cat)
	if err != nil {
		return SimWorkload{}, err
	}
	tasks := make([]SimTask, len(groups))
	for i, g := range groups {
		tasks[i] = SimTask{Index: g.Index, Files: g.Files, ComputeSec: computeSec}
	}
	return SimWorkload{Name: name, Tasks: tasks}, nil
}

// UniformSimWorkload builds n tasks of identical compute cost, each with
// one input file of the given size — a convenient synthetic workload for
// strategy exploration.
func UniformSimWorkload(name string, n int, computeSec float64, fileBytes int64) SimWorkload {
	tasks := make([]SimTask, n)
	for i := range tasks {
		tasks[i] = SimTask{
			Index:      i,
			Files:      []FileMeta{{Name: fmt.Sprintf("%s-%05d", name, i), Size: fileBytes}},
			ComputeSec: computeSec,
		}
	}
	return SimWorkload{Name: name, Tasks: tasks}
}
