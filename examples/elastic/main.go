// Elastic demonstrates FRIEDA's elasticity on the virtual-time simulator:
// the same workload run on a fixed two-node cluster, with workers added
// mid-run through the controller (the paper's Section V-A mechanism), and
// under the watermark autoscaler this repository adds as the announced
// future work ("make addition and removal of workers transparent to the
// user").
//
//	go run ./examples/elastic
package main

import (
	"fmt"
	"log"
	"maps"
	"slices"

	"frieda"
	"frieda/internal/cloud"
	"frieda/internal/elastic"
	"frieda/internal/sim"
	"frieda/internal/simrun"
	"frieda/internal/strategy"
)

func main() {
	files := make([]frieda.FileMeta, 200)
	for i := range files {
		files[i] = frieda.FileMeta{Name: fmt.Sprintf("analysis-%05d", i), Size: 2_000_000}
	}
	job := frieda.SimConfig{
		Strategy:   frieda.RealTimeRemote,
		Dataset:    frieda.SizedDataset(files...),
		ComputeSec: 4.0,
		Workers:    2,
	}

	// Baseline: two workers for the whole run.
	base, err := frieda.Simulate(job)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fixed 2 workers:            %7.1fs makespan\n", base.MakespanSec)

	// Elastic: two more VMs join a third of the way in. Real-time
	// partitioning gives them work immediately — no reconfiguration.
	job.AddWorkerAtSec = []float64{base.MakespanSec / 3, base.MakespanSec / 3}
	grown, err := frieda.Simulate(job)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("2 workers + 2 added later:  %7.1fs makespan (%.0f%% faster)\n",
		grown.MakespanSec, 100*(1-grown.MakespanSec/base.MakespanSec))
	for _, worker := range slices.Sorted(maps.Keys(grown.PerWorker)) {
		fmt.Printf("  %-8s executed %d tasks\n", worker, grown.PerWorker[worker])
	}

	// Fully transparent elasticity: the watermark autoscaler watches queue
	// depth and utilisation and sizes the fleet itself.
	fmt.Println()
	auto, decisions, err := autoscaledRun(files)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("autoscaler (1→max 6):       %7.1fs makespan, %d scaling action(s)\n",
		auto.MakespanSec, decisions)

	// Scale-in the other direction: a worker leaves gracefully mid-run
	// (drained through the controller, its queue absorbed by the rest).
	fmt.Println()
	fmt.Println("the real runtime drains workers the same way:")
	fmt.Println("  frieda-controller -master host:7001 -remove vm-2")
}

// autoscaledRun executes the same task mix, one 2 MB input and 4 s of
// compute per task, starting from one worker with the autoscaler deciding
// the fleet size.
func autoscaledRun(files []frieda.FileMeta) (simrun.Result, int, error) {
	eng := sim.NewEngine()
	cluster := cloud.New(eng, cloud.Options{Seed: 1, InstantBoot: true})
	vms, err := cluster.Provision(2, cloud.C1XLarge) // source + first worker
	if err != nil {
		return simrun.Result{}, 0, err
	}
	eng.RunUntil(eng.Now())
	tasks := make([]simrun.TaskSpec, len(files))
	for i := range tasks {
		tasks[i] = simrun.TaskSpec{Index: i, Files: files[i : i+1], ComputeSec: 4.0}
	}
	runner, err := simrun.NewRunner(cluster, vms[0], simrun.Config{
		Strategy: strategy.Config{Kind: strategy.RealTime, Multicore: true},
	}, simrun.Workload{Name: "auto", Tasks: tasks})
	if err != nil {
		return simrun.Result{}, 0, err
	}
	runner.AddWorker(vms[1])
	scaler, err := elastic.NewAutoscaler(eng,
		elastic.Policy{MinWorkers: 1, MaxWorkers: 6, CooldownSec: 15},
		&simrun.ScalerActions{Cluster: cluster, Runner: runner, Instance: cloud.C1XLarge},
		10)
	if err != nil {
		return simrun.Result{}, 0, err
	}
	scaler.Start()
	var res simrun.Result
	finished := false
	if err := runner.Start(func(r simrun.Result) {
		res = r
		finished = true
		scaler.Stop()
	}); err != nil {
		return simrun.Result{}, 0, err
	}
	for !finished && eng.Step() {
	}
	return res, len(scaler.Decisions), nil
}
