package simrun

import (
	"testing"

	"frieda/internal/sim"
	"frieda/internal/strategy"
)

const mib = 1 << 20

// A pre-partitioned worker lost after staging: its share requeues to the
// survivor, which fetches each re-run group's input before running it.
func TestPrePartitionRequeueFetchesInputs(t *testing.T) {
	eng, cluster, vms := newTestCluster(t, 1)
	cfg := Config{Strategy: strategy.PrePartitionedRemote, Recover: true, MaxRetries: 3}
	wl := Workload{Name: "requeue", Tasks: uniformTasks(30, 1.0, mib)}
	r, err := NewRunner(cluster, vms[0], cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	r.AddWorker(vms[1])
	r.AddWorker(vms[2])
	eng.Schedule(3.5, func() { cluster.Fail(vms[1]) })
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded != 30 {
		t.Fatalf("recovery incomplete: %+v", res)
	}
	// The round-robin deal in registration order gave vms[1] the even
	// tasks; each one the survivor ran was fetched once more.
	rerun := 0
	for _, c := range res.Completions {
		if c.OK && c.Worker == vms[2].Name() && c.Task%2 == 0 {
			rerun++
		}
	}
	if rerun == 0 {
		t.Fatal("the survivor re-ran none of the lost share")
	}
	t.Logf("the survivor re-ran %d of the lost share; %v MiB moved", rerun, res.BytesMoved/mib)
	if want := float64((30 + rerun) * mib); res.BytesMoved != want {
		t.Fatalf("moved %v MiB, want the 30 MiB staged and the %d re-run inputs", res.BytesMoved/mib, rerun)
	}
}

// A worker that joins during a no-partition staging phase starts nothing
// before the phase ends, then fetches the inputs of what it runs.
func TestStagingJoinerWaitsThenFetches(t *testing.T) {
	eng, cluster, vms := newTestCluster(t, 1)
	cfg := Config{Strategy: strategy.CommonData}
	wl := Workload{Name: "joiner", Tasks: uniformTasks(20, 1.0, mib)}
	r, err := NewRunner(cluster, vms[0], cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	r.AddWorker(vms[1])
	eng.Schedule(0.5, func() { r.AddWorker(vms[2]) })
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded != 20 {
		t.Fatalf("result %+v", res)
	}
	ran := 0
	for _, c := range res.Completions {
		if c.Worker != vms[2].Name() {
			continue
		}
		ran++
		if float64(c.Start) < res.StagingPhaseSec {
			t.Fatalf("the joiner started task %d at %.3fs, inside the %.3fs staging phase", c.Task, c.Start, res.StagingPhaseSec)
		}
	}
	if ran == 0 {
		t.Fatal("the joiner ran nothing")
	}
	if want := float64((20 + ran) * mib); res.BytesMoved != want {
		t.Fatalf("moved %v MiB, want the 20 MiB staged and the joiner's %d inputs", res.BytesMoved/mib, ran)
	}
}

// A drained worker is released — dead to the ledger, out of the live count —
// by the settle that empties it, not before. At a window of one group per
// slot it holds one group when it drains.
func TestDrainReleasesWorker(t *testing.T) {
	eng, cluster, vms := newTestCluster(t, 1)
	r, err := NewRunner(cluster, vms[0], Config{
		Strategy: strategy.Config{Kind: strategy.RealTime, Prefetch: 1},
	}, Workload{Name: "drain", Tasks: uniformTasks(30, 1.0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range vms[1:] {
		r.AddWorker(vm)
	}
	var victim *simWorker
	eng.Schedule(3.5, func() {
		if err := r.DrainWorker(); err != nil {
			t.Fatalf("drain: %v", err)
		}
		for _, w := range r.workers {
			if w.Draining {
				victim = w
			}
		}
		if victim.Dead || len(victim.InFlight()) != 1 {
			t.Fatalf("released at the drain with %d in flight", len(victim.InFlight()))
		}
		if r.LiveWorkers() != 2 {
			t.Fatalf("%d live workers after the drain, want 2", r.LiveWorkers())
		}
	})
	// Every one-slot worker started a one-second task at 3 s.
	eng.Schedule(sim.Duration(4.5), func() {
		if !victim.Dead || len(victim.InFlight()) != 0 {
			t.Fatalf("not released once its task settled: dead %v, %d in flight", victim.Dead, len(victim.InFlight()))
		}
	})
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded != 30 {
		t.Fatalf("drain lost work: %+v", res)
	}
	if n := res.PerWorker[victim.name]; n != 4 {
		t.Fatalf("the drained worker ran %d tasks, want the 4 it started by 3.5 s", n)
	}
}
