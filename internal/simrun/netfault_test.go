package simrun

import (
	"math"
	"testing"

	"frieda/internal/cloud"
	"frieda/internal/fault"
	"frieda/internal/netsim"
	"frieda/internal/sim"
	"frieda/internal/strategy"
)

// rtRemote is the real-time pull strategy with remote data, the one path
// that fetches per task.
func rtRemote() Config {
	return Config{Strategy: strategy.RealTimeRemote}
}

// failWindow fails both of the VM's links over [from, to).
func failWindow(eng *sim.Engine, cluster *cloud.Cluster, vm *cloud.VM, from, to float64) {
	net := cluster.Network()
	eng.At(sim.Time(from), func() {
		net.FailLink(vm.Host().Up())
		net.FailLink(vm.Host().Down())
	})
	eng.At(sim.Time(to), func() {
		net.RestoreLink(vm.Host().Up())
		net.RestoreLink(vm.Host().Down())
	})
}

func TestTransferResumesFromOffsetAfterLinkFault(t *testing.T) {
	eng, cluster, vms := newTestCluster(t, 1)
	// One task, one 125 MB file: 10 s over the 100 Mbps path unfaulted.
	cfg := rtRemote()
	cfg.NetFaults = &NetFaultConfig{Resume: true}
	wl := Workload{Name: "one", Tasks: uniformTasks(1, 1.0, 125e6)}
	// The worker partitions at 2 s (25 MB delivered) and heals at 5 s.
	failWindow(eng, cluster, vms[1], 2, 5)
	res := runOn(t, cluster, vms[0], vms[1:2], cfg, wl)
	if res.Succeeded != 1 {
		t.Fatalf("result %+v", res)
	}
	if res.TransferInterrupts < 1 || res.TransferRetries < 1 {
		t.Fatalf("interrupts=%d retries=%d, want >=1 each", res.TransferInterrupts, res.TransferRetries)
	}
	// Resume re-sends only the missing 100 MB: total payload stays 125 MB.
	if math.Abs(res.BytesMoved-125e6) > 1 {
		t.Fatalf("BytesMoved = %v, want 125e6 (resumed from offset)", res.BytesMoved)
	}
	// 10 s of transfer + ~3 s outage + backoff; generous upper bound.
	if res.MakespanSec < 13 || res.MakespanSec > 25 {
		t.Fatalf("makespan = %v", res.MakespanSec)
	}
}

func TestRetryWithoutResumeResendsFromZero(t *testing.T) {
	eng, cluster, vms := newTestCluster(t, 1)
	cfg := rtRemote()
	cfg.NetFaults = &NetFaultConfig{Resume: false}
	wl := Workload{Name: "one", Tasks: uniformTasks(1, 1.0, 125e6)}
	failWindow(eng, cluster, vms[1], 2, 5)
	res := runOn(t, cluster, vms[0], vms[1:2], cfg, wl)
	if res.Succeeded != 1 {
		t.Fatalf("result %+v", res)
	}
	// Restart-from-zero pays the 25 MB delivered before the fault again.
	if math.Abs(res.BytesMoved-150e6) > 1 {
		t.Fatalf("BytesMoved = %v, want 150e6 (restarted from zero)", res.BytesMoved)
	}
}

func TestLinkFaultWithoutRetryAbandonsTask(t *testing.T) {
	eng, cluster, vms := newTestCluster(t, 1)
	cfg := rtRemote() // NetFaults nil: the prototype's fatal broken stream
	wl := Workload{Name: "one", Tasks: uniformTasks(1, 1.0, 125e6)}
	eng.At(2, func() { cluster.Network().FailLink(vms[1].Host().Down()) })
	res := runOn(t, cluster, vms[0], vms[1:2], cfg, wl)
	if res.Succeeded != 0 || res.Abandoned != 1 {
		t.Fatalf("result %+v", res)
	}
	if res.TransferInterrupts != 1 {
		t.Fatalf("interrupts = %d, want 1", res.TransferInterrupts)
	}
}

func TestTransferRetriesExhaustBudget(t *testing.T) {
	eng, cluster, vms := newTestCluster(t, 1)
	cfg := rtRemote()
	cfg.NetFaults = &NetFaultConfig{Resume: true}
	wl := Workload{Name: "one", Tasks: uniformTasks(1, 1.0, 125e6)}
	// Permanent partition: attempts 2..maxTransferAttempts are rejected at
	// join time, then the transfer gives up and the task is abandoned (no
	// Recover).
	eng.At(2, func() { cluster.Network().FailLink(vms[1].Host().Down()) })
	res := runOn(t, cluster, vms[0], vms[1:2], cfg, wl)
	if res.Succeeded != 0 || res.Abandoned != 1 {
		t.Fatalf("result %+v", res)
	}
	if res.TransferInterrupts != maxTransferAttempts || res.TransferRetries != maxTransferAttempts-1 {
		t.Fatalf("interrupts=%d retries=%d, want %d/%d", res.TransferInterrupts, res.TransferRetries,
			maxTransferAttempts, maxTransferAttempts-1)
	}
}

func TestDetectionShortPartitionSuspectsAndRecovers(t *testing.T) {
	eng, cluster, vms := newTestCluster(t, 1)
	// Zero-byte input: the single 60 s task fetches instantly at t=0, so
	// only heartbeats cross the network during the partition. Beats every
	// 5 s against a 15 s deadline: the last beat before the partition lands
	// at 5, the 20 s deadline passes in silence, the beat at 30 gets through.
	cfg := rtRemote()
	cfg.Detection = &DetectionConfig{K: 3}
	wl := Workload{Name: "cpu", Tasks: uniformTasks(1, 60, 0)}
	failWindow(eng, cluster, vms[1], 6, 28)
	res := runOn(t, cluster, vms[0], vms[1:2], cfg, wl)
	if res.Succeeded != 1 {
		t.Fatalf("short partition killed the task: %+v", res)
	}
	var suspects, recovers, declares int
	for _, tr := range res.Detections {
		switch tr.State {
		case fault.Suspect:
			suspects++
		case fault.Alive:
			recovers++
		case fault.Declared:
			declares++
		}
	}
	if suspects == 0 || recovers == 0 {
		t.Fatalf("transitions %v: want suspect and recover", res.Detections)
	}
	if declares != 0 {
		t.Fatalf("K=3 declared during a %vs partition: %v", 22, res.Detections)
	}
}

func TestDetectionBinaryDetectorDeclaresOnSamePartition(t *testing.T) {
	eng, cluster, vms := newTestCluster(t, 1)
	cfg := rtRemote()
	cfg.Detection = &DetectionConfig{K: 1}
	wl := Workload{Name: "cpu", Tasks: uniformTasks(1, 60, 0)}
	failWindow(eng, cluster, vms[1], 6, 28)
	res := runOn(t, cluster, vms[0], vms[1:2], cfg, wl)
	if res.Succeeded != 0 || res.Abandoned != 1 {
		t.Fatalf("K=1 survived the partition: %+v", res)
	}
	declared := false
	for _, tr := range res.Detections {
		if tr.State == fault.Declared {
			declared = true
		}
	}
	if !declared {
		t.Fatal("no Declared transition recorded")
	}
}

func TestBestSourcePrefersHealthyReplica(t *testing.T) {
	_, cluster, vms := newTestCluster(t, 1)
	cfg := rtRemote()
	cfg.NetFaults = &NetFaultConfig{Resume: true}
	r, err := NewRunner(cluster, vms[0], cfg, Workload{Name: "x", Tasks: uniformTasks(2, 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	w0 := r.AddWorker(vms[1])
	w1 := r.AddWorker(vms[2])
	w2 := r.AddWorker(vms[3])
	f, g := r.led.Inputs(0)[0], r.led.Inputs(1)[0]

	// No replica anywhere: fall back to the master.
	if src := r.source(w0, []int32{f}, 2); src != vms[0] {
		t.Fatalf("no replicas: source = %s", src.Name())
	}
	// w1 holds the file: prefer it.
	r.replicas.AddID(f, w1.node)
	if src := r.source(w0, []int32{f}, 2); src != vms[2] {
		t.Fatalf("replica ignored: source = %s", src.Name())
	}
	// Requesting worker's own copy never wins (it is the destination).
	r.replicas.AddID(f, w0.node)
	if src := r.source(w0, []int32{f}, 2); src != vms[2] {
		t.Fatalf("destination chosen as source: %s", src.Name())
	}
	// A failed uplink disqualifies the replica holder.
	cluster.Network().FailLink(vms[2].Host().Up())
	if src := r.source(w0, []int32{f}, 2); src != vms[0] {
		t.Fatalf("failed-uplink replica chosen: %s", src.Name())
	}
	// A dead holder is skipped too.
	cluster.Network().RestoreLink(vms[2].Host().Up())
	w1.Dead = true
	if src := r.source(w0, []int32{f}, 2); src != vms[0] {
		t.Fatalf("dead replica chosen: %s", src.Name())
	}
	// Multi-file requests need a holder with every file.
	r.replicas.AddID(f, w2.node)
	r.replicas.AddID(g, w2.node)
	if src := r.source(w0, []int32{f, g}, 2); src != vms[3] {
		t.Fatalf("multi-file holder not chosen: %s", src.Name())
	}
}

func TestNetFaultRunsAreDeterministic(t *testing.T) {
	run := func() Result {
		eng, cluster, vms := newTestCluster(t, 1)
		cfg := rtRemote()
		cfg.Recover = true
		cfg.NetFaults = &NetFaultConfig{Resume: true}
		cfg.Detection = &DetectionConfig{K: 3}
		wl := Workload{Name: "w", Tasks: uniformTasks(12, 2.0, 25e6)}
		inj := cluster.InjectLinkFaults(vms[1:], netsim.FaultOptions{Seed: 3, MTBFSec: 20, MTTRSec: 5})
		r, err := NewRunner(cluster, vms[0], cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		for _, vm := range vms[1:] {
			r.AddWorker(vm)
		}
		finished := false
		var res Result
		if err := r.Start(func(out Result) { res = out; finished = true }); err != nil {
			t.Fatal(err)
		}
		for !finished && eng.Step() {
		}
		inj.Stop()
		if !finished {
			t.Fatal("run deadlocked")
		}
		return res
	}
	a, b := run(), run()
	if a.MakespanSec != b.MakespanSec || a.BytesMoved != b.BytesMoved ||
		a.TransferInterrupts != b.TransferInterrupts || a.TransferRetries != b.TransferRetries ||
		a.Succeeded != b.Succeeded || len(a.Detections) != len(b.Detections) {
		t.Fatalf("seeded runs diverged:\n%+v\n%+v", a, b)
	}
	if a.TransferInterrupts == 0 {
		t.Fatal("fault schedule never hit a transfer; weaken MTBF to make the test meaningful")
	}
}
