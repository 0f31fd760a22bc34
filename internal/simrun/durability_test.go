package simrun

import (
	"fmt"
	"testing"

	"frieda/internal/cloud"
	"frieda/internal/netsim"
	"frieda/internal/sim"
	"frieda/internal/storage"
	"frieda/internal/strategy"
)

// startAndDrain runs a pre-built Runner to completion on its engine,
// returning the result. Used when the test needs the Runner (or engine)
// around during the run, unlike runOn.
func startAndDrain(t *testing.T, eng *sim.Engine, r *Runner) Result {
	t.Helper()
	finished := false
	var res Result
	if err := r.Start(func(out Result) { res = out; finished = true }); err != nil {
		t.Fatal(err)
	}
	for !finished && eng.Step() {
	}
	if !finished {
		t.Fatal("run deadlocked")
	}
	return res
}

func TestDurabilityConfigValidation(t *testing.T) {
	_, cluster, vms := newTestCluster(t, 1)
	wl := Workload{Name: "x", Tasks: uniformTasks(1, 1, 1)}
	bad := []Config{
		{Strategy: strategy.RealTimeRemote, Durability: &DurabilityConfig{RF: 2, CorruptionRate: -0.1}},
		{Strategy: strategy.RealTimeRemote, Durability: &DurabilityConfig{RF: 2, CorruptionRate: 1.5}},
		// Read-only tiers cannot host worker scratch space.
		{Strategy: strategy.RealTimeRemote, Storage: &storage.DefaultImageBaked},
	}
	for i, cfg := range bad {
		if _, err := NewRunner(cluster, vms[0], cfg, wl); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	// Defaults are filled on a private copy, not the caller's struct.
	dc := &DurabilityConfig{RF: 2}
	cfg := Config{Strategy: strategy.RealTimeRemote, Durability: dc}
	if _, err := NewRunner(cluster, vms[0], cfg, wl); err != nil {
		t.Fatal(err)
	}
	if dc.ScanPeriodSec != 0 || dc.MaxConcurrentRepairs != 0 {
		t.Fatalf("caller's config mutated: %+v", dc)
	}
}

func TestDurabilityFaultFreeMatchesBaseline(t *testing.T) {
	// With single-file tasks, no faults and RF=1 the durability machinery
	// must not change the schedule: same makespan, same bytes, no repair
	// traffic, nothing lost.
	run := func(durable bool) Result {
		_, cluster, vms := newTestCluster(t, 1)
		cfg := rtRemote()
		if durable {
			cfg.Durability = &DurabilityConfig{RF: 1, Seed: 7}
		}
		wl := Workload{Name: "w", Tasks: uniformTasks(12, 2.0, 12_500_000)}
		return runOn(t, cluster, vms[0], vms[1:], cfg, wl)
	}
	base, dur := run(false), run(true)
	if base.MakespanSec != dur.MakespanSec || base.BytesMoved != dur.BytesMoved ||
		base.Succeeded != dur.Succeeded {
		t.Fatalf("durability changed a fault-free run:\nbase %+v\ndur  %+v", base, dur)
	}
	if dur.FilesLost != 0 || dur.CorruptionsDetected != 0 || dur.RepairBytes != 0 || dur.RepairsCompleted != 0 {
		t.Fatalf("phantom durability activity: %+v", dur)
	}
}

func TestRepairRestoresReplicationFactor(t *testing.T) {
	// RF=2 with evacuation: once a file's only copy sits on a worker, the
	// repair manager must copy it to a second worker over the real network.
	eng, cluster, vms := newTestCluster(t, 1)
	cfg := rtRemote()
	cfg.Durability = &DurabilityConfig{
		RF: 2, ScanPeriodSec: 1, MaxConcurrentRepairs: 4,
		EvacuateSource: true, Seed: 7,
	}
	wl := Workload{Name: "w", Tasks: uniformTasks(8, 10.0, 1_000_000)}
	r, err := NewRunner(cluster, vms[0], cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range vms[1:] {
		r.AddWorker(vm)
	}
	res := startAndDrain(t, eng, r)
	if res.Succeeded != 8 || res.FilesLost != 0 {
		t.Fatalf("result %+v", res)
	}
	if res.RepairsCompleted == 0 || res.RepairBytes == 0 {
		t.Fatalf("no repair activity despite RF=2: %+v", res)
	}
	// Every workload file must have reached the target factor: the run was
	// long enough (80 s of compute vs 1 s scans) for repair to drain.
	for gi, task := range wl.Tasks {
		if f, n := task.Files[0].Name, r.replicas.CountID(r.led.Inputs(gi)[0]); n < 2 {
			t.Errorf("file %s at %d replicas, want >= 2", f, n)
		}
	}
	r.replicas.WalkUnderID(2, func(f int32) bool {
		t.Errorf("still under-replicated at finish: %s", r.replicas.FileName(f))
		return true
	})
}

func TestRF1LosesFilesWhereRF2Survives(t *testing.T) {
	// The headline durability claim: with EvacuateSource the worker pool is
	// the only store, so a worker death destroys sole copies. RF=1 loses
	// files; RF=2 with repair keeps every file available.
	run := func(rf int) Result {
		eng, cluster, vms := newTestCluster(t, 1)
		cfg := rtRemote()
		cfg.Recover = true
		cfg.MaxRetries = 3
		cfg.Durability = &DurabilityConfig{
			RF: rf, ScanPeriodSec: 0.5, MaxConcurrentRepairs: 4,
			EvacuateSource: true, Seed: 7,
		}
		wl := Workload{Name: "w", Tasks: uniformTasks(16, 4.0, 100_000)}
		r, err := NewRunner(cluster, vms[0], cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		for _, vm := range vms[1:] {
			r.AddWorker(vm)
		}
		// Kill one of three workers mid-second-wave: every file is fetched
		// and evacuated by then, and the killed worker still holds work.
		eng.Schedule(6, func() { cluster.Fail(vms[1]) })
		return startAndDrain(t, eng, r)
	}
	single, double := run(1), run(2)
	if single.FilesLost == 0 {
		t.Fatalf("RF=1 lost nothing across a worker death: %+v", single)
	}
	if double.FilesLost != 0 {
		t.Fatalf("RF=2 lost %d files despite repair: %+v", double.FilesLost, double)
	}
	if double.Succeeded != 16 {
		t.Fatalf("RF=2 did not complete the workload: %+v", double)
	}
	if double.RepairsCompleted == 0 {
		t.Fatalf("RF=2 run scheduled no repairs: %+v", double)
	}
}

func TestCorruptionRefetchesFromCleanPath(t *testing.T) {
	// A degraded link corrupts the payload; verification catches it on
	// arrival and the refetch — after the link heals — succeeds.
	eng, cluster, vms := newTestCluster(t, 1)
	cfg := rtRemote()
	cfg.Durability = &DurabilityConfig{RF: 1, CorruptionRate: 1, Seed: 7}
	wl := Workload{Name: "one", Tasks: uniformTasks(1, 1.0, 12_500_000)}
	net := cluster.Network()
	// 1 s transfer at full rate, 2 s at half: degrade over the arrival, heal
	// before the refetch lands.
	net.DegradeLink(vms[1].Host().Down(), 0.5)
	eng.At(3, func() { net.RestoreLink(vms[1].Host().Down()) })
	res := runOn(t, cluster, vms[0], vms[1:2], cfg, wl)
	if res.Succeeded != 1 {
		t.Fatalf("result %+v", res)
	}
	if res.CorruptionsDetected != 1 {
		t.Fatalf("CorruptionsDetected = %d, want 1", res.CorruptionsDetected)
	}
	// The corrupt payload was paid for: one full extra transfer.
	if res.BytesMoved != 2*12_500_000 {
		t.Fatalf("BytesMoved = %v, want 25e6 (original + refetch)", res.BytesMoved)
	}
}

func TestCorruptionExhaustsRefetchBudget(t *testing.T) {
	// A permanently degraded path corrupts every attempt; after maxRefetch
	// retries the task fails rather than looping forever.
	_, cluster, vms := newTestCluster(t, 1)
	cfg := rtRemote()
	cfg.Durability = &DurabilityConfig{RF: 1, CorruptionRate: 1, Seed: 7}
	wl := Workload{Name: "one", Tasks: uniformTasks(1, 1.0, 1_000_000)}
	cluster.Network().DegradeLink(vms[1].Host().Down(), 0.5)
	res := runOn(t, cluster, vms[0], vms[1:2], cfg, wl)
	if res.Succeeded != 0 || res.Abandoned != 1 {
		t.Fatalf("result %+v", res)
	}
	// Initial fetch plus maxRefetch (3) refetches, all corrupt.
	if res.CorruptionsDetected != 1+maxRefetch {
		t.Fatalf("CorruptionsDetected = %d, want %d", res.CorruptionsDetected, 1+maxRefetch)
	}
}

func TestDiskReadErrorFailsAttempt(t *testing.T) {
	// A read error at compute start is an integrity failure: the attempt is
	// abandoned and the worker's cached inputs are distrusted.
	_, cluster, vms := newTestCluster(t, 1)
	cfg := rtRemote()
	cfg.ModelDiskIO = true // read errors surface on the modelled read path
	cfg.Durability = &DurabilityConfig{RF: 1, Seed: 7}
	wl := Workload{Name: "w", Tasks: uniformTasks(2, 1.0, 1_000_000)}
	r, err := NewRunner(cluster, vms[0], cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	w := r.AddWorker(vms[1])
	w.disk.SetReadErrors(1)
	eng := cluster.Engine()
	res := startAndDrain(t, eng, r)
	if res.Succeeded != 0 || res.Abandoned != 2 {
		t.Fatalf("result %+v", res)
	}
	if res.CorruptionsDetected != 2 {
		t.Fatalf("CorruptionsDetected = %d, want 2 (one per task)", res.CorruptionsDetected)
	}
}

func TestDiskDeathRestagesCommonData(t *testing.T) {
	// A disk death on a live worker wipes the common dataset; the worker
	// must re-stage it and keep computing instead of serving stale bytes.
	eng, cluster, vms := newTestCluster(t, 1)
	cfg := rtRemote()
	cfg.Recover = true
	cfg.MaxRetries = 3
	cfg.Durability = &DurabilityConfig{RF: 1, ScanPeriodSec: 1, Seed: 7}
	wl := Workload{Name: "w", Tasks: uniformTasks(12, 2.0, 100_000), CommonBytes: 12_500_000}
	r, err := NewRunner(cluster, vms[0], cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range vms[1:3] {
		r.AddWorker(vm)
	}
	eng.Schedule(3, func() { cluster.FailDisk(vms[1]) })
	res := startAndDrain(t, eng, r)
	if res.Succeeded != 12 {
		t.Fatalf("result %+v", res)
	}
	if vms[1].LocalDisk().Wipes == 0 {
		t.Fatal("disk death did not wipe the volume")
	}
	// The re-stage must have restored the worker's replica of the dataset.
	if !r.replicas.HasID(r.common, r.worker(vms[1]).node) {
		t.Fatal("common dataset not re-staged after disk death")
	}
}

func TestDurabilityChaosRunsAreDeterministic(t *testing.T) {
	// Combined link degradation, disk faults and a worker death under RF=2:
	// two equally seeded runs must agree on every result field.
	run := func() Result {
		eng, cluster, vms := newTestCluster(t, 1)
		cfg := rtRemote()
		cfg.Recover = true
		cfg.MaxRetries = 5
		cfg.NetFaults = &NetFaultConfig{Resume: true}
		cfg.Durability = &DurabilityConfig{
			RF: 2, ScanPeriodSec: 1, MaxConcurrentRepairs: 3,
			EvacuateSource: true, CorruptionRate: 0.3, Seed: 17,
		}
		wl := Workload{Name: "w", Tasks: uniformTasks(16, 2.0, 5_000_000)}
		linkInj := cluster.InjectLinkFaults(vms[1:], netsim.FaultOptions{
			Seed: 3, MTBFSec: 15, MTTRSec: 5, DegradeFactor: 0.4,
		})
		diskInj := cluster.InjectDiskFaults(vms[1:], storage.DiskFaultOptions{
			Seed: 5, DeathMTBFSec: 60, ReadErrorRate: 0.02,
		})
		r, err := NewRunner(cluster, vms[0], cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		for _, vm := range vms[1:] {
			r.AddWorker(vm)
		}
		eng.Schedule(10, func() { cluster.Fail(vms[1]) })
		res := startAndDrain(t, eng, r)
		linkInj.Stop()
		diskInj.Stop()
		for eng.Step() {
		}
		return res
	}
	a, b := run(), run()
	if a.MakespanSec != b.MakespanSec || a.BytesMoved != b.BytesMoved ||
		a.Succeeded != b.Succeeded || a.Abandoned != b.Abandoned ||
		a.FilesLost != b.FilesLost || a.CorruptionsDetected != b.CorruptionsDetected ||
		a.RepairBytes != b.RepairBytes || a.RepairsCompleted != b.RepairsCompleted {
		t.Fatalf("seeded chaos runs diverged:\n%+v\n%+v", a, b)
	}
	if a.RepairsCompleted == 0 && a.RepairBytes == 0 {
		t.Fatal("chaos schedule produced no repair traffic; tune fault rates")
	}
}

func TestRepairThrottledByBudget(t *testing.T) {
	// MaxConcurrentRepairs=1 serialises repair flows: at no simulated
	// instant may more than one repair be active.
	eng, cluster, vms := newTestCluster(t, 1)
	cfg := rtRemote()
	cfg.Durability = &DurabilityConfig{
		RF: 3, ScanPeriodSec: 0.5, MaxConcurrentRepairs: 1,
		EvacuateSource: true, Seed: 7,
	}
	wl := Workload{Name: "w", Tasks: uniformTasks(9, 5.0, 2_000_000)}
	r, err := NewRunner(cluster, vms[0], cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range vms[1:] {
		r.AddWorker(vm)
	}
	maxActive := 0
	probe := func() {}
	probe = func() {
		if n := durabilityOf(r).repairs; n > maxActive {
			maxActive = n
		}
		if !r.finished {
			eng.Schedule(0.25, probe)
		}
	}
	eng.Schedule(0.25, probe)
	res := startAndDrain(t, eng, r)
	if res.RepairsCompleted == 0 {
		t.Fatalf("no repairs under RF=3: %+v", res)
	}
	if maxActive > 1 {
		t.Fatalf("observed %d concurrent repairs, budget is 1", maxActive)
	}
}

// durabilityOf returns the run's durability plug-in.
func durabilityOf(r *Runner) *durabilityHook {
	for _, h := range r.hooks {
		if d, ok := h.(*durabilityHook); ok {
			return d
		}
	}
	return nil
}

// fullBudgetRepair builds a replication manager over n known files, each one
// copy short of RF 2, with the concurrency budget already spent on the
// first files in name order — the state every scan but the first few of a
// durability cell runs in.
func fullBudgetRepair(tb testing.TB, n int) *durabilityHook {
	tb.Helper()
	eng := sim.NewEngine()
	cluster, vms := cloud.Default4VMCluster(eng, 1)
	cfg := rtRemote()
	cfg.Durability = &DurabilityConfig{RF: 2, MaxConcurrentRepairs: 4, Seed: 7}
	wl := Workload{Name: "w", Tasks: uniformTasks(n, 1, 1<<20)}
	r, err := NewRunner(cluster, vms[0], cfg, wl)
	if err != nil {
		tb.Fatal(err)
	}
	w := r.AddWorker(vms[1])
	m := durabilityOf(r)
	m.start()
	for i := range wl.Tasks {
		f := r.led.Inputs(i)[0]
		r.replicas.AddID(f, w.node)
		if i < r.cfg.Durability.MaxConcurrentRepairs {
			m.active[f] = &repairJob{file: f, dst: w}
			m.repairs++
		}
	}
	return m
}

func TestRepairScanAllocatesNothing(t *testing.T) {
	// The scan walks the under-replication index in place: with the budget
	// full it skips the busy files, reaches the first idle one and stops,
	// building no list and no closure.
	m := fullBudgetRepair(t, 1024)
	m.scan() // establishes the index target
	if m.repairs != 4 {
		t.Fatalf("scan started repairs over a full budget: %d active", m.repairs)
	}
	if a := testing.AllocsPerRun(100, m.scan); a != 0 {
		t.Fatalf("repair scan allocates %.0f times with the budget full, want 0", a)
	}
}

func TestRepairScanReentryPanics(t *testing.T) {
	m := fullBudgetRepair(t, 8)
	m.visitFn = func(int32) bool { m.scan(); return false }
	defer func() {
		if recover() == nil {
			t.Fatal("nested scan did not panic")
		}
	}()
	m.scan()
}

// BenchmarkRepairScan is the cost guard for the scan: with the budget full
// it must not depend on how many files are known (budget: 16k-files ns/op
// within 2x of 1k-files ns/op). On a 2-vCPU Xeon (go1.24), median of 5:
// 60 ns at 1k and 53 ns at 16k, 0 allocs; 0.28 us at both while the replica
// map took a lock per call, and 162 us at 1k and 4.9 ms at 16k (30x) when
// the scan rebuilt and sorted the whole under-target list.
func BenchmarkRepairScan(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 14} {
		b.Run(fmt.Sprintf("files=%d", n), func(b *testing.B) {
			m := fullBudgetRepair(b, n)
			m.scan()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.scan()
			}
		})
	}
}

// A repair from the master over its failed uplink is born interrupted, and
// its report comes one event later. A job aborted before that report is
// released at once; the next repair takes its record, and the stale report
// must not reach that next job.
func TestRepairAbortedBeforeItsReport(t *testing.T) {
	eng := sim.NewEngine()
	cluster, vms := cloud.Default4VMCluster(eng, 1)
	cfg := rtRemote()
	cfg.Durability = &DurabilityConfig{RF: 2, MaxConcurrentRepairs: 4, Seed: 7}
	r, err := NewRunner(cluster, vms[0], cfg, Workload{Name: "w", Tasks: uniformTasks(2, 1, 1<<20)})
	if err != nil {
		t.Fatal(err)
	}
	r.AddWorker(vms[1]).Ready = true
	d := durabilityOf(r)
	d.start()
	d.ticker.Cancel() // the test starts the repairs itself
	f0, f1 := r.led.Inputs(0)[0], r.led.Inputs(1)[0]
	cluster.Network().FailLink(vms[0].Host().Up())

	d.startRepair(f0)
	job := d.active[f0]
	if job == nil || job.flow == nil {
		t.Fatal("repair of f0 did not start")
	}
	d.abort(job, "test")
	d.startRepair(f1)
	if next := d.active[f1]; next != job {
		t.Fatalf("repair of f1 is %p, want the record the aborted job gave back (%p)", next, job)
	}
	eng.Step() // f0's report
	if d.active[f1] != job || job.flow == nil || job.free {
		t.Fatal("the aborted job's report reached the next job of its record")
	}
	eng.Run() // f1's report
	if d.active[f1] != nil || d.repairsFailed != 2 {
		t.Fatalf("f1 still active (%v) or %d repairs failed, want 2", d.active[f1] != nil, d.repairsFailed)
	}
}
