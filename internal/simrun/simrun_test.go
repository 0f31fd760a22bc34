package simrun

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"frieda/internal/catalog"
	"frieda/internal/cloud"
	"frieda/internal/sim"
	"frieda/internal/strategy"
)

// newTestCluster builds the paper's 4-VM slice plus helpers.
func newTestCluster(t *testing.T, seed int64) (*sim.Engine, *cloud.Cluster, []*cloud.VM) {
	t.Helper()
	eng := sim.NewEngine()
	cluster, vms := cloud.Default4VMCluster(eng, seed)
	return eng, cluster, vms
}

// uniformTasks makes n tasks of fixed compute cost and one input file each.
func uniformTasks(n int, computeSec float64, fileBytes int64) []TaskSpec {
	out := make([]TaskSpec, n)
	for i := range out {
		out[i] = TaskSpec{
			Index:      i,
			Files:      []catalog.FileMeta{{Name: fmt.Sprintf("f%04d", i), Size: fileBytes}},
			ComputeSec: computeSec,
		}
	}
	return out
}

func runOn(t *testing.T, cluster *cloud.Cluster, master *cloud.VM, workers []*cloud.VM, cfg Config, wl Workload) Result {
	t.Helper()
	r, err := NewRunner(cluster, master, cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range workers {
		r.AddWorker(vm)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRealTimeComputeBound(t *testing.T) {
	_, cluster, vms := newTestCluster(t, 1)
	// 8 tasks × 1 s, no data, 2 workers × 1 slot (multicore off): 4 s.
	cfg := Config{Strategy: strategy.Config{Kind: strategy.RealTime}}
	wl := Workload{Name: "cpu", Tasks: uniformTasks(8, 1.0, 0)}
	res := runOn(t, cluster, vms[0], vms[1:3], cfg, wl)
	if res.Succeeded != 8 {
		t.Fatalf("result %+v", res)
	}
	if math.Abs(res.MakespanSec-4.0) > 1e-6 {
		t.Fatalf("makespan = %v, want 4.0", res.MakespanSec)
	}
}

func TestMulticoreClonesPerCore(t *testing.T) {
	_, cluster, vms := newTestCluster(t, 1)
	// 16 tasks × 1 s on one 4-core VM with multicore: 4 s.
	cfg := Config{Strategy: strategy.Config{Kind: strategy.RealTime, Multicore: true}}
	wl := Workload{Name: "cpu", Tasks: uniformTasks(16, 1.0, 0)}
	res := runOn(t, cluster, vms[0], vms[1:2], cfg, wl)
	if math.Abs(res.MakespanSec-4.0) > 1e-6 {
		t.Fatalf("makespan = %v, want 4.0 (16 tasks / 4 cores)", res.MakespanSec)
	}
}

func TestRealTimeTransferBound(t *testing.T) {
	_, cluster, vms := newTestCluster(t, 1)
	// 16 tasks × 12.5 MB over the master's 100 Mbps uplink with zero
	// compute: the uplink serialises 200 MB -> >= 16 s.
	cfg := Config{Strategy: strategy.Config{Kind: strategy.RealTime, Multicore: true}, ModelDiskIO: false}
	wl := Workload{Name: "net", Tasks: uniformTasks(16, 0.001, 12_500_000)}
	res := runOn(t, cluster, vms[0], vms[1:], cfg, wl)
	if res.MakespanSec < 16.0 {
		t.Fatalf("makespan %.2f beats the bandwidth bound", res.MakespanSec)
	}
	if res.MakespanSec > 20.0 {
		t.Fatalf("makespan %.2f far above the bound", res.MakespanSec)
	}
	if res.BytesMoved != 16*12_500_000 {
		t.Fatalf("BytesMoved = %v", res.BytesMoved)
	}
}

func TestPrePartitionTwoPhases(t *testing.T) {
	_, cluster, vms := newTestCluster(t, 1)
	cfg := Config{Strategy: strategy.PrePartitionedRemote, ModelDiskIO: false}
	wl := Workload{Name: "two-phase", Tasks: uniformTasks(12, 1.0, 6_250_000)}
	res := runOn(t, cluster, vms[0], vms[1:], cfg, wl)
	// 75 MB total over 100 Mbps = 6 s staging; then 12 tasks on 12 slots = 1 s.
	if res.StagingPhaseSec < 5.9 || res.StagingPhaseSec > 6.5 {
		t.Fatalf("staging phase = %.3f, want ~6", res.StagingPhaseSec)
	}
	if math.Abs(res.MakespanSec-(res.StagingPhaseSec+1.0)) > 0.05 {
		t.Fatalf("phases not sequential: makespan %.3f staging %.3f", res.MakespanSec, res.StagingPhaseSec)
	}
}

func TestPrePartitionLocalNoTransfer(t *testing.T) {
	_, cluster, vms := newTestCluster(t, 1)
	cfg := Config{Strategy: strategy.PrePartitionedLocal}
	wl := Workload{Name: "local", Tasks: uniformTasks(12, 1.0, 1_000_000)}
	res := runOn(t, cluster, vms[0], vms[1:], cfg, wl)
	if res.BytesMoved != 0 {
		t.Fatalf("local strategy moved %v bytes", res.BytesMoved)
	}
	if res.Succeeded != 12 {
		t.Fatalf("result %+v", res)
	}
	if res.StagingPhaseSec > 1e-9 {
		t.Fatalf("staging phase = %v, want 0", res.StagingPhaseSec)
	}
}

func TestRealTimeOverlapBeatsPrePartition(t *testing.T) {
	// The paper's central claim (Fig. 6a): with sizeable data and real
	// compute, real-time's transfer/compute overlap beats the strict
	// two-phase pre-partitioning.
	runStrat := func(cfg Config) float64 {
		_, cluster, vms := newTestCluster(t, 1)
		wl := Workload{Name: "als-like", Tasks: uniformTasks(48, 1.0, 3_000_000)}
		return runOn(t, cluster, vms[0], vms[1:], cfg, wl).MakespanSec
	}
	pre := runStrat(Config{Strategy: strategy.PrePartitionedRemote})
	rt := runStrat(Config{Strategy: strategy.RealTimeRemote})
	if rt >= pre {
		t.Fatalf("real-time (%.2f) did not beat pre-partition (%.2f)", rt, pre)
	}
}

func TestRealTimeLoadBalancesVariance(t *testing.T) {
	// Variable task costs: pre-partition's static assignment strands the
	// expensive tasks wherever the round-robin stride puts them, while
	// real-time pulls work to whoever is free. This is the BLAST effect
	// (Fig. 6b). Expensive tasks at indices ≡ 0 (mod 3) all land on the
	// same worker under round-robin with 3 workers.
	tasks := make([]TaskSpec, 30)
	for i := range tasks {
		cost := 1.0
		if i%3 == 0 && i < 9 {
			cost = 10.0
		}
		tasks[i] = TaskSpec{Index: i, ComputeSec: cost}
	}
	wl := Workload{Name: "skewed", Tasks: tasks}
	run := func(kind strategy.Kind) float64 {
		_, cluster, vms := newTestCluster(t, 1)
		cfg := Config{Strategy: strategy.Config{Kind: kind}} // 1 slot per worker
		return runOn(t, cluster, vms[0], vms[1:], cfg, wl).MakespanSec
	}
	pre := run(strategy.PrePartition)
	rt := run(strategy.RealTime)
	if rt >= pre {
		t.Fatalf("real-time (%.2f) did not beat pre-partition (%.2f) under skew", rt, pre)
	}
	// The stranded worker owns 3×10 s + 7×1 s = 37 s of work.
	if pre < 36.9 {
		t.Fatalf("pre-partition makespan %.2f below the stranded-worker bound", pre)
	}
	if rt > 25 {
		t.Fatalf("real-time makespan %.2f did not balance the skew", rt)
	}
}

func TestCommonDataStagedToEveryNode(t *testing.T) {
	_, cluster, vms := newTestCluster(t, 1)
	cfg := Config{Strategy: strategy.RealTimeRemote, ModelDiskIO: false}
	wl := Workload{
		Name:        "blast-like",
		Tasks:       uniformTasks(6, 0.5, 1000),
		CommonBytes: 10_000_000,
	}
	res := runOn(t, cluster, vms[0], vms[1:], cfg, wl)
	want := 3*10_000_000.0 + 6*1000
	if res.BytesMoved != want {
		t.Fatalf("BytesMoved = %v, want %v", res.BytesMoved, want)
	}
}

func TestWorkerFailureAbandonsWithoutRecover(t *testing.T) {
	eng, cluster, vms := newTestCluster(t, 1)
	cfg := Config{Strategy: strategy.RealTimeRemote}
	wl := Workload{Name: "faulty", Tasks: uniformTasks(30, 1.0, 0)}
	r, err := NewRunner(cluster, vms[0], cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range vms[1:] {
		r.AddWorker(vm)
	}
	eng.Schedule(2.5, func() { cluster.Fail(vms[1]) })
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Abandoned == 0 {
		t.Fatal("no task abandoned despite mid-run failure")
	}
	if res.Succeeded+res.Abandoned != 30 {
		t.Fatalf("accounting broken: %+v", res)
	}
	if _, hasDead := res.PerWorker[vms[1].Name()]; !hasDead {
		t.Fatal("dead worker did no work before dying (failure injected too early?)")
	}
}

func TestWorkerFailureRecoverCompletesAll(t *testing.T) {
	eng, cluster, vms := newTestCluster(t, 1)
	cfg := Config{Strategy: strategy.RealTimeRemote, Recover: true, MaxRetries: 3}
	wl := Workload{Name: "faulty", Tasks: uniformTasks(30, 1.0, 0)}
	r, err := NewRunner(cluster, vms[0], cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range vms[1:] {
		r.AddWorker(vm)
	}
	eng.Schedule(2.5, func() { cluster.Fail(vms[1]) })
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded != 30 || res.Abandoned != 0 {
		t.Fatalf("recovery incomplete: %+v", res)
	}
}

func TestAllWorkersDeadTerminates(t *testing.T) {
	eng, cluster, vms := newTestCluster(t, 1)
	cfg := Config{Strategy: strategy.RealTimeRemote}
	wl := Workload{Name: "doomed", Tasks: uniformTasks(20, 1.0, 0)}
	r, err := NewRunner(cluster, vms[0], cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	r.AddWorker(vms[1])
	eng.Schedule(1.5, func() { cluster.Fail(vms[1]) })
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded+res.Abandoned != 20 {
		t.Fatalf("run did not terminate cleanly: %+v", res)
	}
	if res.Abandoned < 15 {
		t.Fatalf("abandoned = %d, want most of the work", res.Abandoned)
	}
}

func TestElasticWorkerAddMidRun(t *testing.T) {
	// Adding a worker mid-run must shorten the remaining real-time work.
	base := func(addLate bool) float64 {
		eng := sim.NewEngine()
		cluster, vms := cloud.Default4VMCluster(eng, 1)
		cfg := Config{Strategy: strategy.Config{Kind: strategy.RealTime}}
		wl := Workload{Name: "elastic", Tasks: uniformTasks(40, 1.0, 0)}
		r, err := NewRunner(cluster, vms[0], cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		r.AddWorker(vms[1])
		if addLate {
			eng.Schedule(5, func() { r.AddWorker(vms[2]) })
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Succeeded != 40 {
			t.Fatalf("result %+v", res)
		}
		if addLate && res.PerWorker[vms[2].Name()] == 0 {
			t.Fatal("late worker got no tasks")
		}
		return res.MakespanSec
	}
	solo := base(false)
	elastic := base(true)
	if elastic >= solo {
		t.Fatalf("elastic add did not help: %.2f vs %.2f", elastic, solo)
	}
}

func TestPrefetchPipelinesTransfers(t *testing.T) {
	// With transfer ≈ compute per task on a single slot, prefetch=2 should
	// overlap the next transfer behind the current compute and win.
	run := func(prefetch int) float64 {
		eng := sim.NewEngine()
		cluster, vms := cloud.Default4VMCluster(eng, 1)
		cfg := Config{
			Strategy:    strategy.Config{Kind: strategy.RealTime, Prefetch: prefetch},
			ModelDiskIO: false,
		}
		// 1.0 s transfer (12.5 MB at 100 Mbps), 1.0 s compute.
		wl := Workload{Name: "pipe", Tasks: uniformTasks(10, 1.0, 12_500_000)}
		r, err := NewRunner(cluster, vms[0], cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		r.AddWorker(vms[1])
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.MakespanSec
	}
	strict := run(1)
	pipelined := run(2)
	if pipelined >= strict {
		t.Fatalf("prefetch did not pipeline: %.2f vs %.2f", pipelined, strict)
	}
	// Strict alternates transfer/compute: ~20 s. Pipelined: ~11 s.
	if strict < 19 || pipelined > 12.5 {
		t.Fatalf("unexpected magnitudes: strict %.2f pipelined %.2f", strict, pipelined)
	}
}

func TestComputeToDataPrefersResidentTasks(t *testing.T) {
	// Pre-stage all files via no-partition local; compute-to-data then
	// schedules without moving bytes.
	_, cluster, vms := newTestCluster(t, 1)
	cfg := Config{Strategy: strategy.Config{
		Kind: strategy.NoPartition, Locality: strategy.Local, Multicore: true,
	}}
	wl := Workload{Name: "resident", Tasks: uniformTasks(12, 0.5, 2_000_000)}
	res := runOn(t, cluster, vms[0], vms[1:], cfg, wl)
	if res.BytesMoved != 0 {
		t.Fatalf("moved %v bytes with local data", res.BytesMoved)
	}
	if res.Succeeded != 12 {
		t.Fatalf("result %+v", res)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() Result {
		eng := sim.NewEngine()
		cluster, vms := cloud.Default4VMCluster(eng, 7)
		cfg := Config{Strategy: strategy.RealTimeRemote}
		wl := Workload{Name: "det", Tasks: uniformTasks(25, 0.7, 500_000)}
		r, err := NewRunner(cluster, vms[0], cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		for _, vm := range vms[1:] {
			r.AddWorker(vm)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.MakespanSec != b.MakespanSec || a.BytesMoved != b.BytesMoved {
		t.Fatalf("nondeterministic: %.6f/%.6f vs %.6f/%.6f",
			a.MakespanSec, a.BytesMoved, b.MakespanSec, b.BytesMoved)
	}
	for i := range a.Completions {
		if a.Completions[i] != b.Completions[i] {
			t.Fatalf("completion %d differs", i)
		}
	}
}

func TestRunnerValidation(t *testing.T) {
	_, cluster, vms := newTestCluster(t, 1)
	if _, err := NewRunner(cluster, vms[0], Config{Strategy: strategy.Config{Grouping: "bogus"}}, Workload{Tasks: uniformTasks(1, 1, 0)}); err == nil {
		t.Fatal("bad strategy accepted")
	}
	if _, err := NewRunner(cluster, vms[0], Config{}, Workload{}); err == nil {
		t.Fatal("empty workload accepted")
	}
	r, _ := NewRunner(cluster, vms[0], Config{}, Workload{Tasks: uniformTasks(1, 1, 0)})
	if err := r.Start(func(Result) {}); err == nil {
		t.Fatal("start with no workers accepted")
	}
}

// Property: makespan is never below either physical bound — total compute
// divided by total slots, or total unique bytes over the master uplink.
func TestMakespanLowerBoundsProperty(t *testing.T) {
	prop := func(seed int64, nRaw, sizeRaw uint8) bool {
		n := int(nRaw%40) + 4
		size := int64(sizeRaw) * 100_000
		rng := rand.New(rand.NewSource(seed))
		tasks := make([]TaskSpec, n)
		totalCompute := 0.0
		totalBytes := 0.0
		for i := range tasks {
			c := 0.1 + rng.Float64()*2
			tasks[i] = TaskSpec{
				Index:      i,
				Files:      []catalog.FileMeta{{Name: fmt.Sprintf("f%d", i), Size: size}},
				ComputeSec: c,
			}
			totalCompute += c
			totalBytes += float64(size)
		}
		eng := sim.NewEngine()
		cluster, vms := cloud.Default4VMCluster(eng, seed)
		cfg := Config{Strategy: strategy.RealTimeRemote, ModelDiskIO: false}
		r, err := NewRunner(cluster, vms[0], cfg, Workload{Name: "prop", Tasks: tasks})
		if err != nil {
			return false
		}
		for _, vm := range vms[1:] {
			r.AddWorker(vm)
		}
		res, err := r.Run()
		if err != nil || res.Succeeded != n {
			return false
		}
		slots := 3 * 4 // 3 workers × 4 cores
		computeBound := totalCompute / float64(slots)
		netBound := totalBytes * 8 / 100e6
		eps := 1e-6
		return res.MakespanSec >= computeBound-eps && res.MakespanSec >= netBound-eps
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// A worker joining costs its share of an arena chunk and nothing per VM
// more: the core pool is part of the worker, its file and attempt maps are
// made on first use and the VM-to-worker index is a slice by VM id. 1,024
// joins one at a time, the elastic path, measure 0.0537 allocations each
// (the worker chunks and three slices growing); the bound is that plus 2%.
// At 65,536 workers each extra allocation per join is a visible share of a
// cell's setup.
func TestAddWorkerAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const n, runs = 1024, 3
	eng := sim.NewEngine()
	cluster := cloud.New(eng, cloud.Options{Seed: 1, InstantBoot: true})
	vms, err := cluster.Provision(n+1, cloud.C1XLarge)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(eng.Now())
	cfg := Config{Strategy: strategy.Config{Kind: strategy.RealTime}}
	wl := Workload{Name: "cpu", Tasks: uniformTasks(8, 1, 0)}
	runners := make([]*Runner, runs+1) // AllocsPerRun adds a warm-up run
	for i := range runners {
		if runners[i], err = NewRunner(cluster, vms[0], cfg, wl); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	perRun := testing.AllocsPerRun(runs, func() {
		for _, vm := range vms[1:] {
			runners[next].AddWorker(vm)
		}
		next++
	})
	const limit = 0.0537 * 1.02
	per := perRun / n
	t.Logf("AddWorker makes %.4f allocations per call", per)
	if per > limit {
		t.Fatalf("AddWorker makes %.4f allocations per call, want <= %.4f", per, limit)
	}
}

// alsTasks is the ALS shape at n tasks: two 7 MB images per task and about
// 2 s of compute with 8% seeded noise.
func alsTasks(n int) []TaskSpec {
	rng := rand.New(rand.NewSource(2012))
	out := make([]TaskSpec, n)
	for i := range out {
		out[i] = TaskSpec{
			Index: i,
			Files: []catalog.FileMeta{
				{Name: fmt.Sprintf("img%05d.pgm", 2*i), Size: 7_000_000},
				{Name: fmt.Sprintf("img%05d.pgm", 2*i+1), Size: 7_000_000},
			},
			ComputeSec: 2 * (1 + 0.08*rng.NormFloat64()),
		}
	}
	return out
}

// A run with no plug-ins allocates per fired event what its flows, computes
// and bookkeeping need, and nothing for the hooks: a hook call that
// allocates (a closure or an interface boxing per call) shows up here. The
// fault-free real-time ALS cell measures 0.1151 allocations per event (86
// per run over 747 events, each instant's rebalance and admission pass
// included) at a window of one group per slot: its task attempts,
// stage-ins, flows and events come from arena chunks and go back to them
// when their use ends, there is no closure, files are ids (no map per
// worker or holder set), and the rest is the run's setup. Three of the 86
// are the one schedule's, each made once per run: the engine's
// same-instant queue, the network's dirty-link set (sized to its links)
// and the admission pass's worker list (sized to the workers). At a window
// of three it measures 0.1903 (133 over 699): more records are live at
// once, so the arenas take more chunks. Each bound is its highest measure
// plus 2%, so one extra allocation per task (+0.17 per event), or in every
// few events, fails it.
func TestRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, tc := range []struct {
		prefetch int
		perEvent float64 // measured at this window
	}{
		{1, 0.1151},
		{3, 0.1903},
	} {
		t.Run(fmt.Sprintf("prefetch=%d", tc.prefetch), func(t *testing.T) {
			runAllocations(t, tc.prefetch, tc.perEvent*1.02)
		})
	}
}

func runAllocations(t *testing.T, prefetch int, limit float64) {
	const runs = 3
	type cell struct {
		eng *sim.Engine
		r   *Runner
	}
	cells := make([]cell, runs+1) // AllocsPerRun adds a warm-up run
	for i := range cells {
		eng := sim.NewEngine()
		cluster, vms := cloud.Default4VMCluster(eng, 1)
		strat := strategy.RealTimeRemote
		strat.Prefetch = prefetch
		r, err := NewRunner(cluster, vms[0], Config{Strategy: strat, ModelDiskIO: true},
			Workload{Name: "ALS", Tasks: alsTasks(128)})
		if err != nil {
			t.Fatal(err)
		}
		for _, vm := range vms[1:] {
			r.AddWorker(vm)
		}
		cells[i] = cell{eng, r}
	}
	var fired uint64
	next := 0
	perRun := testing.AllocsPerRun(runs, func() {
		c := cells[next]
		next++
		before := c.eng.Fired()
		if _, err := c.r.Run(); err != nil {
			t.Fatal(err)
		}
		fired = c.eng.Fired() - before
	})
	per := perRun / float64(fired)
	t.Logf("Run makes %.4f allocations per fired event (%.0f over %d events)", per, perRun, fired)
	if per > limit {
		t.Fatalf("Run makes %.4f allocations per fired event (%.0f over %d events), want <= %.4f",
			per, perRun, fired, limit)
	}
}

// The VM index is by id, and ids repeat across clusters: a VM of another
// cluster is not a worker even where its id matches one.
func TestWorkerLookupIgnoresForeignVM(t *testing.T) {
	_, cluster, vms := newTestCluster(t, 1)
	_, _, foreign := newTestCluster(t, 1)
	r, err := NewRunner(cluster, vms[0], Config{Strategy: strategy.Config{Kind: strategy.RealTime}},
		Workload{Name: "cpu", Tasks: uniformTasks(1, 1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	r.AddWorker(vms[1])
	if r.worker(vms[1]) == nil {
		t.Fatal("the worker's own VM finds no worker")
	}
	if r.worker(foreign[1]) != nil {
		t.Fatal("a VM of another cluster with the same id finds a worker")
	}
}

// TestInternFiles checks the run's file table on a workload listed in name
// order and on one listed out of order with shared inputs and a task input
// named like the common dataset: every distinct name gets one id, ids follow
// name order, each task's ids name its own Files, and sizes follow the ids.
func TestInternFiles(t *testing.T) {
	file := func(name string, size int64) catalog.FileMeta { return catalog.FileMeta{Name: name, Size: size} }
	for _, tc := range []struct {
		tasks []TaskSpec
		names []string
	}{
		{uniformTasks(3, 1, 10), []string{commonFile, "f0000", "f0001", "f0002"}},
		{
			[]TaskSpec{
				{Files: []catalog.FileMeta{file("b", 2), file("a", 1)}},
				{Files: []catalog.FileMeta{file("a", 1), file("c", 3)}},
				{Files: []catalog.FileMeta{file("B", 4), file(commonFile, 5)}},
			},
			[]string{"B", commonFile, "a", "b", "c"},
		},
	} {
		_, cluster, vms := newTestCluster(t, 1)
		r, err := NewRunner(cluster, vms[0], rtRemote(), Workload{Name: "w", Tasks: tc.tasks})
		if err != nil {
			t.Fatal(err)
		}
		for id, want := range tc.names {
			if got := r.replicas.FileName(int32(id)); got != want {
				t.Errorf("file %d is %q, want %q", id, got, want)
			}
		}
		if got := r.replicas.FileName(r.common); got != commonFile || len(r.sizes) != len(tc.names) {
			t.Errorf("common is %q, %d sizes for %d names", got, len(r.sizes), len(tc.names))
		}
		for gi, task := range tc.tasks {
			ids := r.led.Inputs(gi)
			if len(ids) != len(task.Files) {
				t.Fatalf("task %d has %d ids for %d files", gi, len(ids), len(task.Files))
			}
			for k, f := range task.Files {
				if got := r.replicas.FileName(ids[k]); got != f.Name || r.sizes[ids[k]] != float64(f.Size) {
					t.Errorf("task %d input %d: id %d names %q of size %v, want %q of %d", gi, k, ids[k], got, r.sizes[ids[k]], f.Name, f.Size)
				}
			}
		}
	}
}
