package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"frieda/internal/catalog"
	"frieda/internal/protocol"
	"frieda/internal/strategy"
	"frieda/internal/transport"
	"frieda/internal/transport/transporttest"
)

// testHarness runs a full controller/master/worker deployment — over the
// in-memory transport unless tr is set — and returns the report. It holds
// every job to the lifecycle rule: no goroutine the controller, the master or
// a worker started is left when Shutdown returns.
type testHarness struct {
	source   catalog.Source
	strategy strategy.Config
	program  Program
	workers  int
	cores    int
	recover  bool
	chunk    int // MasterConfig.ChunkSize
	limiter  *transport.Limiter
	tr       transport.Transport
	// preload populates each worker's store before the run (local data).
	preload map[string]string
	// store, when set, makes each worker's store in place of a MemStore.
	store func() Store
	// sink is MasterConfig.OutputSink.
	sink Store
	// onSpawn observes spawned workers (for kill tests).
	onSpawn func(i int, w *Worker, cancel context.CancelFunc)
	// running, when set, is called once every worker is spawned.
	running func(ctl *Controller)
}

func (h *testHarness) run(t *testing.T) Report {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	goroutines := runtime.NumGoroutine()

	tr := h.tr
	if tr == nil {
		tr = transport.NewMem(h.limiter)
	}
	ctl, err := NewController(ControllerConfig{
		Strategy:        h.strategy,
		Transport:       tr,
		MasterAddr:      "master",
		InProcessMaster: true,
		Master: MasterConfig{
			Source:     h.source,
			Recover:    h.recover,
			ChunkSize:  h.chunk,
			OutputSink: h.sink,
		},
		Workers: h.workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	cores := h.cores
	if cores == 0 {
		cores = 2
	}
	for i := 0; i < h.workers; i++ {
		var store Store = NewMemStore()
		if h.store != nil {
			store = h.store()
		}
		for name, data := range h.preload {
			store.Put(name, strings.NewReader(data))
		}
		wctx, wcancel := context.WithCancel(ctx)
		defer wcancel()
		w, err := ctl.SpawnWorker(wctx, WorkerConfig{
			Name:    fmt.Sprintf("w%d", i),
			Cores:   cores,
			Store:   store,
			Program: h.program,
		})
		if err != nil {
			t.Fatal(err)
		}
		if h.onSpawn != nil {
			h.onSpawn(i, w, wcancel)
		}
	}
	if h.running != nil {
		h.running(ctl)
	}
	report, err := ctl.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Shutdown(); err != nil {
		t.Logf("shutdown: %v", err)
	}
	// A goroutine that has released the WaitGroup Shutdown waits on is still
	// counted until it has finished exiting, a few instructions later: the
	// count gets a few yields to come down, and no time. A count that is up
	// with none of the runtime's goroutines in the dump is the Go runtime
	// running a finalizer.
	for i := 0; runtime.NumGoroutine() > goroutines; i++ {
		stacks := make([]byte, 1<<20)
		stacks = stacks[:runtime.Stack(stacks, true)]
		if !bytes.Contains(stacks, []byte("created by frieda/internal/core.(*")) {
			break
		}
		if i == 100 {
			t.Fatalf("%d goroutines before the job, %d when Shutdown returned:\n%s", goroutines, runtime.NumGoroutine(), stacks)
		}
		runtime.Gosched()
	}
	return report
}

// echoProgram reads all inputs and returns their concatenated sizes.
func echoProgram() Program {
	return FuncProgram(func(ctx context.Context, task Task) (string, error) {
		total := 0
		for _, name := range task.Inputs {
			rc, err := task.Store.Open(name)
			if err != nil {
				return "", err
			}
			data, err := io.ReadAll(rc)
			rc.Close()
			if err != nil {
				return "", err
			}
			total += len(data)
		}
		return fmt.Sprintf("%d", total), nil
	})
}

func sourceWithFiles(n int, size int) *catalog.MemSource {
	src := catalog.NewMemSource()
	for i := 0; i < n; i++ {
		src.Put(fmt.Sprintf("f%03d.dat", i), []byte(strings.Repeat("x", size)))
	}
	return src
}

func TestRealTimeRunsAllGroups(t *testing.T) {
	h := &testHarness{
		source:   sourceWithFiles(20, 100),
		strategy: strategy.Config{Kind: strategy.RealTime, Multicore: true},
		program:  echoProgram(),
		workers:  3,
	}
	r := h.run(t)
	if r.Groups != 20 || r.Succeeded != 20 || r.Failed != 0 {
		t.Fatalf("report = %+v", r)
	}
	// Every task saw its 100-byte input.
	for _, res := range r.Results {
		if res.Output != "100" {
			t.Fatalf("task %d output = %q", res.GroupIndex, res.Output)
		}
	}
	if r.BytesMoved != 20*100 {
		t.Fatalf("BytesMoved = %d, want 2000", r.BytesMoved)
	}
}

func TestPrePartitionRemote(t *testing.T) {
	h := &testHarness{
		source:   sourceWithFiles(24, 50),
		strategy: strategy.Config{Kind: strategy.PrePartition, Locality: strategy.Remote, Multicore: true},
		program:  echoProgram(),
		workers:  4,
	}
	r := h.run(t)
	if r.Succeeded != 24 {
		t.Fatalf("report = %+v", r)
	}
	if r.BytesMoved != 24*50 {
		t.Fatalf("BytesMoved = %d", r.BytesMoved)
	}
	// Work split across all four workers.
	byWorker := map[string]int{}
	for _, res := range r.Results {
		byWorker[res.Worker]++
	}
	if len(byWorker) != 4 {
		t.Fatalf("work on %d workers, want 4: %v", len(byWorker), byWorker)
	}
	for w, n := range byWorker {
		if n != 6 {
			t.Fatalf("round-robin split uneven: %s got %d", w, n)
		}
	}
}

func TestPrePartitionLocalSkipsTransfer(t *testing.T) {
	// Data is pre-placed on every worker; the master must not move bytes.
	files := map[string]string{}
	src := catalog.NewMemSource()
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("f%03d.dat", i)
		files[name] = strings.Repeat("y", 10)
		src.Put(name, []byte(files[name]))
	}
	h := &testHarness{
		source:   src,
		strategy: strategy.Config{Kind: strategy.PrePartition, Locality: strategy.Local, Placement: strategy.ComputeToData, Multicore: true},
		program:  echoProgram(),
		workers:  2,
		preload:  files,
	}
	r := h.run(t)
	if r.Succeeded != 8 {
		t.Fatalf("report = %+v", r)
	}
	if r.BytesMoved != 0 {
		t.Fatalf("local strategy moved %d bytes", r.BytesMoved)
	}
}

func TestNoPartitionReplicatesEverything(t *testing.T) {
	h := &testHarness{
		source:   sourceWithFiles(6, 40),
		strategy: strategy.Config{Kind: strategy.NoPartition, Multicore: true},
		program:  echoProgram(),
		workers:  3,
	}
	r := h.run(t)
	if r.Succeeded != 6 {
		t.Fatalf("report = %+v", r)
	}
	// Full dataset to every node: 6 files × 40 B × 3 workers.
	if r.BytesMoved != 6*40*3 {
		t.Fatalf("BytesMoved = %d, want %d", r.BytesMoved, 6*40*3)
	}
}

// TestCommonFilesStagedEverywhere stages db.bin on every worker at
// admission under each kind, and pins the bytes moved: 10 queries of 20 B,
// each to one worker or, without partitioning, to all three, plus db.bin
// (500 B) once per worker. No-partitioning's whole-dataset copy skips
// db.bin, which admission already sent.
func TestCommonFilesStagedEverywhere(t *testing.T) {
	for _, tc := range []struct {
		kind  strategy.Kind
		bytes int64
	}{
		{strategy.RealTime, 10*20 + 3*500},
		{strategy.PrePartition, 10*20 + 3*500},
		{strategy.NoPartition, 3 * (10*20 + 500)},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			src := catalog.NewMemSource()
			src.Put("db.bin", []byte(strings.Repeat("D", 500)))
			for i := 0; i < 10; i++ {
				src.Put(fmt.Sprintf("q%02d.fa", i), []byte(strings.Repeat("q", 20)))
			}
			verify := FuncProgram(func(ctx context.Context, task Task) (string, error) {
				// The database must be present next to every task's input.
				if !task.Store.Has("db.bin") {
					return "", fmt.Errorf("db.bin missing")
				}
				if task.Store.Size("db.bin") != 500 {
					return "", fmt.Errorf("db.bin truncated: %d", task.Store.Size("db.bin"))
				}
				return "ok", nil
			})
			h := &testHarness{
				source: src,
				strategy: strategy.Config{
					Kind: tc.kind, Multicore: true,
					CommonFiles: []string{"db.bin"},
				},
				program: verify,
				workers: 3,
			}
			r := h.run(t)
			// db.bin is excluded from partitioning: 10 query groups only.
			if r.Groups != 10 || r.Succeeded != 10 {
				t.Fatalf("report = %+v", r)
			}
			if r.BytesMoved != tc.bytes {
				t.Fatalf("BytesMoved = %d, want %d", r.BytesMoved, tc.bytes)
			}
		})
	}
}

// TestComputeToDataPrefersResidentGroups runs all-to-all pairs of four
// files on one worker with one slot and a window of one, so groups run in
// dispatch order. Once the worker holds f0, f1 and f2, compute-to-data
// takes the resident pair (f1, f2) ahead of the queue's head (f0, f3);
// data-to-compute keeps queue order. Every file is sent once either way.
func TestComputeToDataPrefersResidentGroups(t *testing.T) {
	for _, tc := range []struct {
		placement strategy.Placement
		order     []int
	}{
		{strategy.DataToCompute, []int{0, 1, 2, 3, 4, 5}},
		{strategy.ComputeToData, []int{0, 1, 3, 2, 4, 5}},
	} {
		t.Run(tc.placement.String(), func(t *testing.T) {
			h := &testHarness{
				source: sourceWithFiles(4, 10),
				strategy: strategy.Config{
					Kind: strategy.RealTime, Placement: tc.placement,
					Grouping: "all-to-all", Prefetch: 1,
				},
				program: echoProgram(),
				workers: 1,
				cores:   1,
			}
			r := h.run(t)
			var order []int
			for _, res := range r.Results {
				order = append(order, res.GroupIndex)
			}
			if r.Succeeded != 6 || !slices.Equal(order, tc.order) {
				t.Fatalf("groups ran in order %v, want %v (report %+v)", order, tc.order, r)
			}
			if r.BytesMoved != 4*10 {
				t.Fatalf("BytesMoved = %d, want %d", r.BytesMoved, 4*10)
			}
		})
	}
}

func TestPairwiseGroupingEndToEnd(t *testing.T) {
	src := catalog.NewMemSource()
	for i := 0; i < 12; i++ {
		src.Put(fmt.Sprintf("img%02d.pgm", i), []byte(strings.Repeat("p", 30)))
	}
	h := &testHarness{
		source: src,
		strategy: strategy.Config{
			Kind: strategy.RealTime, Multicore: true,
			Grouping: "pairwise-adjacent",
		},
		program: FuncProgram(func(ctx context.Context, task Task) (string, error) {
			if len(task.Inputs) != 2 {
				return "", fmt.Errorf("got %d inputs, want 2", len(task.Inputs))
			}
			return "pair", nil
		}),
		workers: 2,
	}
	r := h.run(t)
	if r.Groups != 6 || r.Succeeded != 6 {
		t.Fatalf("report = %+v", r)
	}
}

func TestRealTimeLoadBalancing(t *testing.T) {
	// One worker is slow: under real-time it must receive fewer tasks.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tr := transport.NewMem(nil)
	slow := FuncProgram(func(ctx context.Context, task Task) (string, error) {
		if task.Store.Has("__slow") {
			time.Sleep(30 * time.Millisecond)
		} else {
			time.Sleep(1 * time.Millisecond)
		}
		return "ok", nil
	})
	ctl, err := NewController(ControllerConfig{
		Strategy:        strategy.Config{Kind: strategy.RealTime},
		Transport:       tr,
		MasterAddr:      "master",
		InProcessMaster: true,
		Master:          MasterConfig{Source: sourceWithFiles(40, 10)},
		Workers:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		store := NewMemStore()
		if i == 0 {
			store.Put("__slow", strings.NewReader("tag"))
		}
		if _, err := ctl.SpawnWorker(ctx, WorkerConfig{
			Name: fmt.Sprintf("w%d", i), Cores: 1, Store: store, Program: slow,
		}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := ctl.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Shutdown()
	if r.Succeeded != 40 {
		t.Fatalf("report = %+v", r)
	}
	byWorker := map[string]int{}
	for _, res := range r.Results {
		byWorker[res.Worker]++
	}
	if byWorker["w1"] <= byWorker["w0"]*2 {
		t.Fatalf("real-time did not load-balance: %v", byWorker)
	}
}

func TestTaskFailureWithoutRecover(t *testing.T) {
	flaky := FuncProgram(func(ctx context.Context, task Task) (string, error) {
		if task.GroupIndex%5 == 0 {
			return "", fmt.Errorf("synthetic failure")
		}
		return "ok", nil
	})
	h := &testHarness{
		source:   sourceWithFiles(10, 10),
		strategy: strategy.Config{Kind: strategy.RealTime},
		program:  flaky,
		workers:  2,
	}
	r := h.run(t)
	if r.Succeeded != 8 || r.Failed != 2 {
		t.Fatalf("report = %+v", r)
	}
}

func TestTaskFailureWithRecoverRetries(t *testing.T) {
	// Fails on first attempt per group, succeeds on retry.
	var mu sync.Mutex
	attempts := map[int]int{}
	flaky := FuncProgram(func(ctx context.Context, task Task) (string, error) {
		mu.Lock()
		attempts[task.GroupIndex]++
		n := attempts[task.GroupIndex]
		mu.Unlock()
		if n == 1 {
			return "", fmt.Errorf("first attempt fails")
		}
		return "ok", nil
	})
	h := &testHarness{
		source:   sourceWithFiles(10, 10),
		strategy: strategy.Config{Kind: strategy.RealTime},
		program:  flaky,
		workers:  2,
		recover:  true,
	}
	r := h.run(t)
	if r.Succeeded != 10 || r.Failed != 0 {
		t.Fatalf("recover did not retry: %+v", r)
	}
}

func TestWorkerDeathIsolation(t *testing.T) {
	// Kill one worker mid-run without recovery: its in-flight task is
	// abandoned, the rest completes on the survivor, and the controller
	// records the failure.
	var kill context.CancelFunc
	var killed atomic.Bool
	prog := FuncProgram(func(ctx context.Context, task Task) (string, error) {
		time.Sleep(5 * time.Millisecond)
		if task.Store.Has("__w0") && !killed.Swap(true) {
			kill()
			time.Sleep(20 * time.Millisecond)
			return "", fmt.Errorf("dying")
		}
		return "ok", nil
	})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tr := transport.NewMem(nil)
	src := sourceWithFiles(30, 10)
	ctl, err := NewController(ControllerConfig{
		Strategy:        strategy.Config{Kind: strategy.RealTime},
		Transport:       tr,
		MasterAddr:      "master",
		InProcessMaster: true,
		Master:          MasterConfig{Source: src},
		Workers:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		store := NewMemStore()
		if i == 0 {
			store.Put("__w0", strings.NewReader("tag"))
		}
		wctx, wcancel := context.WithCancel(ctx)
		if i == 0 {
			kill = wcancel
		} else {
			defer wcancel()
		}
		if _, err := ctl.SpawnWorker(wctx, WorkerConfig{
			Name: fmt.Sprintf("w%d", i), Cores: 1, Store: store, Program: prog,
		}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := ctl.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Shutdown()
	if r.Succeeded+r.Failed != 30 {
		t.Fatalf("terminal accounting broken: %+v", r)
	}
	if r.Failed == 0 {
		t.Fatal("dead worker's in-flight task was not marked failed")
	}
	if len(r.WorkerErrors) == 0 {
		t.Fatal("worker death not recorded")
	}
	// Survivor finished the remainder.
	survivors := 0
	for _, res := range r.Results {
		if res.OK && res.Worker == "w1" {
			survivors++
		}
	}
	if survivors < 25 {
		t.Fatalf("survivor completed only %d tasks", survivors)
	}
}

func TestWorkerDeathWithRecoverCompletesAll(t *testing.T) {
	killWithRecover(t, strategy.Config{Kind: strategy.RealTime})
}

// A pre-partitioned worker's share requeues to the survivor, which is
// streamed the inputs it was never dealt before it runs them.
func TestPrePartitionDeathWithRecoverCompletesAll(t *testing.T) {
	killWithRecover(t, strategy.PrePartitionedRemote)
}

// killWithRecover runs 30 single-file groups on two one-core workers under
// Recover and kills w0 while it runs its first group past index 3: every
// group must succeed.
func killWithRecover(t *testing.T, strat strategy.Config) {
	t.Helper()
	var kill context.CancelFunc
	var killed atomic.Bool
	prog := FuncProgram(func(ctx context.Context, task Task) (string, error) {
		time.Sleep(2 * time.Millisecond)
		if task.Store.Has("__w0") && task.GroupIndex > 3 && !killed.Swap(true) {
			kill()
			time.Sleep(50 * time.Millisecond)
			return "", ctx.Err()
		}
		return "ok", nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tr := transport.NewMem(nil)
	ctl, err := NewController(ControllerConfig{
		Strategy:        strat,
		Transport:       tr,
		MasterAddr:      "master",
		InProcessMaster: true,
		Master:          MasterConfig{Source: sourceWithFiles(30, 10), Recover: true, MaxRetries: 3},
		Workers:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		store := NewMemStore()
		if i == 0 {
			store.Put("__w0", strings.NewReader("tag"))
		}
		wctx, wcancel := context.WithCancel(ctx)
		if i == 0 {
			kill = wcancel
		} else {
			defer wcancel()
		}
		if _, err := ctl.SpawnWorker(wctx, WorkerConfig{
			Name: fmt.Sprintf("w%d", i), Cores: 1, Store: store, Program: prog,
		}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := ctl.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Shutdown()
	if r.Succeeded != 30 {
		t.Fatalf("recovery incomplete: %+v errors=%v", r, r.WorkerErrors)
	}
}

// A worker that registers while a no-partition staging phase is under way
// takes nothing until the phase ends, then runs queued groups, streamed the
// inputs it lacks. A limited master uplink holds the phase open for about
// 0.3 s.
func TestJoinerDuringStagingWaitsThenFetches(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tr := transport.NewMem(transport.NewLimiter(1e6, 32e3))
	prog := FuncProgram(func(ctx context.Context, task Task) (string, error) {
		time.Sleep(5 * time.Millisecond)
		return "ok", nil
	})
	ctl, err := NewController(ControllerConfig{
		Strategy:        strategy.CommonData,
		Transport:       tr,
		MasterAddr:      "master",
		InProcessMaster: true,
		Master:          MasterConfig{Source: sourceWithFiles(40, 8000)},
		Workers:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	if _, err := ctl.SpawnWorker(ctx, WorkerConfig{Name: "w0", Cores: 1, Program: prog}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	joined := time.Since(begin).Seconds()
	if _, err := ctl.SpawnWorker(ctx, WorkerConfig{Name: "late", Cores: 1, Program: prog}); err != nil {
		t.Fatal(err)
	}
	r, err := ctl.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Shutdown()
	if r.Succeeded != 40 {
		t.Fatalf("report = %+v (errors %v)", r, r.WorkerErrors)
	}
	if r.TransferPhaseSec <= joined {
		t.Fatalf("the phase took %.3fs and the joiner registered at %.3fs: not during it", r.TransferPhaseSec, joined)
	}
	late := 0
	for _, res := range r.Results {
		if res.Worker == "late" {
			late++
		}
	}
	if late == 0 {
		t.Fatal("the worker that joined during staging ran nothing")
	}
	if want := int64(40*8000 + late*8000); r.BytesMoved != want {
		t.Fatalf("moved %d bytes, want the dataset to w0 and the joiner's %d inputs: %d", r.BytesMoved, late, want)
	}
}

func TestElasticAddWorkerMidRun(t *testing.T) {
	// Start with one worker; add a second mid-run. Real-time mode must give
	// it work with no reconfiguration.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tr := transport.NewMem(nil)
	prog := FuncProgram(func(ctx context.Context, task Task) (string, error) {
		time.Sleep(3 * time.Millisecond)
		return "ok", nil
	})
	ctl, err := NewController(ControllerConfig{
		Strategy:        strategy.Config{Kind: strategy.RealTime},
		Transport:       tr,
		MasterAddr:      "master",
		InProcessMaster: true,
		Master:          MasterConfig{Source: sourceWithFiles(60, 10)},
		Workers:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.SpawnWorker(ctx, WorkerConfig{Name: "w0", Cores: 1, Program: prog}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if _, err := ctl.SpawnWorker(ctx, WorkerConfig{Name: "late", Cores: 1, Program: prog}); err != nil {
		t.Fatal(err)
	}
	r, err := ctl.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Shutdown()
	if r.Succeeded != 60 {
		t.Fatalf("report = %+v", r)
	}
	late := 0
	for _, res := range r.Results {
		if res.Worker == "late" {
			late++
		}
	}
	if late == 0 {
		t.Fatal("elastically added worker got no work")
	}
}

func TestElasticRemoveWorkerDrains(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tr := transport.NewMem(nil)
	prog := FuncProgram(func(ctx context.Context, task Task) (string, error) {
		time.Sleep(3 * time.Millisecond)
		return "ok", nil
	})
	ctl, err := NewController(ControllerConfig{
		Strategy:        strategy.Config{Kind: strategy.RealTime},
		Transport:       tr,
		MasterAddr:      "master",
		InProcessMaster: true,
		Master:          MasterConfig{Source: sourceWithFiles(60, 10)},
		Workers:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := ctl.SpawnWorker(ctx, WorkerConfig{Name: fmt.Sprintf("w%d", i), Cores: 1, Program: prog}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(30 * time.Millisecond)
	if err := ctl.RemoveWorker("w0"); err != nil {
		t.Fatal(err)
	}
	r, err := ctl.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Shutdown()
	if r.Succeeded != 60 {
		t.Fatalf("report = %+v (errors %v)", r, r.WorkerErrors)
	}
	// All work after the drain went to w1; w0 did at least one task before.
	last := r.Results[len(r.Results)-1]
	if last.Worker != "w1" {
		t.Fatalf("final task ran on %s", last.Worker)
	}
	if err := ctl.RemoveWorker("w0"); err == nil {
		t.Fatal("removing an already-removed worker succeeded")
	}
}

// drainThenKill runs 30 groups on three two-slot workers whose tasks block
// until released, at the paper's window of one group per slot, so that
// the draining workers hold two groups each. Once every slot is busy, w1 and w2 drain and w0 — the last
// undrained worker — dies; then the blocked tasks are released, failing when
// failDrained is set. It checks that every group ends terminal exactly once
// and returns the report.
func drainThenKill(t *testing.T, recoverOn, failDrained bool) Report {
	t.Helper()
	release := make(chan struct{})
	var started atomic.Int32
	var kill context.CancelFunc
	h := &testHarness{
		source:   sourceWithFiles(30, 10),
		strategy: strategy.Config{Kind: strategy.RealTime, Multicore: true, Prefetch: 1},
		program: FuncProgram(func(ctx context.Context, task Task) (string, error) {
			started.Add(1)
			select {
			case <-release:
			case <-ctx.Done():
			}
			if err := ctx.Err(); err != nil {
				return "", err // w0, killed
			}
			if failDrained {
				return "", fmt.Errorf("injected failure")
			}
			return "ok", nil
		}),
		workers: 3,
		recover: recoverOn,
		onSpawn: func(i int, _ *Worker, cancel context.CancelFunc) {
			if i == 0 {
				kill = cancel
			}
		},
		running: func(ctl *Controller) {
			for started.Load() < 6 {
				time.Sleep(time.Millisecond)
			}
			for _, name := range []string{"w1", "w2"} {
				if err := ctl.RemoveWorker(name); err != nil {
					t.Errorf("drain %s: %v", name, err)
				}
			}
			kill()
			close(release)
		},
	}
	r := h.run(t)
	seen := map[int]bool{}
	for _, res := range r.Results {
		if seen[res.GroupIndex] {
			t.Fatalf("group %d reported twice: %+v", res.GroupIndex, r.Results)
		}
		seen[res.GroupIndex] = true
	}
	if r.Groups != 30 || len(seen) != 30 || r.Succeeded+r.Failed != 30 {
		t.Fatalf("%d groups, %d terminal (%d ok, %d failed); want all 30 exactly once", r.Groups, len(seen), r.Succeeded, r.Failed)
	}
	return r
}

// TestDrainThenLastWorkerDies is simrun's test of the same name on the real
// master: with the last undrained worker dead, the queued groups have no
// taker and are abandoned, while the draining workers finish what they hold.
func TestDrainThenLastWorkerDies(t *testing.T) {
	for _, recoverOn := range []bool{false, true} {
		t.Run(fmt.Sprintf("recover=%v", recoverOn), func(t *testing.T) {
			if r := drainThenKill(t, recoverOn, false); r.Succeeded != 4 {
				t.Fatalf("%d groups ok, want the draining workers' 4", r.Succeeded)
			}
		})
	}
}

// TestRequeueWithOnlyDrainingWorkersSettles is simrun's test of the same
// name on the real master: the draining workers' attempts fail after the
// last undrained worker died, and under Recover their requeues have no
// taker. The run must abandon them, not wait.
func TestRequeueWithOnlyDrainingWorkersSettles(t *testing.T) {
	for _, recoverOn := range []bool{false, true} {
		t.Run(fmt.Sprintf("recover=%v", recoverOn), func(t *testing.T) {
			if r := drainThenKill(t, recoverOn, true); r.Failed != 30 {
				t.Fatalf("%d groups failed, want all 30", r.Failed)
			}
		})
	}
}

func TestUpdateStrategyBeforeStartOnly(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tr := transport.NewMem(nil)
	ctl, err := NewController(ControllerConfig{
		Strategy:        strategy.Config{Kind: strategy.PrePartition},
		Transport:       tr,
		MasterAddr:      "master",
		InProcessMaster: true,
		Master:          MasterConfig{Source: sourceWithFiles(4, 10)},
		Workers:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	// Before any worker registers, the strategy can change.
	if err := ctl.UpdateStrategy(strategy.Config{Kind: strategy.RealTime}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.SpawnWorker(ctx, WorkerConfig{Name: "w0", Cores: 1, Program: echoProgram()}); err != nil {
		t.Fatal(err)
	}
	r, err := ctl.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Strategy, "real-time") {
		t.Fatalf("strategy not updated: %s", r.Strategy)
	}
	// After completion (started), updates are rejected.
	if err := ctl.UpdateStrategy(strategy.Config{Kind: strategy.PrePartition}); err == nil {
		t.Fatal("mid/post-run strategy update accepted")
	}
	ctl.Shutdown()
}

func TestExecProgramOverTCPTransport(t *testing.T) {
	// Full stack on real TCP with a real external binary (cat) driven by
	// the execution-syntax template, files on disk. Every connection goes
	// through the ownership checker, so a received message is poisoned at
	// the next Recv: the strategy and template the master adopts, the
	// template a worker runs and the results the controller reports must
	// each be copies, and the report is read after Shutdown's own Recvs.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tr := transporttest.NewOwnership(transport.NewTCP())
	src := catalog.NewMemSource()
	for i := 0; i < 6; i++ {
		src.Put(fmt.Sprintf("part%d.txt", i), []byte(fmt.Sprintf("content-%d", i)))
	}
	// TCP needs the real bound address: start the master manually first.
	mc := MasterConfig{
		Source:    src,
		Transport: tr,
		Addr:      "127.0.0.1:0",
	}
	m, err := NewMaster(mc)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- m.Serve(ctx) }()
	var addr string
	select {
	case <-m.serving:
		addr = m.listener.Addr() // set before serving closes
	case err := <-serveErr:
		t.Fatalf("master never bound: %v", err)
	}
	ctl2, err := NewController(ControllerConfig{
		Strategy:   strategy.Config{Kind: strategy.RealTime, Multicore: true},
		Template:   []string{"cat", "$inp1"},
		Transport:  tr,
		MasterAddr: addr,
		Workers:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl2.Start(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		store, err := NewDirStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ctl2.SpawnWorker(ctx, WorkerConfig{
			Name: fmt.Sprintf("w%d", i), Cores: 2, Store: store,
		}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := ctl2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl2.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if r.Succeeded != 6 {
		t.Fatalf("report = %+v (errors %v)", r, r.WorkerErrors)
	}
	outputs := map[string]bool{}
	for _, res := range r.Results {
		outputs[res.Output] = true
	}
	for i := 0; i < 6; i++ {
		if !outputs[fmt.Sprintf("content-%d", i)] {
			t.Fatalf("missing output content-%d in %v", i, outputs)
		}
	}
	cancel()
	<-serveErr
}

// A controller of a master it does not run (frieda-controller's setup)
// reports the staging phase's time and the returned output bytes that
// MASTER_DONE carries: the master's own figures.
func TestStandaloneMasterReportsStagingAndOutputs(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tr := transport.NewMem(nil)
	m, err := NewMaster(MasterConfig{
		Source: sourceWithFiles(4, 100), Transport: tr, Addr: "master", OutputSink: NewMemStore(),
	})
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- m.Serve(ctx) }()
	ctl, err := NewController(ControllerConfig{
		Strategy: strategy.PrePartitionedRemote, Transport: tr, MasterAddr: "master", Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	// Each task returns one 12-byte output: 48 bytes in all.
	prog := FuncProgram(func(ctx context.Context, task Task) (string, error) {
		return "", task.AddOutput(task.Inputs[0]+".out", strings.NewReader(task.Inputs[0][:8]+".out"))
	})
	for i := 0; i < 2; i++ {
		if _, err := ctl.SpawnWorker(ctx, WorkerConfig{Name: fmt.Sprintf("w%d", i), Cores: 1, Store: NewMemStore(), Program: prog}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := ctl.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := m.Report()
	if err := ctl.Shutdown(); err != nil {
		t.Fatal(err)
	}
	cancel()
	<-serveErr
	if r.Succeeded != 4 || want.OutputBytes != 48 || want.TransferPhaseSec <= 0 {
		t.Fatalf("controller report %+v, master report %+v", r, want)
	}
	if r.TransferPhaseSec != want.TransferPhaseSec || r.OutputBytes != want.OutputBytes {
		t.Fatalf("controller reads staging %vs and %d output bytes, the master %vs and %d",
			r.TransferPhaseSec, r.OutputBytes, want.TransferPhaseSec, want.OutputBytes)
	}
	// A standalone master sends the whole result list in MASTER_DONE.
	if !slices.Equal(r.Results, want.Results) {
		t.Fatalf("controller reads results %+v, the master %+v", r.Results, want.Results)
	}
}

// An in-process master's controller reads the results from the master, so
// its MASTER_DONE carries the run's figures and no results: a job of 4,096
// groups sends one of the same size as a job of 64. The files are empty, so
// that the figures encode to the same length in both.
func TestInProcessMasterDoneCarriesNoResults(t *testing.T) {
	var sizes []int
	for _, groups := range []int{64, 4096} {
		log := &wireLog{Transport: transport.NewMem(nil)}
		r := (&testHarness{
			source:   sourceWithFiles(groups, 0),
			strategy: strategy.RealTimeRemote,
			program:  echoProgram(),
			workers:  2,
			tr:       log,
		}).run(t)
		seen := make([]bool, groups)
		for _, res := range r.Results {
			if !res.OK || seen[res.GroupIndex] {
				t.Fatalf("%d groups: result %+v failed or reported twice", groups, res)
			}
			seen[res.GroupIndex] = true
		}
		if r.Groups != groups || len(r.Results) != groups || r.Succeeded != groups {
			t.Fatalf("%d groups: report has %d groups, %d results, %d succeeded", groups, r.Groups, len(r.Results), r.Succeeded)
		}
		var done []*protocol.Message
		for _, c := range log.conns {
			for i := range c.sent {
				if c.sent[i].Type == protocol.TMasterDone {
					done = append(done, &c.sent[i])
				}
			}
		}
		if len(done) != 1 {
			t.Fatalf("%d groups: %d MASTER_DONE sent", groups, len(done))
		}
		var frame bytes.Buffer
		if err := protocol.NewCodec(&frame).Send(done[0]); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, frame.Len())
	}
	if sizes[0] != sizes[1] {
		t.Fatalf("MASTER_DONE is %d bytes after 64 groups and %d after 4,096", sizes[0], sizes[1])
	}
}

// A finished master hands out its result list without copying it: reading
// the report of a run of 4,096 groups allocates what reading one of 64 does
// (a copy would be about 72 bytes a group).
func TestFinishedReportDoesNotCopyResults(t *testing.T) {
	var perCall []uint64
	for _, groups := range []int{64, 4096} {
		var ctl *Controller
		r := (&testHarness{
			source:   sourceWithFiles(groups, 0),
			strategy: strategy.RealTimeRemote,
			program:  echoProgram(),
			workers:  2,
			running:  func(c *Controller) { ctl = c },
		}).run(t)
		if r.Succeeded != groups {
			t.Fatalf("%d groups: %d succeeded (worker errors %v)", groups, r.Succeeded, r.WorkerErrors)
		}
		const calls = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range calls {
			if r, err := ctl.Wait(context.Background()); err != nil || len(r.Results) != groups {
				t.Fatalf("%d groups: Wait read %d results, %v", groups, len(r.Results), err)
			}
		}
		runtime.ReadMemStats(&after)
		perCall = append(perCall, (after.TotalAlloc-before.TotalAlloc)/calls)
	}
	if perCall[1] > perCall[0]+256 {
		t.Fatalf("reading a finished report allocates %d bytes after 64 groups and %d after 4,096", perCall[0], perCall[1])
	}
}

func TestThrottledTransferContention(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	// A 1 MB/s master uplink and 400 KB of data: the run cannot beat the
	// serialisation bound of ~0.4 s.
	h := &testHarness{
		source:   sourceWithFiles(8, 50_000),
		strategy: strategy.Config{Kind: strategy.RealTime, Multicore: true},
		program:  echoProgram(),
		workers:  4,
		limiter:  transport.NewLimiter(1e6, 32e3),
	}
	start := time.Now()
	r := h.run(t)
	elapsed := time.Since(start).Seconds()
	if r.Succeeded != 8 {
		t.Fatalf("report = %+v", r)
	}
	if elapsed < 0.3 {
		t.Fatalf("run finished in %.3fs, below the bandwidth bound", elapsed)
	}
}

func TestDuplicateWorkerNameRejected(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tr := transport.NewMem(nil)
	ctl, err := NewController(ControllerConfig{
		Strategy:        strategy.Config{Kind: strategy.RealTime},
		Transport:       tr,
		MasterAddr:      "master",
		InProcessMaster: true,
		Master:          MasterConfig{Source: sourceWithFiles(4, 10)},
		Workers:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.SpawnWorker(ctx, WorkerConfig{Name: "dup", Cores: 1, Program: echoProgram()}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if _, err := ctl.SpawnWorker(ctx, WorkerConfig{Name: "dup", Cores: 1, Program: echoProgram()}); err != nil {
		t.Fatal(err)
	}
	// The duplicate is rejected and surfaces as a controller-visible error.
	// The run cannot start before it has: it waits for a second worker.
	for found := false; !found; time.Sleep(time.Millisecond) {
		if ctx.Err() != nil {
			t.Fatalf("duplicate registration not reported: %v", ctl.Errors())
		}
		for _, e := range ctl.Errors() {
			found = found || strings.Contains(e.Detail, "duplicate")
		}
	}
	// Spawn a real second worker so the run completes.
	if _, err := ctl.SpawnWorker(ctx, WorkerConfig{Name: "w1", Cores: 1, Program: echoProgram()}); err != nil {
		t.Fatal(err)
	}
	r, err := ctl.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Shutdown()
	if r.Succeeded != 4 {
		t.Fatalf("report = %+v", r)
	}
}

func TestControllerValidation(t *testing.T) {
	if _, err := NewController(ControllerConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := NewController(ControllerConfig{Transport: transport.NewMem(nil), MasterAddr: "m"}); err == nil {
		t.Fatal("zero workers accepted")
	}
	if _, err := NewWorker(WorkerConfig{}); err == nil {
		t.Fatal("empty worker config accepted")
	}
	if _, err := NewMaster(MasterConfig{}); err == nil {
		t.Fatal("empty master config accepted")
	}
}
