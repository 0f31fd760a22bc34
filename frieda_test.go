package frieda

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"frieda/internal/catalog"
	"frieda/internal/cloud"
)

func countingProgram() Program {
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

func memFiles(n, size int) map[string][]byte {
	files := map[string][]byte{}
	for i := 0; i < n; i++ {
		files[fmt.Sprintf("f%03d.dat", i)] = []byte(strings.Repeat("z", size))
	}
	return files
}

// uniform is a sizes-only dataset of n files of size bytes, named
// prefix-00000 on: n groups of one file each under the single grouping.
func uniform(prefix string, n int, size int64) Dataset {
	files := make([]FileMeta, n)
	for i := range files {
		files[i] = FileMeta{Name: fmt.Sprintf("%s-%05d", prefix, i), Size: size}
	}
	return SizedDataset(files...)
}

func TestRunRealTime(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	report, err := Run(ctx, RunConfig{
		Strategy: RealTimeRemote,
		Dataset:  MemDataset(memFiles(12, 64)),
		Program:  countingProgram(),
		Workers:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Succeeded != 12 || report.Failed != 0 {
		t.Fatalf("report = %+v", report)
	}
	for _, res := range report.Results {
		if res.Output != "64" {
			t.Fatalf("task output = %q", res.Output)
		}
	}
}

// The window rule on the public path: real-time with a Prefetch of 0, one
// file of 1 KiB per task, on a lone worker and on a pair whose second
// worker sleeps 100 µs a task. The windows grow from one group per slot as
// statuses come back, and every group runs once and succeeds.
func TestRunGrowsWindow(t *testing.T) {
	const tasks = 2000
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			var mu sync.Mutex
			speed := map[Store]int{} // each worker's store, in order of its first task
			ran := make([]atomic.Int32, tasks)
			prog := FuncProgram(func(ctx context.Context, task Task) (string, error) {
				mu.Lock()
				i, ok := speed[task.Store]
				if !ok {
					i = len(speed)
					speed[task.Store] = i
				}
				mu.Unlock()
				ran[task.GroupIndex].Add(1)
				if i == 1 {
					time.Sleep(100 * time.Microsecond)
				}
				return "", nil
			})
			strat := RealTimeRemote
			strat.Grouping = "single"
			report, err := Run(ctx, RunConfig{
				Strategy: strat, Dataset: MemDataset(memFiles(tasks, 1<<10)), Program: prog,
				Workers: workers, CoresPerWorker: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if report.Succeeded != tasks || report.Failed != 0 {
				t.Fatalf("%d of %d succeeded, %d failed", report.Succeeded, tasks, report.Failed)
			}
			for gi := range ran {
				if n := ran[gi].Load(); n != 1 {
					t.Fatalf("group %d ran %d times", gi, n)
				}
			}
		})
	}
}

func TestRunPrePartitionWithGrouping(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	strat := PrePartitionedRemote
	strat.Grouping = "pairwise-adjacent"
	report, err := Run(ctx, RunConfig{
		Strategy: strat,
		Dataset:  MemDataset(memFiles(10, 32)),
		Program:  countingProgram(),
		Workers:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Groups != 5 || report.Succeeded != 5 {
		t.Fatalf("report = %+v", report)
	}
	for _, res := range report.Results {
		if res.Output != "64" { // two 32-byte files per group
			t.Fatalf("pair output = %q", res.Output)
		}
	}
}

// README's first example: an unmodified binary over a dataset, once from
// memory and once from an input directory (DirDataset).
func TestRunExternalTemplate(t *testing.T) {
	files := map[string][]byte{"a.txt": []byte("alpha"), "b.txt": []byte("beta")}
	dir := t.TempDir()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name    string
		dataset Dataset
	}{{"mem", MemDataset(files)}, {"dir", DirDataset(dir)}} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			report, err := Run(ctx, RunConfig{
				Strategy: RealTimeRemote,
				Dataset:  tc.dataset,
				Template: []string{"cat", "$inp1"},
				Workers:  2,
				WorkDir:  t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if report.Succeeded != 2 {
				t.Fatalf("report = %+v (%v)", report, report.WorkerErrors)
			}
			got := map[string]bool{}
			for _, res := range report.Results {
				got[res.Output] = true
			}
			if !got["alpha"] || !got["beta"] {
				t.Fatalf("outputs = %v", got)
			}
		})
	}
}

// A name that starts with two dots but is not a parent reference, such as
// "..notes.txt", is a file of the input directory like any other: the
// master reads it from the source and the workers store it in their work
// directories.
func TestRunDirDatasetWithDotDotName(t *testing.T) {
	dir := t.TempDir()
	for name, data := range map[string]string{"..notes.txt": "notes", "a.txt": "alpha"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	report, err := Run(ctx, RunConfig{
		Strategy: RealTimeRemote,
		Dataset:  DirDataset(dir),
		Template: []string{"cat", "$inp1"},
		Workers:  2,
		WorkDir:  t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Succeeded != 2 {
		t.Fatalf("report = %+v (%v)", report, report.WorkerErrors)
	}
}

func TestRunValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Run(ctx, RunConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	ds := MemDataset(memFiles(1, 1))
	if _, err := Run(ctx, RunConfig{Dataset: ds, Workers: 1}); err == nil {
		t.Fatal("missing program accepted")
	}
	if _, err := Run(ctx, RunConfig{Dataset: ds, Workers: 1, Program: countingProgram(), Template: []string{"cat"}}); err == nil {
		t.Fatal("both program and template accepted")
	}
	if _, err := Run(ctx, RunConfig{Dataset: ds, Workers: 0, Program: countingProgram()}); err == nil {
		t.Fatal("zero workers accepted")
	}
	// The zero Strategy is no-partition, as RunConfig documents.
	if r, err := Run(ctx, RunConfig{Dataset: ds, Workers: 1, Program: countingProgram()}); err != nil || r.Strategy != "no-partition/remote/data-to-compute grouping=single" {
		t.Fatalf("zero strategy ran as %q (%v)", r.Strategy, err)
	}
}

func TestSimulateUniform(t *testing.T) {
	res, err := Simulate(SimConfig{Strategy: RealTimeRemote, Dataset: uniform("u", 32, 1000), ComputeSec: 1.0, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded != 32 {
		t.Fatalf("result = %+v", res)
	}
	// 32 tasks / 16 slots ≈ 2 s + small I/O.
	if res.MakespanSec < 2 || res.MakespanSec > 3 {
		t.Fatalf("makespan = %.3f", res.MakespanSec)
	}
}

func TestSimulateScriptedFailure(t *testing.T) {
	res, err := Simulate(SimConfig{
		Strategy:   RealTimeRemote,
		Dataset:    uniform("f", 64, 0),
		ComputeSec: 1.0,
		Workers:    4,
		FailAtSec:  map[int]float64{0: 1.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Abandoned == 0 {
		t.Fatal("scripted failure lost no work")
	}
	if res.Succeeded+res.Abandoned != 64 {
		t.Fatalf("accounting: %+v", res)
	}
	// With recovery everything completes.
	res2, err := Simulate(SimConfig{
		Strategy:   RealTimeRemote,
		Dataset:    uniform("f", 64, 0),
		ComputeSec: 1.0,
		Workers:    4,
		FailAtSec:  map[int]float64{0: 1.5},
		Recover:    true, MaxRetries: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Succeeded != 64 {
		t.Fatalf("recovery incomplete: %+v", res2)
	}
}

func TestSimulateElasticAdd(t *testing.T) {
	base, err := Simulate(SimConfig{Strategy: RealTimeRemote, Dataset: uniform("e", 40, 0), ComputeSec: 1.0, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	grown, err := Simulate(SimConfig{
		Strategy: RealTimeRemote, Dataset: uniform("e", 40, 0), ComputeSec: 1.0, Workers: 1,
		AddWorkerAtSec: []float64{2.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if grown.MakespanSec >= base.MakespanSec {
		t.Fatalf("elastic add did not help: %.2f vs %.2f", grown.MakespanSec, base.MakespanSec)
	}
}

// The shared refusal table: Simulate refuses a job it cannot run before it
// schedules anything, and the two executors refuse one invalid strategy
// with the one error its Validate gives.
func TestSimulateValidation(t *testing.T) {
	nan := math.NaN()
	huge := cloud.C1XLarge
	huge.Cores = 1 << 30
	valid := SimConfig{Strategy: RealTimeRemote, Dataset: uniform("x", 4, 0), ComputeSec: 1, Workers: 4}
	if _, err := Simulate(valid); err != nil {
		t.Fatalf("the valid job: %v", err)
	}
	for _, tc := range []struct {
		name  string
		edit  func(*SimConfig)
		is    error  // the refusal's kind, where it has one
		names string // what the refusal names, where it names something
		both  bool   // an invalid strategy, which Run refuses too
	}{
		{name: "negative workers", edit: func(c *SimConfig) { c.Workers = -1 }},
		{name: "zero workers", edit: func(c *SimConfig) { c.Workers = 0 }},
		{name: "failure index out of range", edit: func(c *SimConfig) { c.FailAtSec = map[int]float64{99: 1} }},
		{name: "negative failure index", edit: func(c *SimConfig) { c.FailAtSec = map[int]float64{-1: 1} }},
		{name: "negative failure time", edit: func(c *SimConfig) { c.FailAtSec = map[int]float64{0: -1} }},
		{name: "NaN failure time", edit: func(c *SimConfig) { c.FailAtSec = map[int]float64{0: nan} }},
		{name: "negative add time", edit: func(c *SimConfig) { c.AddWorkerAtSec = []float64{1, -0.5} }},
		{name: "NaN add time", edit: func(c *SimConfig) { c.AddWorkerAtSec = []float64{nan} }},
		{name: "negative MTBF", edit: func(c *SimConfig) { c.FailureMTBFSec = -10 }},
		{name: "a VM of 2^30 cores", edit: func(c *SimConfig) { c.Instance = huge }},
		{name: "no dataset", edit: func(c *SimConfig) { c.Dataset = Dataset{} }},
		{name: "negative ComputeSec", edit: func(c *SimConfig) { c.ComputeSec = -1 }},
		{name: "NaN ComputeSec", edit: func(c *SimConfig) { c.ComputeSec = nan }},
		{name: "infinite ComputeSec", edit: func(c *SimConfig) { c.ComputeSec = math.Inf(1) }},
		{name: "file listed twice", edit: func(c *SimConfig) {
			c.Dataset = SizedDataset(FileMeta{Name: "b"}, FileMeta{Name: "a"}, FileMeta{Name: "b"})
		}, is: catalog.ErrDuplicate},
		{name: "remote common file the dataset lacks", edit: func(c *SimConfig) { c.Strategy.CommonFiles = []string{"db.bin"} }, names: `"db.bin"`},
		{name: "unknown grouping", edit: func(c *SimConfig) { c.Strategy.Grouping = "no-such-grouping" }, both: true},
		{name: "prefetch past MaxPrefetch", edit: func(c *SimConfig) { c.Strategy.Prefetch = 1 << 32 }, both: true},
		{name: "kind out of range", edit: func(c *SimConfig) { c.Strategy.Kind = 7 }, both: true},
		{name: "local real-time", edit: func(c *SimConfig) { c.Strategy.Locality = Local }, both: true},
		{name: "no-partition compute-to-data", edit: func(c *SimConfig) { c.Strategy = CommonData; c.Strategy.Placement = ComputeToData }, both: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid
			tc.edit(&cfg)
			_, err := Simulate(cfg)
			switch {
			case err == nil:
				t.Fatal("accepted")
			case tc.is != nil && !errors.Is(err, tc.is):
				t.Fatalf("refused with %v, not a %v", err, tc.is)
			case !strings.Contains(err.Error(), tc.names):
				t.Fatalf("refused with %v, which does not name %s", err, tc.names)
			}
			if !tc.both {
				return
			}
			verr := cfg.Strategy.Validate()
			if verr == nil || err.Error() != verr.Error() {
				t.Fatalf("Simulate refused with %v, Validate with %v", err, verr)
			}
			_, rerr := Run(context.Background(), RunConfig{Strategy: cfg.Strategy, Dataset: MemDataset(memFiles(4, 8)), Program: countingProgram(), Workers: 2})
			if rerr == nil || rerr.Error() != verr.Error() {
				t.Fatalf("Run refused with %v, Validate with %v", rerr, verr)
			}
		})
	}
	t.Run("Run given a sizes-only dataset", func(t *testing.T) {
		if _, err := Run(context.Background(), RunConfig{Dataset: valid.Dataset, Program: countingProgram(), Workers: 1}); !errors.Is(err, ErrSizesOnly) {
			t.Fatalf("Run refused with %v, not ErrSizesOnly", err)
		}
	})
}

// A Prefetch past strategy.MaxPrefetch is refused up front by both entry
// points: its window would wrap to zero, and the run would wait for ever.
func TestUnboundedPrefetchRefused(t *testing.T) {
	strat := RealTimeRemote
	strat.Prefetch = 1 << 32
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := Run(ctx, RunConfig{Strategy: strat, Dataset: MemDataset(memFiles(4, 8)), Program: countingProgram(), Workers: 2}); err == nil || ctx.Err() != nil {
		t.Fatalf("Run with prefetch %d: %v (context %v)", strat.Prefetch, err, ctx.Err())
	}
	if _, err := Simulate(SimConfig{Strategy: strat, Dataset: uniform("p", 8, 0), ComputeSec: 1, Workers: 4}); err == nil {
		t.Fatalf("Simulate accepted prefetch %d", strat.Prefetch)
	}
}

// The simulator's half of core's TestTailRunsAsAtWindowOne: four tasks on
// four one-slot workers run one each with the window left to the rule (a
// Prefetch of 0, which 1,000-byte inputs let grow), as at a window of one.
func TestSimulateTailRunsAsAtWindowOne(t *testing.T) {
	one := cloud.C1XLarge
	one.Cores = 1
	run := func(prefetch int) SimResult {
		strat := RealTimeRemote
		strat.Prefetch = prefetch
		res, err := Simulate(SimConfig{Strategy: strat, Dataset: uniform("t", 4, 1000), ComputeSec: 1, Workers: 4, Instance: one})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	def, strict := run(0), run(1)
	if len(def.PerWorker) != 4 || !reflect.DeepEqual(def.PerWorker, strict.PerWorker) || def.MakespanSec != strict.MakespanSec {
		t.Fatalf("default window: %v in %.3f s; window of one: %v in %.3f s", def.PerWorker, def.MakespanSec, strict.PerWorker, strict.MakespanSec)
	}
}

// TestSimulateSimultaneousFailuresDeterministic: failures scripted for the
// same instant, while every worker is mid-task, fire in worker-index order,
// so equal configs give equal results.
func TestSimulateSimultaneousFailuresDeterministic(t *testing.T) {
	cfg := SimConfig{
		Strategy:   RealTimeRemote,
		Dataset:    uniform("s", 48, 1000),
		ComputeSec: 10,
		Workers:    3,
		FailAtSec:  map[int]float64{0: 5, 1: 5, 2: 5},
	}
	first, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 20; i++ {
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, first) {
			t.Fatalf("run %d differs:\n%+v\nvs\n%+v", i, res.Completions, first.Completions)
		}
	}
}

func TestAdvise(t *testing.T) {
	// ALS-like: transfer-bound -> real-time.
	name, reason, cfg := Advise(8.75e9, 1250, 0.006, false, 4, 4, 100e6)
	if cfg.Kind != RealTime {
		t.Fatalf("ALS advice = %s (%s)", name, reason)
	}
	// Resident data -> compute-to-data.
	_, _, cfg = Advise(8.75e9, 1250, 0, true, 4, 4, 100e6)
	if cfg.Locality != Local {
		t.Fatalf("resident advice = %+v", cfg)
	}
}

func TestRunCollectsOutputs(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sink := NewMemStore()
	prog := FuncProgram(func(ctx context.Context, task Task) (string, error) {
		rc, err := task.Store.Open(task.Inputs[0])
		if err != nil {
			return "", err
		}
		data, _ := io.ReadAll(rc)
		rc.Close()
		// Register a derived result file for return to the master.
		result := strings.ToUpper(string(data))
		if err := task.AddOutput(task.Inputs[0]+".result", strings.NewReader(result)); err != nil {
			return "", err
		}
		return "ok", nil
	})
	files := map[string][]byte{}
	for i := 0; i < 6; i++ {
		files[fmt.Sprintf("in%02d.txt", i)] = []byte(fmt.Sprintf("payload-%d", i))
	}
	report, err := Run(ctx, RunConfig{
		Strategy:   RealTimeRemote,
		Dataset:    MemDataset(files),
		Program:    prog,
		Workers:    2,
		OutputSink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Succeeded != 6 {
		t.Fatalf("report = %+v", report)
	}
	if report.OutputBytes == 0 {
		t.Fatal("no output bytes recorded")
	}
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("in%02d.txt.result", i)
		data, ok := sink.Bytes(name)
		if !ok {
			t.Fatalf("output %s missing from sink", name)
		}
		if string(data) != fmt.Sprintf("PAYLOAD-%d", i) {
			t.Fatalf("output %s = %q", name, data)
		}
	}
}

func TestRunWithoutSinkLeavesOutputsLocal(t *testing.T) {
	// Without a sink (the paper's evaluated configuration), AddOutput keeps
	// the file on the worker and nothing extra crosses the wire.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	prog := FuncProgram(func(ctx context.Context, task Task) (string, error) {
		if err := task.AddOutput("result.bin", strings.NewReader(strings.Repeat("r", 1000))); err != nil {
			return "", err
		}
		if !task.Store.Has("result.bin") {
			return "", fmt.Errorf("output not stored locally")
		}
		return "ok", nil
	})
	report, err := Run(ctx, RunConfig{
		Strategy: RealTimeRemote,
		Dataset:  MemDataset(map[string][]byte{"a": []byte("xy")}),
		Program:  prog,
		Workers:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Succeeded != 1 {
		t.Fatalf("report = %+v", report)
	}
	if report.OutputBytes != 0 {
		t.Fatalf("outputs crossed the wire without a sink: %d bytes", report.OutputBytes)
	}
	// Only the 2-byte input moved.
	if report.BytesMoved != 2 {
		t.Fatalf("BytesMoved = %d", report.BytesMoved)
	}
}

// Local means the data is already on the workers. In-memory stores start
// empty, so every task fails at once, naming its input, and Run returns well
// before its context would end it.
func TestRunLocalWithoutResidentDataFailsFast(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	start := time.Now()
	report, err := Run(ctx, RunConfig{
		Strategy: PrePartitionedLocal,
		Dataset:  MemDataset(memFiles(32, 64)),
		Program:  countingProgram(),
		Workers:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Run took %v", took)
	}
	if report.Groups != 32 || report.Failed != 32 || report.Succeeded != 0 {
		t.Fatalf("report = %+v", report)
	}
	for _, res := range report.Results {
		if !strings.Contains(res.Error, "f0") || !strings.Contains(res.Error, "not on worker") {
			t.Fatalf("group %d failed with %q, want the missing input named", res.GroupIndex, res.Error)
		}
	}
}

// The same strategy over per-worker WorkDirs that already hold the dataset
// runs every task where its data lives and moves no byte.
func TestRunLocalWithPrefilledWorkDirs(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	files := memFiles(12, 64)
	dir := t.TempDir()
	for _, worker := range []string{"w0", "w1"} {
		store, err := NewDirStore(filepath.Join(dir, worker))
		if err != nil {
			t.Fatal(err)
		}
		for name, data := range files {
			if _, err := store.Put(name, bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		}
	}
	report, err := Run(ctx, RunConfig{
		Strategy: PrePartitionedLocal,
		Dataset:  MemDataset(files),
		Program:  countingProgram(),
		Workers:  2,
		WorkDir:  dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Succeeded != 12 || report.Failed != 0 || report.BytesMoved != 0 {
		t.Fatalf("report = %+v", report)
	}
}

// TestRunWide runs 1,024 one-core workers in memory. Every file goes to one
// worker under real-time and pre-partitioning, and to every worker under
// no-partitioning.
func TestRunWide(t *testing.T) {
	const workers, kib = 1024, 1 << 10
	for _, tc := range []struct {
		name     string
		strategy Strategy
		files    int
		bytes    int64
	}{
		{"real-time", RealTimeRemote, 8192, 8192 * kib},
		{"pre-partition", PrePartitionedRemote, 8192, 8192 * kib},
		{"no-partition", CommonData, 64, 64 * kib * workers},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			data := bytes.Repeat([]byte{'w'}, kib)
			files := make(map[string][]byte, tc.files)
			for i := 0; i < tc.files; i++ {
				files[fmt.Sprintf("f%05d.dat", i)] = data
			}
			report, err := Run(ctx, RunConfig{
				Strategy:       tc.strategy,
				Dataset:        MemDataset(files),
				Program:        FuncProgram(func(context.Context, Task) (string, error) { return "", nil }),
				Workers:        workers,
				CoresPerWorker: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if report.Succeeded != tc.files || report.Failed != 0 {
				t.Fatalf("%d succeeded, %d failed; want %d succeeded", report.Succeeded, report.Failed, tc.files)
			}
			if report.BytesMoved != tc.bytes {
				t.Fatalf("BytesMoved = %d, want %d", report.BytesMoved, tc.bytes)
			}
		})
	}
}
