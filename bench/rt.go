package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"frieda"
	"frieda/internal/catalog"
	"frieda/internal/core"
	"frieda/internal/strategy"
	"frieda/internal/transport"
)

// rtSpec describes one real-runtime workload. All are closed loops: each
// worker slot asks for its next task when the previous one completes.
type rtSpec struct {
	files    int
	fileSize int
	strat    strategy.Config
	workers  int
	cores    int
	// tcp selects transport.NewTCP() on loopback; otherwise the in-memory
	// transport.
	tcp bool
	// viaRun makes the untraced job go through the public frieda.Run.
	viaRun bool
	// outSize, when > 0, makes every task return that many bytes through
	// Task.AddOutput into an OutputSink.
	outSize int
	iters   int
}

func withGrouping(s strategy.Config, grouping string) strategy.Config {
	s.Grouping = grouping
	return s
}

var rtSpecs = map[string]rtSpec{
	"rt_small_tcp": {
		files: 8192, fileSize: 1 << 10, strat: withGrouping(strategy.RealTimeRemote, "single"),
		workers: 2, cores: 1, tcp: true, iters: 12,
	},
	"rt_bulk_tcp": {
		files: 32, fileSize: 8 << 20, strat: withGrouping(strategy.RealTimeRemote, "single"),
		workers: 2, cores: 1, tcp: true, iters: 26,
	},
	"rt_return_mem": {
		files: 2048, fileSize: 64 << 10, strat: withGrouping(strategy.PrePartitionedRemote, "pairwise-adjacent"),
		workers: 2, cores: 2, viaRun: true, outSize: 16 << 10, iters: 52,
	},
}

// jobTimeout bounds one job; a healthy one takes about a second.
const jobTimeout = 60 * time.Second

// rtWorkload is one rt_* workload with its generated inputs.
type rtWorkload struct {
	name string
	spec rtSpec
	opts options

	// Inputs, made from the seed by setup.
	src      *catalog.MemSource
	dataset  frieda.Dataset
	sums     map[string]uint32 // input name -> CRC of its content
	outSums  map[string]uint32 // output name -> CRC of its content
	tasks    int
	inBytes  int64
	outBytes int64

	// corrupted is set by the program when an input fails its CRC.
	corrupted atomic.Bool
	bufs      sync.Pool

	trace *rtTrace
	// payloadRates holds the traced iterations' payload rates, MB/s.
	payloadRates []float64
}

func newRTWorkload(name string, opts options) *rtWorkload {
	spec := rtSpecs[name]
	// -scale shrinks the job's bytes: fewer files first and, once the file
	// count is at its floor of 8, smaller files.
	target := float64(spec.files) * float64(spec.fileSize) * opts.scale
	spec.files = int(float64(spec.files) * opts.scale)
	if spec.files < 8 {
		spec.files = 8
	}
	spec.files &^= 1 // pairwise grouping wants an even count
	if size := int(target) / spec.files; size < spec.fileSize {
		spec.fileSize = size
		if floor := 1<<10 + spec.outSize; spec.fileSize < floor {
			spec.fileSize = floor
		}
	}
	w := &rtWorkload{name: name, spec: spec, opts: opts}
	w.bufs.New = func() any { b := make([]byte, 64<<10); return &b }
	return w
}

func (w *rtWorkload) itersPer10s() int { return w.spec.iters }

// setup generates the payloads and runs one warm-up job.
func (w *rtWorkload) setup(ctx context.Context) error {
	w.generate()
	if s := w.job(ctx, -1, false, false); s.bad != nil {
		return s.bad
	}
	return nil
}

// generate builds the input files from the seed: one seeded random block of
// the file size, stamped per file with the seed and the file's index so
// every file has its own content and checksum. The seed also salts the
// names. Outputs are defined as the first outSize bytes of a task's first
// input, so their checksums are known here too.
func (w *rtWorkload) generate() {
	spec := w.spec
	rng := rand.New(rand.NewSource(w.opts.seed))
	base := make([]byte, spec.fileSize)
	rng.Read(base)
	w.src = catalog.NewMemSource()
	w.sums = make(map[string]uint32, spec.files)
	w.outSums = make(map[string]uint32)
	files := make(map[string][]byte, spec.files)
	perTask := 1
	if spec.strat.Grouping == "pairwise-adjacent" {
		perTask = 2
	}
	for i := 0; i < spec.files; i++ {
		name := fmt.Sprintf("s%x-f%06d.dat", uint64(w.opts.seed), i)
		data := append([]byte(nil), base...)
		binary.LittleEndian.PutUint64(data[0:], uint64(w.opts.seed))
		binary.LittleEndian.PutUint64(data[8:], uint64(i))
		w.sums[name] = crc32.ChecksumIEEE(data)
		if spec.outSize > 0 && i%perTask == 0 {
			w.outSums[name+".out"] = crc32.ChecksumIEEE(data[:spec.outSize])
		}
		files[name] = data
		w.src.Put(name, data)
	}
	if w.opts.corrupt {
		files[fmt.Sprintf("s%x-f%06d.dat", uint64(w.opts.seed), spec.files/2)][spec.fileSize/2] ^= 0xff
	}
	w.dataset = frieda.MemDataset(files)
	w.tasks = spec.files / perTask
	w.inBytes = int64(spec.files) * int64(spec.fileSize)
	w.outBytes = int64(len(w.outSums)) * int64(spec.outSize)
}

// program checks the CRC of every input it is handed, counts the execution
// of its group, and returns the task's output when the workload has one.
func (w *rtWorkload) program(runs []atomic.Int32) core.FuncProgram {
	return func(ctx context.Context, task core.Task) (string, error) {
		for _, name := range task.Inputs {
			rc, err := task.Store.Open(name)
			if err != nil {
				return "", err
			}
			h := crc32.NewIEEE()
			buf := w.bufs.Get().(*[]byte)
			_, err = io.CopyBuffer(h, rc, *buf)
			w.bufs.Put(buf)
			rc.Close()
			if err != nil {
				return "", err
			}
			if h.Sum32() != w.sums[name] {
				w.corrupted.Store(true)
				return "", fmt.Errorf("input %s: CRC %08x, want %08x", name, h.Sum32(), w.sums[name])
			}
		}
		if task.GroupIndex >= 0 && task.GroupIndex < len(runs) {
			runs[task.GroupIndex].Add(1)
		}
		if w.spec.outSize > 0 {
			rc, err := task.Store.Open(task.Inputs[0])
			if err != nil {
				return "", err
			}
			defer rc.Close()
			return "", task.AddOutput(task.Inputs[0]+".out", io.LimitReader(rc, int64(w.spec.outSize)))
		}
		return "", nil
	}
}

func (w *rtWorkload) iterate(ctx context.Context, iter int, traced bool) iterStats {
	return w.job(ctx, iter, traced, false)
}

// job runs one controller job — controller start, Wait, Shutdown — and
// verifies it. A job is never retried: if it errors or loses a worker, its
// unreported tasks count as failed.
func (w *rtWorkload) job(ctx context.Context, iter int, traced, batch bool) iterStats {
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	goroutines := runtime.NumGoroutine()
	runs := make([]atomic.Int32, w.tasks)
	var sink *core.MemStore
	if w.spec.outSize > 0 {
		sink = core.NewMemStore()
	}
	w.corrupted.Store(false)
	var tr *rtTrace
	if traced {
		if w.trace == nil {
			w.trace = newRTTrace(w.name)
		}
		tr = w.trace
	}

	var rep core.Report
	var err error
	stats := iterStats{attempted: w.tasks}
	stats.wall, stats.alloc, stats.mallocs = timed(func() {
		if w.spec.viaRun && !traced && !batch {
			cfg := frieda.RunConfig{
				Strategy: w.spec.strat, Dataset: w.dataset, Program: w.program(runs),
				Workers: w.spec.workers, CoresPerWorker: w.spec.cores,
			}
			if sink != nil {
				cfg.OutputSink = sink
			}
			rep, err = frieda.Run(ctx, cfg)
			return
		}
		rep, err = w.controllerJob(ctx, iter, w.program(runs), sink, tr, batch)
	})

	stats.ops = rep.Succeeded
	stats.failed = w.tasks - rep.Succeeded
	stats.bad = w.verify(rep, err, runs, sink)
	if stats.bad == nil {
		stats.bad = settleGoroutines(goroutines)
	}
	if traced && !batch && stats.wall > 0 {
		w.payloadRates = append(w.payloadRates, float64(rep.BytesMoved+rep.OutputBytes)/1e6/stats.wall.Seconds())
	}
	return stats
}

// controllerJob is frieda.Run built by hand so that the transport, source,
// program, stores and sink can be the tracing wrappers (tr != nil) and the
// transport can be TCP. Master, workers and controller are goroutines of
// this process; Shutdown joins them.
func (w *rtWorkload) controllerJob(ctx context.Context, iter int, prog core.Program, sink *core.MemStore, tr *rtTrace, batch bool) (core.Report, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var tp transport.Transport = transport.NewMem(nil)
	addr := "frieda-master"
	if w.spec.tcp {
		tp = newLoopback(transport.NewTCP())
		addr = "127.0.0.1:0"
	}
	var source catalog.Source = w.src
	var sinkStore core.Store
	if sink != nil {
		sinkStore = sink
	}
	newStore := func() core.Store { return core.NewMemStore() }
	if tr != nil {
		tr.beginJob(iter)
		defer tr.endJob()
		tp = &traceTransport{Transport: tp, t: tr}
		source = &traceSource{Source: source, t: tr}
		prog = tr.wrapProgram(prog)
		if sink != nil {
			sinkStore = &traceStore{Store: sink, t: tr, sink: true}
		}
		newStore = func() core.Store { return &traceStore{Store: core.NewMemStore(), t: tr} }
	}
	ctl, err := core.NewController(core.ControllerConfig{
		Strategy: w.spec.strat, Transport: tp, MasterAddr: addr, InProcessMaster: true,
		Master:  core.MasterConfig{Source: source, OutputSink: sinkStore, Batch: batch},
		Workers: w.spec.workers,
		// Only failure paths wait this long: a Shutdown whose master is gone.
		AckTimeout: 10 * time.Second,
	})
	if err != nil {
		return core.Report{}, err
	}
	// Whatever happens below, Shutdown runs: it is what closes the listener
	// and joins the master's and the workers' goroutines.
	phase := tr.phase("core.controller_start")
	err = ctl.Start(ctx)
	phase()
	if err == nil {
		phase = tr.phase("core.spawn_workers")
		for i := 0; i < w.spec.workers && err == nil; i++ {
			_, err = ctl.SpawnWorker(ctx, core.WorkerConfig{
				Name: fmt.Sprintf("w%d", i), Cores: w.spec.cores, Store: newStore(), Program: prog,
			})
		}
		phase()
	}
	var rep core.Report
	if err == nil {
		phase = tr.phase("core.wait")
		rep, err = ctl.Wait(ctx)
		phase()
	}
	if err != nil {
		// A failed job's master and workers stop on their cancelled
		// context; nothing else would end them.
		cancel()
	}
	phase = tr.phase("core.shutdown")
	serr := ctl.Shutdown()
	phase()
	if err == nil && serr != nil {
		err = fmt.Errorf("shutdown: %w", serr)
	}
	if tr != nil && err == nil {
		tr.noteReport(rep)
	}
	return rep, err
}

// verify applies the correctness checks of one job. Lost tasks are failed
// operations, not incorrect ones; wrong bytes, a group reported twice or
// executed twice, a short byte count or a damaged output are incorrect.
func (w *rtWorkload) verify(rep core.Report, err error, runs []atomic.Int32, sink *core.MemStore) error {
	if w.corrupted.Load() {
		return fmt.Errorf("a task was handed an input whose CRC does not match")
	}
	if err != nil {
		return fmt.Errorf("job: %w", err)
	}
	if rep.Groups != w.tasks || len(rep.Results) != rep.Groups || rep.Succeeded+rep.Failed != rep.Groups {
		return fmt.Errorf("report has %d groups, %d results, %d ok + %d failed; want %d groups",
			rep.Groups, len(rep.Results), rep.Succeeded, rep.Failed, w.tasks)
	}
	reported := make([]bool, w.tasks)
	for _, r := range rep.Results {
		if r.GroupIndex < 0 || r.GroupIndex >= w.tasks || reported[r.GroupIndex] {
			return fmt.Errorf("group %d reported twice or out of range", r.GroupIndex)
		}
		reported[r.GroupIndex] = true
		if n := runs[r.GroupIndex].Load(); r.OK && n != 1 {
			return fmt.Errorf("group %d reported OK but executed %d times", r.GroupIndex, n)
		}
	}
	if rep.Succeeded < rep.Groups {
		return nil // failed operations; counted, and nothing more to compare
	}
	if rep.BytesMoved < w.inBytes {
		return fmt.Errorf("report moved %d bytes, payload is %d", rep.BytesMoved, w.inBytes)
	}
	if sink != nil {
		if rep.OutputBytes != w.outBytes {
			return fmt.Errorf("report returned %d output bytes, want %d", rep.OutputBytes, w.outBytes)
		}
		for name, sum := range w.outSums {
			data, ok := sink.Bytes(name)
			if !ok || len(data) != w.spec.outSize || crc32.ChecksumIEEE(data) != sum {
				return fmt.Errorf("output %s missing or damaged in the sink (%d bytes)", name, len(data))
			}
		}
	}
	return nil
}

// loopback is the address shim TCP needs: the master listens on
// 127.0.0.1:0 and the shim hands the bound address to whoever dials. It
// wraps no Conn and adds no per-message work.
type loopback struct {
	inner transport.Transport
	bound chan struct{} // closed once Listen has returned
	addr  string
}

func newLoopback(inner transport.Transport) *loopback {
	return &loopback{inner: inner, bound: make(chan struct{})}
}

// Listen implements transport.Transport; one job listens once.
func (l *loopback) Listen(string) (transport.Listener, error) {
	defer close(l.bound)
	ln, err := l.inner.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l.addr = ln.Addr()
	return ln, nil
}

// Dial implements transport.Transport. It waits for the listener instead of
// failing, so the controller's 10 ms redial sleep never enters a job's time.
func (l *loopback) Dial(string) (transport.Conn, error) {
	<-l.bound
	if l.addr == "" {
		return nil, fmt.Errorf("bench: master never bound a port")
	}
	return l.inner.Dial(l.addr)
}
