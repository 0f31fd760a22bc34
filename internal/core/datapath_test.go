package core

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"frieda/internal/catalog"
	"frieda/internal/protocol"
	"frieda/internal/sched"
	"frieda/internal/strategy"
	"frieda/internal/transfer"
	"frieda/internal/transport"
	"frieda/internal/transport/transporttest"
)

// loopbackTCP lets a test use TCP where the in-memory transport is usual: the
// master listens on a free loopback port and dialers get the bound address.
type loopbackTCP struct {
	inner transport.Transport
	bound chan struct{}
	addr  string
}

func newLoopbackTCP() *loopbackTCP {
	return &loopbackTCP{inner: transport.NewTCP(), bound: make(chan struct{})}
}

func (l *loopbackTCP) Listen(string) (transport.Listener, error) {
	defer close(l.bound)
	ln, err := l.inner.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l.addr = ln.Addr()
	return ln, nil
}

func (l *loopbackTCP) Dial(string) (transport.Conn, error) {
	<-l.bound
	if l.addr == "" {
		return nil, errors.New("master never bound a port")
	}
	return l.inner.Dial(l.addr)
}

// testTransports makes a fresh transport per job: in-memory, and TCP loopback.
var testTransports = map[string]func() transport.Transport{
	"mem": func() transport.Transport { return transport.NewMem(nil) },
	"tcp": func() transport.Transport { return newLoopbackTCP() },
}

// --- Registration: a worker is dispatchable only after ACK and staging ---

// delayTransport holds back chosen master-to-worker messages: delay is asked
// for every message the master sends on an accepted connection, once the
// worker behind it has registered.
type delayTransport struct {
	transport.Transport
	delay func(worker string, m *protocol.Message) time.Duration
}

func (d *delayTransport) Listen(addr string) (transport.Listener, error) {
	l, err := d.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &delayListener{Listener: l, d: d}, nil
}

type delayListener struct {
	transport.Listener
	d *delayTransport
}

func (l *delayListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &delayConn{Conn: c, d: l.d}, nil
}

type delayConn struct {
	transport.Conn
	d      *delayTransport
	worker atomic.Value // string, once TRegister was received
}

func (c *delayConn) Recv() (*protocol.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil && m.Type == protocol.TRegister {
		c.worker.Store(m.Worker)
	}
	return m, err
}

func (c *delayConn) Send(m *protocol.Message) error {
	if name, ok := c.worker.Load().(string); ok {
		time.Sleep(c.d.delay(name, m))
	}
	return c.Conn.Send(m)
}

// runDelayed runs a three-worker real-time job over tr and checks that every
// group is reported exactly once, all OK, and that no worker failed.
func runDelayed(t *testing.T, tr transport.Transport, src *catalog.MemSource, common []string, prog Program, groups int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ctl, err := NewController(ControllerConfig{
		Strategy:        strategy.Config{Kind: strategy.RealTime, CommonFiles: common},
		Transport:       tr,
		MasterAddr:      "master",
		InProcessMaster: true,
		Master:          MasterConfig{Source: src},
		Workers:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := ctl.SpawnWorker(ctx, WorkerConfig{Name: fmt.Sprintf("w%d", i), Cores: 1, Program: prog}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := ctl.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Shutdown(); err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for _, res := range r.Results {
		if seen[res.GroupIndex] {
			t.Errorf("group %d reported twice", res.GroupIndex)
		}
		seen[res.GroupIndex] = true
		if !res.OK {
			t.Errorf("group %d failed on %s: %s", res.GroupIndex, res.Worker, res.Error)
		}
	}
	if r.Groups != groups || r.Succeeded != groups || len(r.Results) != groups {
		t.Errorf("%d groups, %d results, %d succeeded, want %d of each (worker errors %v)",
			r.Groups, len(r.Results), r.Succeeded, groups, r.WorkerErrors)
	}
	for _, e := range ctl.Errors() {
		t.Errorf("worker %s failed: %s", e.Worker, e.Detail)
	}
}

// The master's ACK to one of three workers is 20 ms late. Nothing may reach
// that worker's connection ahead of it: at the parent commit the other
// handlers' dispatch did, and the worker left with "expected ACK, got
// FILE_DATA".
func TestDelayedAckDoesNotLetDispatchOvertake(t *testing.T) {
	tr := &delayTransport{
		Transport: transport.NewMem(nil),
		delay: func(worker string, m *protocol.Message) time.Duration {
			if worker == "w2" && m.Type == protocol.TAck {
				return 20 * time.Millisecond
			}
			return 0
		},
	}
	runDelayed(t, tr, sourceWithFiles(30, 64), nil, echoProgram(), 30)
}

// The common file's staging to one worker is 20 ms late. No task may be
// dispatched to that worker before the file is there.
func TestDelayedStagingDoesNotLetDispatchOvertake(t *testing.T) {
	src := sourceWithFiles(30, 64)
	src.Put("db.bin", []byte(strings.Repeat("D", 500)))
	tr := &delayTransport{
		Transport: transport.NewMem(nil),
		delay: func(worker string, m *protocol.Message) time.Duration {
			if worker == "w2" && m.Type == protocol.TFileData && m.FileName == "db.bin" {
				return 20 * time.Millisecond
			}
			return 0
		},
	}
	prog := FuncProgram(func(ctx context.Context, task Task) (string, error) {
		if task.Store.Size("db.bin") != 500 {
			return "", fmt.Errorf("db.bin not staged: size %d", task.Store.Size("db.bin"))
		}
		return "ok", nil
	})
	runDelayed(t, tr, src, []string{"db.bin"}, prog, 30)
}

// A worker that dies before it is ready is still heard from: the run starts
// with the others instead of waiting for it.
func TestWorkerLostBeforeReadyDoesNotBlockStart(t *testing.T) {
	src := sourceWithFiles(6, 32)
	// The common file is not in the source: staging fails.
	m, tr, cancel := startMaster(t, MasterConfig{Source: src},
		strategy.Config{Kind: strategy.RealTime, CommonFiles: []string{"missing.bin"}}, 1)
	defer cancel()
	w, err := NewWorker(WorkerConfig{
		Name: "w0", Cores: 1, Store: NewMemStore(), Program: echoProgram(),
		Transport: tr, MasterAddr: "m",
	})
	if err != nil {
		t.Fatal(err)
	}
	go w.Run(context.Background())
	select {
	case <-m.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("master waits for a worker that died during staging")
	}
	if r := m.Report(); r.Failed != 6 || len(r.WorkerErrors) == 0 {
		t.Fatalf("report = %+v", r)
	}
}

// --- Ownership: the integration suite through the ownership checker ---

// readerOnly hides a source's Bytes method, so the chunk sender reads it
// through Open into (pooled) buffers.
type readerOnly struct{ catalog.Source }

// crcSource builds n files whose sizes straddle the chunk boundaries, each
// with its own content, and returns their checksums.
func crcSource(n, chunk int, seed int64) (*catalog.MemSource, map[string]uint32) {
	rng := rand.New(rand.NewSource(seed))
	sizes := []int{0, 1, chunk - 1, chunk, chunk + 1, 3*chunk + 17, 8 * chunk}
	src := catalog.NewMemSource()
	sums := make(map[string]uint32)
	for i := 0; i < n; i++ {
		data := make([]byte, sizes[i%len(sizes)])
		rng.Read(data)
		name := fmt.Sprintf("f%03d.dat", i)
		src.Put(name, data)
		sums[name] = crc32.ChecksumIEEE(data)
	}
	return src, sums
}

// ownershipScenario is one deployment of the suite.
type ownershipScenario struct {
	name    string
	strat   strategy.Config
	outputs bool // every task returns its first input, reversed, to a sink
	kill    bool // w0 is cancelled mid-run; Recover finishes its work
}

var ownershipScenarios = []ownershipScenario{
	{name: "real-time", strat: strategy.Config{Kind: strategy.RealTime, Multicore: true, Prefetch: 2}},
	{name: "real-time-common", strat: strategy.Config{Kind: strategy.RealTime, CommonFiles: []string{"f001.dat", "f005.dat"}}},
	{name: "pre-partition", strat: strategy.Config{Kind: strategy.PrePartition, Locality: strategy.Remote, Multicore: true}},
	{name: "no-partition", strat: strategy.Config{Kind: strategy.NoPartition, Multicore: true}},
	{name: "output-return", strat: strategy.Config{Kind: strategy.PrePartition, Locality: strategy.Remote, Multicore: true, Grouping: "pairwise-adjacent"}, outputs: true},
	{name: "death-with-recover", strat: strategy.Config{Kind: strategy.RealTime}, kill: true},
}

// TestDataPathOwnership runs the integration scenarios with every connection
// wrapped in the ownership checker — every received message is poisoned at
// the next Recv, sent payloads are CRC-checked on delivery — over both
// transports, from a source read through (pooled) buffers and from one that
// hands out its bytes. Every task checks the CRC of every stored input; the
// sink's outputs are checked at the end. This is the test that the buffer
// reuse of the data path is safe.
func TestDataPathOwnership(t *testing.T) {
	const chunk = 4096
	for trName, mk := range testTransports {
		for _, sc := range ownershipScenarios {
			for _, fromBytes := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/bytes=%v", trName, sc.name, fromBytes), func(t *testing.T) {
					runOwnership(t, transporttest.NewOwnership(mk()), sc, chunk, fromBytes)
				})
			}
		}
	}
}

func runOwnership(t *testing.T, tr *transporttest.Ownership, sc ownershipScenario, chunk int, fromBytes bool) {
	const files = 28
	mem, sums := crcSource(files, chunk, 7)
	var src catalog.Source = mem
	if !fromBytes {
		src = readerOnly{mem}
	}
	groups := files - len(sc.strat.CommonFiles)
	if sc.strat.Grouping == "pairwise-adjacent" {
		groups = files / 2
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	w0ctx, kill := context.WithCancel(ctx) // cancelled by the program under sc.kill
	defer kill()
	var killed atomic.Bool
	var corrupt atomic.Value // first CRC failure, a string
	prog := FuncProgram(func(ctx context.Context, task Task) (string, error) {
		var first []byte
		for i, name := range task.Inputs {
			rc, err := task.Store.Open(name)
			if err != nil {
				return "", err
			}
			data, err := io.ReadAll(rc)
			rc.Close()
			if err != nil {
				return "", err
			}
			if sum := crc32.ChecksumIEEE(data); sum != sums[name] {
				msg := fmt.Sprintf("%s: %d bytes with CRC %08x, want %08x", name, len(data), sum, sums[name])
				corrupt.CompareAndSwap(nil, msg)
				return "", errors.New(msg)
			}
			if i == 0 {
				first = data
			}
		}
		if sc.kill && task.Store.Has("__w0") && task.GroupIndex > 2 && !killed.Swap(true) {
			kill()
			time.Sleep(30 * time.Millisecond)
			return "", ctx.Err()
		}
		if sc.outputs {
			out := make([]byte, len(first))
			for i, b := range first {
				out[len(first)-1-i] = b
			}
			return "", task.AddOutput(task.Inputs[0]+".out", strings.NewReader(string(out)))
		}
		return "ok", nil
	})

	mc := MasterConfig{Source: src, ChunkSize: chunk, Recover: sc.kill, MaxRetries: 3}
	var sink *MemStore
	if sc.outputs {
		sink = NewMemStore()
		mc.OutputSink = sink
	}
	// The workers run prog; the template only travels, in START_MASTER and
	// in every registration ACK.
	ctl, err := NewController(ControllerConfig{
		Strategy: sc.strat, Template: []string{"check", "$inp1"}, Transport: tr, MasterAddr: "master", InProcessMaster: true,
		Master: mc, Workers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		store := NewMemStore()
		wctx := ctx
		if sc.kill && i == 0 {
			store.Put("__w0", strings.NewReader("tag"))
			wctx = w0ctx
		}
		if _, err := ctl.SpawnWorker(wctx, WorkerConfig{Name: fmt.Sprintf("w%d", i), Cores: 2, Store: store, Program: prog}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := ctl.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Shutdown()

	if msg := corrupt.Load(); msg != nil {
		t.Fatalf("a task read a damaged input: %s", msg)
	}
	if r.Groups != groups || r.Succeeded != groups {
		t.Fatalf("report = %+v (worker errors %v)", r, r.WorkerErrors)
	}
	if v := tr.Violations(); len(v) > 0 {
		t.Fatalf("payloads changed between Send and delivery: %v", v)
	}
	if tr.Checked() < files {
		t.Fatalf("only %d data messages went through the checker", tr.Checked())
	}
	if sc.outputs {
		for i := 0; i < files; i += 2 {
			name := fmt.Sprintf("f%03d.dat", i)
			in, _ := mem.Bytes(name)
			out, ok := sink.Bytes(name + ".out")
			if !ok || len(out) != len(in) {
				t.Fatalf("output of %s: %d bytes, want %d", name, len(out), len(in))
			}
			for j := range in {
				if out[len(in)-1-j] != in[j] {
					t.Fatalf("output of %s damaged at byte %d", name, j)
				}
			}
		}
	}
}

// --- Sizes: the catalogue size is announced and enforced ---

// lyingSource reports one file's catalogue size off by delta. It counts
// the times a file is taken from it, by Open or Bytes, in sends.
type lyingSource struct {
	*catalog.MemSource
	file  string
	delta int64
	sends *atomic.Int32
}

func (s lyingSource) Open(name string) (io.ReadCloser, error) {
	s.sends.Add(1)
	return s.MemSource.Open(name)
}

func (s lyingSource) Bytes(name string) ([]byte, bool) {
	s.sends.Add(1)
	return s.MemSource.Bytes(name)
}

func (s lyingSource) Catalog() (*catalog.Catalog, error) {
	real, err := s.MemSource.Catalog()
	if err != nil {
		return nil, err
	}
	c := catalog.New()
	for _, f := range real.Files() {
		if f.Name == s.file {
			f.Size += s.delta
		}
		c.MustAdd(f)
	}
	return c, nil
}

// A source that ends short of, or runs past, its catalogue size fails the
// file's transfer with a typed error, whether the source hands out bytes or
// a reader, and nothing more: its one group fails naming the file and the
// mismatch, and no worker is lost. The file is unclaimed, so each retry
// under Recover sends it again.
func TestStreamFileSizeMismatchUnclaimsReplica(t *testing.T) {
	for _, delta := range []int64{-1, +1, +5000} {
		for _, fromBytes := range []bool{false, true} {
			mem := catalog.NewMemSource()
			mem.Put("f", make([]byte, 3000))
			sends := new(atomic.Int32)
			var src catalog.Source = lyingSource{MemSource: mem, file: "f", delta: delta, sends: sends}
			if !fromBytes {
				src = readerOnly{src}
			}
			for _, recover := range []bool{false, true} {
				sends.Store(0)
				r := (&testHarness{
					source: src, chunk: 1000, strategy: strategy.RealTimeRemote,
					program: echoProgram(), workers: 1, recover: recover,
				}).run(t)
				if r.Groups != 1 || r.Failed != 1 || len(r.WorkerErrors) != 0 ||
					!strings.Contains(r.Results[0].Error, `"f"`) || !strings.Contains(r.Results[0].Error, transfer.ErrSizeMismatch.Error()) {
					t.Fatalf("delta %+d, bytes=%v, recover=%v: report = %+v, want the group failed naming f and the mismatch, and no worker lost",
						delta, fromBytes, recover, r)
				}
				if want := map[bool]int32{false: 1, true: 1 + sched.DefaultMaxRetries}[recover]; sends.Load() != want {
					t.Fatalf("delta %+d, bytes=%v, recover=%v: f sent %d times, want %d: once per attempt",
						delta, fromBytes, recover, sends.Load(), want)
				}
			}
		}
	}
}

// failingSource fails one file of its source: its Open fails or, when short
// is set, its reader ends halfway. When fails is set, only that many Opens
// of the file fail. It hides MemSource's Bytes, so the master reads every
// file through Open.
type failingSource struct {
	catalog.Source
	file  string
	short bool
	fails *atomic.Int32
}

func (s failingSource) Open(name string) (io.ReadCloser, error) {
	if name != s.file || s.fails != nil && s.fails.Add(-1) < 0 {
		return s.Source.Open(name)
	}
	if !s.short {
		return nil, errors.New("disk on fire")
	}
	rc, err := s.Source.Open(name)
	if err != nil {
		return nil, err
	}
	return struct {
		io.Reader
		io.Closer
	}{io.LimitReader(rc, 50), rc}, nil
}

// sourceFailureKinds are the strategies the source-failure tests run: one
// streams each group's inputs ahead of its EXECUTE, one stages them first.
var sourceFailureKinds = map[string]strategy.Config{
	"real-time":     {Kind: strategy.RealTime, Grouping: "all-to-all", Multicore: true},
	"pre-partition": {Kind: strategy.PrePartition, Locality: strategy.Remote, Grouping: "all-to-all", Multicore: true},
}

// A source that fails one file fails the groups that need it and no more:
// the master's writer goes on past the file and orders none of them, so a
// worker whose store holds an older file under that name (a DirStore kept
// from an earlier run) does not run them on it. Each fails naming the file
// and the source's error. No worker is lost and the run finishes, on both
// transports, under real-time and pre-partition, whether the file does not
// open or delivers short.
func TestSourceFailureFailsOnlyItsGroups(t *testing.T) {
	const files, size, bad = 6, 100, "f002.dat"
	for trName, mk := range testTransports {
		for kind, strat := range sourceFailureKinds {
			for _, short := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/short=%v", trName, kind, short), func(t *testing.T) {
					cause := "disk on fire"
					if short {
						cause = transfer.ErrSizeMismatch.Error()
					}
					r := (&testHarness{
						tr: mk(), strategy: strat, program: echoProgram(), workers: 2,
						source: failingSource{Source: sourceWithFiles(files, size), file: bad, short: short},
						store: func() Store {
							s, err := NewDirStore(t.TempDir())
							if err != nil {
								t.Fatal(err)
							}
							return s
						},
						preload: map[string]string{bad: strings.Repeat("o", size)},
					}).run(t)
					// All pairs of six files: the bad one is in five of the 15.
					if r.Groups != 15 || r.Succeeded != 10 || r.Failed != 5 || len(r.WorkerErrors) != 0 {
						t.Fatalf("report = %+v, want 10 of 15 groups and no worker lost", r)
					}
					for _, res := range r.Results {
						if res.OK && res.Output != fmt.Sprint(2*size) {
							t.Errorf("group %d read %s bytes of its inputs", res.GroupIndex, res.Output)
						}
						if !res.OK && (!strings.Contains(res.Error, strconv.Quote(bad)) || !strings.Contains(res.Error, cause)) {
							t.Errorf("group %d failed without naming %s and %q: %s", res.GroupIndex, bad, cause, res.Error)
						}
					}
				})
			}
		}
	}
}

// A file lost at the source is unclaimed from its worker: under Recover, a
// group that failed for it is retried, the file is sent again, and a source
// that failed only its first Open ends with every group run.
func TestSourceFailureIsRetriedUnderRecover(t *testing.T) {
	const files, size, bad = 6, 100, "f002.dat"
	for trName, mk := range testTransports {
		for kind, strat := range sourceFailureKinds {
			t.Run(trName+"/"+kind, func(t *testing.T) {
				fails := new(atomic.Int32)
				fails.Store(1)
				r := (&testHarness{
					tr: mk(), strategy: strat, program: echoProgram(), workers: 2, recover: true,
					source: failingSource{Source: sourceWithFiles(files, size), file: bad, fails: fails},
				}).run(t)
				if r.Groups != 15 || r.Succeeded != 15 || len(r.WorkerErrors) != 0 || fails.Load() >= 0 {
					t.Fatalf("report = %+v (%d failing Opens left), want all 15 groups run after one failed Open", r, fails.Load())
				}
			})
		}
	}
}

// Receivers keep accepting the old shape: data chunks without Last, then an
// empty terminator, with no size announced.
func TestWorkerAcceptsEmptyTerminator(t *testing.T) {
	status := make(chan *protocol.Message, 1)
	tr, addr := fakeMaster(t, func(conn transport.Conn) {
		conn.Send(&protocol.Message{Type: protocol.TAck, Cores: 1})
		conn.Send(&protocol.Message{Type: protocol.TFileData, FileName: "f", Data: []byte("hello ")})
		conn.Send(&protocol.Message{Type: protocol.TFileData, FileName: "f", Offset: 6, Data: []byte("world")})
		conn.Send(&protocol.Message{Type: protocol.TFileData, FileName: "f", Offset: 11, Last: true})
		conn.Send(&protocol.Message{Type: protocol.TExecute, GroupIndex: 0, Files: []protocol.FileInfo{{Name: "f", Size: 11}}})
		for {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			if m.Type == protocol.TTaskStatus {
				status <- m
				conn.Send(&protocol.Message{Type: protocol.TNoMoreData})
				return
			}
		}
	})
	w := newTestWorker(t, tr, addr, FuncProgram(func(ctx context.Context, task Task) (string, error) {
		return readAll(task.Store, "f"), nil
	}))
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-status:
		if !m.Result.OK || m.Result.Output != "hello world" {
			t.Fatalf("status = %+v", m.Result)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no status")
	}
}

// --- Stores ---

func TestMemStoreReserveAllocatesOnce(t *testing.T) {
	s := NewMemStore()
	const size, chunk = 1 << 20, 64 << 10
	data := make([]byte, chunk)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s.Reserve("f", size); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < size; off += chunk {
		if err := s.Append("f", int64(off), data); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > size+size/8 {
		t.Fatalf("a reserved 1 MiB file allocated %d bytes", grew)
	}
	if s.Size("f") != size {
		t.Fatalf("size = %d", s.Size("f"))
	}

	// A sender that announces too little, or too much, or nothing, or
	// nonsense, still gets its bytes stored.
	for _, announced := range []int64{0, 10, 1 << 40} {
		if err := s.Reserve("g", announced); err != nil {
			t.Fatal(err)
		}
		s.Append("g", 0, []byte("0123456789"))
		s.Append("g", 10, []byte("abcdef"))
		if got := readAll(s, "g"); got != "0123456789abcdef" {
			t.Fatalf("announced %d: stored %q", announced, got)
		}
	}
	if err := s.Reserve("h", -1); err == nil {
		t.Fatal("negative reservation accepted")
	}

	// A rewrite does not touch bytes a reader may still hold.
	old, _ := s.Bytes("g")
	s.Append("g", 0, []byte("ZZZZ"))
	if string(old) != "0123456789abcdef" || readAll(s, "g") != "ZZZZ" {
		t.Fatalf("rewrite in place: old %q, new %q", old, readAll(s, "g"))
	}
}

func TestMemStorePutSizesFromReader(t *testing.T) {
	s := NewMemStore()
	payload := make([]byte, 1<<20)
	s.Put("src", strings.NewReader(string(payload)))
	for name, mk := range map[string]func() io.Reader{
		"bytes.Reader":        func() io.Reader { return strings.NewReader(string(payload)) },
		"stored file":         func() io.Reader { rc, _ := s.Open("src"); return rc },
		"limited stored file": func() io.Reader { rc, _ := s.Open("src"); return io.LimitReader(rc, 1<<19) },
	} {
		r := mk()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, err := s.Put("dst", r)
		runtime.ReadMemStats(&after)
		if err != nil || (n != 1<<20 && n != 1<<19) {
			t.Fatalf("%s: Put = %d, %v", name, n, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(n)+uint64(n)/8 {
			t.Errorf("%s: storing %d bytes allocated %d", name, n, grew)
		}
	}
	// A reader that cannot tell its size still round-trips.
	n, err := s.Put("blind", io.MultiReader(strings.NewReader("abc"), strings.NewReader(strings.Repeat("x", 5000))))
	if err != nil || n != 5003 || len(readAll(s, "blind")) != 5003 {
		t.Fatalf("blind Put = %d, %v", n, err)
	}
	// An exact hint is one allocation of exactly the file's size: 16 KiB is
	// a size class of its own, where one byte more takes the 18 KiB class.
	const exact = 16 << 10
	r := strings.NewReader(string(payload[:exact]))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err = s.Put("exact", r)
	runtime.ReadMemStats(&after)
	if err != nil || n != exact {
		t.Fatalf("exact Put = %d, %v", n, err)
	}
	if mallocs, grew := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc; mallocs != 1 || grew != exact {
		t.Errorf("storing %d bytes from an exact hint took %d allocations of %d bytes", n, mallocs, grew)
	}
	// So is one from an opened stored file of that size.
	rc, err := s.Open("exact")
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&before)
	n, err = s.Put("exact copy", rc)
	runtime.ReadMemStats(&after)
	rc.Close()
	if mallocs, grew := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc; err != nil || mallocs != 1 || grew != exact {
		t.Errorf("storing %d bytes from an opened file took %d allocations of %d bytes (%v)", n, mallocs, grew, err)
	}
	// A reader that yields more than its hint still has every byte stored.
	for _, hint := range []int{1, 1000, 4999} {
		want := strings.Repeat("0123456789", 500)
		n, err := s.Put("more", shortHint{strings.NewReader(want), hint})
		if got := readAll(s, "more"); err != nil || n != int64(len(want)) || got != want {
			t.Fatalf("hint %d: Put = %d, %v; stored %d bytes", hint, n, err, len(got))
		}
	}
}

// shortHint is a reader that tells a length shorter than it yields.
type shortHint struct {
	io.Reader
	n int
}

func (h shortHint) Len() int { return h.n }

// sendAndStore sends each message from one end of a fresh connection of tr,
// and lands each in s as the other end receives it.
func sendAndStore(t *testing.T, tr transport.Transport, s Store, msgs ...*protocol.Message) {
	t.Helper()
	l, err := tr.Listen("master")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, _ := l.Accept()
		accepted <- c
	}()
	client, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-accepted
	defer server.Close()
	for _, m := range msgs {
		if err := client.Send(m); err != nil {
			t.Fatal(err)
		}
		got, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if err := storeChunk(s, server, got); err != nil {
			t.Fatal(err)
		}
	}
	// One more file: whatever buffer the connection reuses has been reused.
	client.Send(&protocol.Message{Type: protocol.TFileData, FileName: "next", FileSize: 8, Data: []byte("ZZZZZZZZ"), Last: true})
	if got, err := server.Recv(); err != nil || storeChunk(s, server, got) != nil {
		t.Fatalf("the next file: %v", err)
	}
}

// A whole file that arrives in one chunk over the in-memory transport is
// kept by a MemStore as it is — the sender's array, capacity clipped — and
// nothing written to the store afterwards reaches that array.
func TestMemStoreKeepsAHandedOverFile(t *testing.T) {
	backing := []byte("0123456789abcdef")
	payload := backing[:10] // spare capacity a careless Append would write into
	s := NewMemStore()
	sendAndStore(t, transport.NewMem(nil), s,
		&protocol.Message{Type: protocol.TFileData, FileName: "f", FileSize: 10, Data: payload, Last: true})
	kept, _ := s.Bytes("f")
	if &kept[0] != &payload[0] || len(kept) != 10 || cap(kept) != 10 {
		t.Fatalf("stored %d bytes with capacity %d, want the sender's 10 with capacity 10", len(kept), cap(kept))
	}
	for name, tc := range map[string]struct {
		write func() error
		want  string
	}{
		"append":          {func() error { return s.Append("f", 10, []byte("XYZ")) }, "0123456789XYZ"},
		"rewrite":         {func() error { return s.Append("f", 0, []byte("XYZ")) }, "XYZ"},
		"reserved append": {func() error { s.Reserve("f", 3); return s.Append("f", 0, []byte("XYZ")) }, "XYZ"},
		"put":             {func() error { _, err := s.Put("f", strings.NewReader("XYZ")); return err }, "XYZ"},
	} {
		s.keep("f", payload)
		if err := tc.write(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(backing) != "0123456789abcdef" {
			t.Fatalf("%s changed the sender's array to %q", name, backing)
		}
		if got := readAll(s, "f"); got != tc.want {
			t.Fatalf("after the %s the store reads %q, want %q", name, got, tc.want)
		}
	}
}

// Small whole files received over TCP land side by side in one slab, each
// with its capacity clipped: writing past one never reaches its neighbour.
func TestMemStoreLandedNeighbours(t *testing.T) {
	s := NewMemStore()
	sendAndStore(t, newLoopbackTCP(), s,
		&protocol.Message{Type: protocol.TFileData, FileName: "a", FileSize: 4, Data: []byte("aaaa"), Last: true},
		&protocol.Message{Type: protocol.TFileData, FileName: "b", FileSize: 4, Data: []byte("bbbb"), Last: true})
	a, _ := s.Bytes("a")
	b, _ := s.Bytes("b")
	if len(a) != 4 || cap(a) != 4 || uintptr(unsafe.Pointer(&b[0]))-uintptr(unsafe.Pointer(&a[0])) != 4 {
		t.Fatalf("a has %d bytes and capacity %d, not carved just ahead of b", len(a), cap(a))
	}
	_ = append(a, "XXXX"...)
	if err := s.Append("a", 4, []byte("YYYY")); err != nil {
		t.Fatal(err)
	}
	if got := readAll(s, "b"); got != "bbbb" {
		t.Fatalf("b reads %q after writes past a", got)
	}
	if got := readAll(s, "a"); got != "aaaaYYYY" {
		t.Fatalf("a reads %q", got)
	}
}

// A file rewritten over TCP lands in fresh bytes: what a reader of the old
// file holds is untouched.
func TestMemStoreRewriteOfLandedFile(t *testing.T) {
	s := NewMemStore()
	whole := func(data string) *protocol.Message {
		return &protocol.Message{Type: protocol.TFileData, FileName: "f", FileSize: int64(len(data)), Data: []byte(data), Last: true}
	}
	sendAndStore(t, newLoopbackTCP(), s, whole("01234567"))
	old, _ := s.Bytes("f")
	rc, err := s.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	sendAndStore(t, newLoopbackTCP(), s, whole("abcdefgh"))
	got, err := io.ReadAll(rc)
	if err != nil || string(got) != "01234567" || string(old) != "01234567" {
		t.Fatalf("the old file reads %q (%v), its bytes %q", got, err, old)
	}
	if got := readAll(s, "f"); got != "abcdefgh" {
		t.Fatalf("the new file reads %q", got)
	}
}

// A reader goes back to the store at its first Close; a second Close does
// not hand it out twice.
func TestMemStoreReaderClosedTwice(t *testing.T) {
	s := NewMemStore()
	s.Put("f", strings.NewReader("ffff"))
	s.Put("g", strings.NewReader("gggggggg"))
	rc, err := s.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	f, _ := s.Open("f")
	g, _ := s.Open("g")
	defer f.Close()
	defer g.Close()
	if f == g {
		t.Fatal("two Opens share a reader")
	}
	head := make([]byte, 2)
	if _, err := io.ReadFull(f, head); err != nil {
		t.Fatal(err)
	}
	rest, _ := io.ReadAll(g)
	tail, _ := io.ReadAll(f)
	if string(head)+string(tail) != "ffff" || string(rest) != "gggggggg" {
		t.Fatalf("interleaved readers read %q and %q", string(head)+string(tail), rest)
	}
}

// Readers opened at once on one file each read all of it.
func TestMemStoreConcurrentOpens(t *testing.T) {
	s := NewMemStore()
	want := strings.Repeat("0123456789", 100)
	s.Put("f", strings.NewReader(want))
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 200 {
				if got := readAll(s, "f"); got != want {
					errs <- got
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for got := range errs {
		t.Fatalf("a reader read %d bytes, not the file", len(got))
	}
}

// Open reuses the readers Close gave back. (The race detector's sync.Pool
// drops a quarter of what it is given back, which the bound allows.)
func TestMemStoreOpenReusesReaders(t *testing.T) {
	s := NewMemStore()
	s.Put("f", strings.NewReader("ffff"))
	allocs := testing.AllocsPerRun(1000, func() {
		rc, _ := s.Open("f")
		rc.Close()
	})
	if allocs >= 0.5 {
		t.Fatalf("Open and Close took %.2f allocations", allocs)
	}
}

// Everything but a whole-file chunk handed over to a MemStore is copied: a
// file in several chunks, a chunk whose size was not announced, a chunk
// received where the connection copies, and any chunk for a DirStore.
func TestStoreChunkCopiesWhatItMayNotKeep(t *testing.T) {
	whole := func(data []byte) *protocol.Message {
		return &protocol.Message{Type: protocol.TFileData, FileName: "f", FileSize: int64(len(data)), Data: data, Last: true}
	}
	for name, tc := range map[string]struct {
		tr    transport.Transport
		store func(*testing.T) Store
		msgs  func(data []byte) []*protocol.Message
	}{
		"mem/two-chunks": {transport.NewMem(nil), memStore, func(data []byte) []*protocol.Message {
			return []*protocol.Message{
				{Type: protocol.TFileData, FileName: "f", FileSize: 8, Data: data[:4]},
				{Type: protocol.TFileData, FileName: "f", FileSize: 8, Offset: 4, Data: data[4:], Last: true},
			}
		}},
		"mem/unannounced": {transport.NewMem(nil), memStore, func(data []byte) []*protocol.Message {
			m := whole(data)
			m.FileSize = 0
			return []*protocol.Message{m}
		}},
		"tcp/whole": {newLoopbackTCP(), memStore, func(data []byte) []*protocol.Message { return []*protocol.Message{whole(data)} }},
		"mem/dir-store": {transport.NewMem(nil), func(t *testing.T) Store { return mustDirStore(t) }, func(data []byte) []*protocol.Message {
			return []*protocol.Message{whole(data)}
		}},
	} {
		t.Run(name, func(t *testing.T) {
			payload := []byte("01234567")
			s := tc.store(t)
			sendAndStore(t, tc.tr, s, tc.msgs(payload)...)
			if mem, ok := s.(*MemStore); ok {
				if kept, _ := mem.Bytes("f"); &kept[0] == &payload[0] {
					t.Fatal("stored the sender's array")
				}
			}
			copy(payload, "XXXXXXXX")
			if got := readAll(s, "f"); got != "01234567" {
				t.Fatalf("store reads %q", got)
			}
		})
	}
}

func memStore(*testing.T) Store { return NewMemStore() }

func TestDirStoreReservedAppendKeepsOneHandle(t *testing.T) {
	s := mustDirStore(t)
	if err := s.Reserve("sub/f", 10); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("sub/f", 0, []byte("01234")); err != nil {
		t.Fatal(err)
	}
	if len(s.open) != 1 {
		t.Fatalf("%d handles open mid-file", len(s.open))
	}
	// The bytes written so far are visible to readers of the path.
	if got := readAll(s, "sub/f"); got != "01234" {
		t.Fatalf("mid-file contents %q", got)
	}
	if err := s.Append("sub/f", 7, []byte("x")); err == nil {
		t.Fatal("out-of-order chunk accepted")
	}
	if len(s.open) != 0 {
		t.Fatal("handle kept after a refused chunk")
	}
	// Started over with a reservation, finished: handle closed on the last byte.
	s.Reserve("sub/f", 10)
	s.Append("sub/f", 0, []byte("abcde"))
	s.Append("sub/f", 5, []byte("fghij"))
	if len(s.open) != 0 {
		t.Fatal("handle still open after the reserved size was written")
	}
	if got := readAll(s, "sub/f"); got != "abcdefghij" {
		t.Fatalf("contents %q", got)
	}
	// More than announced still lands.
	if err := s.Append("sub/f", 10, []byte("k")); err != nil || readAll(s, "sub/f") != "abcdefghijk" {
		t.Fatalf("append past the reservation: %v, %q", err, readAll(s, "sub/f"))
	}
	// Empty files exist.
	if err := s.Reserve("empty", 0); err != nil || !s.Has("empty") || s.Size("empty") != 0 || len(s.open) != 0 {
		t.Fatalf("empty reservation: %v", err)
	}
	if err := s.Reserve("../escape", 5); err == nil {
		t.Fatal("reservation outside the root accepted")
	}
}

// --- Allocation guard ---

// crcJob returns a job of the data path's benchmark shape and its task count:
// files of size bytes from a MemSource, two one-slot workers whose program
// checks every input's CRC and, when outSize > 0, returns the first outSize
// bytes of its first input. Each call of job runs one job on a fresh
// transport, through Shutdown, and returns its workers.
func crcJob(tb testing.TB, newTransport func() transport.Transport, strat strategy.Config, files, size, outSize int) (job func() []*Worker, tasks int) {
	tb.Helper()
	src := catalog.NewMemSource()
	block := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(block)
	for i := 0; i < files; i++ {
		src.Put(fmt.Sprintf("f%05d.dat", i), block)
	}
	want := crc32.ChecksumIEEE(block)
	tasks = files
	if strat.Grouping == "pairwise-adjacent" {
		tasks = files / 2
	}
	prog := FuncProgram(func(ctx context.Context, task Task) (string, error) {
		for _, name := range task.Inputs {
			rc, err := task.Store.Open(name)
			if err != nil {
				return "", err
			}
			h := crc32.NewIEEE()
			_, err = io.Copy(h, rc) // a stored file writes itself to h: no buffer
			rc.Close()
			if err != nil || h.Sum32() != want {
				return "", fmt.Errorf("%s: CRC %08x, want %08x (%v)", name, h.Sum32(), want, err)
			}
		}
		if outSize > 0 {
			rc, err := task.Store.Open(task.Inputs[0])
			if err != nil {
				return "", err
			}
			defer rc.Close()
			return "", task.AddOutput(task.Inputs[0]+".out", io.LimitReader(rc, int64(outSize)))
		}
		return "", nil
	})

	job = func() []*Worker {
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		mc := MasterConfig{Source: src}
		if outSize > 0 {
			mc.OutputSink = NewMemStore()
		}
		ctl, err := NewController(ControllerConfig{
			Strategy: strat, Transport: newTransport(), MasterAddr: "master", InProcessMaster: true, Master: mc, Workers: 2,
		})
		if err != nil {
			tb.Fatal(err)
		}
		if err := ctl.Start(ctx); err != nil {
			tb.Fatal(err)
		}
		workers := make([]*Worker, 2)
		for i := range workers {
			if workers[i], err = ctl.SpawnWorker(ctx, WorkerConfig{Name: fmt.Sprintf("w%d", i), Cores: 1, Program: prog}); err != nil {
				tb.Fatal(err)
			}
		}
		r, err := ctl.Wait(ctx)
		if err != nil {
			tb.Fatal(err)
		}
		ctl.Shutdown()
		if r.Succeeded != tasks {
			tb.Fatalf("report = %+v (worker errors %v)", r, r.WorkerErrors)
		}
		return workers
	}
	return job, tasks
}

// allocJob runs one untimed job, so that what the process allocates on its
// first job (pools, buffers, the runtime's own) is not counted, then a
// second on a fresh transport, and returns the bytes and allocations per
// task of the second.
func allocJob(t *testing.T, newTransport func() transport.Transport, strat strategy.Config, files, size, outSize int) (bytes, mallocs float64) {
	t.Helper()
	job, tasks := crcJob(t, newTransport, strat, files, size, outSize)
	job()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	job()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(tasks), float64(after.Mallocs-before.Mallocs) / float64(tasks)
}

// BenchmarkSmallTaskTCP is rt_small_tcp's shape at full size, for profiles of
// a small task's cost: 8,192 × 1 KiB files over TCP loopback, two one-slot
// workers, a CRC program. An op is one job, after an untimed one; allocs/task
// and tasks/s count tasks.
func BenchmarkSmallTaskTCP(b *testing.B) {
	single := strategy.RealTimeRemote
	single.Grouping = "single"
	job, tasks := crcJob(b, testTransports["tcp"], single, 8192, 1<<10, 0)
	job()
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for range b.N {
		job()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N * tasks)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/task")
	b.ReportMetric(n/b.Elapsed().Seconds(), "tasks/s")
}

// A worker that lands whole files keeps no state of its own about them: the
// store is the record, and the partial set stays empty.
func TestSmallFileJobLeavesNoPartialFiles(t *testing.T) {
	single := strategy.RealTimeRemote
	single.Grouping = "single"
	for name, mk := range testTransports {
		t.Run(name, func(t *testing.T) {
			job, _ := crcJob(t, mk, single, 64, 1<<10, 0)
			for _, w := range job() {
				if len(w.partial) != 0 {
					t.Errorf("%s keeps %d partial files after the job", w.cfg.Name, len(w.partial))
				}
			}
		})
	}
}

// TestDataPathAllocationGuard holds the data path to its budget inside
// tier-1 (the benchmark that measures it is a nested module): what a job
// allocates per task, next to the payload the task moves. The shapes are the
// benchmark's rt_bulk_tcp, rt_small_tcp and rt_return_mem, smaller, each
// measured on its second job in the process (allocJob). At the commit
// before the framed data path these read 9.4×, 270 KiB and 9×. Each bound
// sits 2% above the largest value 88 runs under -race read (eleven fresh
// test binaries at -count=8), which is above what runs without it read.
func TestDataPathAllocationGuard(t *testing.T) {
	single := strategy.RealTimeRemote
	single.Grouping = "single"
	t.Run("bulk-tcp", func(t *testing.T) {
		const size = 8 << 20
		per, mallocs := allocJob(t, testTransports["tcp"], single, 8, size, 0)
		t.Logf("%.0f B in %.2f allocations per 8 MiB task (%.2f× the payload)", per, mallocs, per/size)
		// At most 1.010× the payload in 54.62 allocations (50.12 to 51.12
		// without -race), most of them the job's own spread over its eight
		// tasks: the chunk loop sends all 32 chunks of a file from one
		// pooled message. A message per chunk read 94 to 96; the budgets
		// were 1.5× and 62 while the process's first job was counted.
		const byteLimit, mallocLimit = 8468730 * 1.02, 54.62 * 1.02
		if per > byteLimit {
			t.Fatalf("%.0f B allocated per 8 MiB task, budget is %.0f B", per, byteLimit)
		}
		if mallocs > mallocLimit {
			t.Fatalf("%.2f allocations per 8 MiB task, budget is %.2f", mallocs, mallocLimit)
		}
	})
	t.Run("small-tcp", func(t *testing.T) {
		per, mallocs := allocJob(t, testTransports["tcp"], single, 512, 1<<10, 0)
		t.Logf("%.0f B in %.2f allocations per 1 KiB task", per, mallocs)
		// At most 2.1 KB in 3.51 allocations (1.8 KB in 2.83 without
		// -race): the received file's name, which is the store's map key,
		// the test program's hasher, and the job's own allocations spread
		// over its tasks, each worker's slabs among them (one per 28
		// landed files, one per 256 input lists). Under -race sync.Pool
		// drops a quarter of the readers Close gives back, so Open adds
		// about 0.25 there. A whole file lands in one lock hold and one map
		// write, with no allocation of its own; with the stored KiB, the
		// task's input list, the stored file's reader and the worker's
		// per-file arrival map it was 2.3 KB in 6.25 allocations (2.0 KB
		// in 5.83 without -race).
		// Sending allocates nothing: every sender reuses its message on a
		// connection that copies, and receiving decodes into one message the
		// codec reuses. The job's own share is small: the master builds one
		// catalogue, at its final size, and an in-process controller is sent
		// no results; with two catalogues and the results sent and decoded
		// it was 3.2 KB in 6.29 allocations (counting the process's first
		// job). With a new message per send it was 4.7 KB in 13.96
		// allocations; with gob and a new message per Recv, 6.6 KiB in
		// 30.86. One more allocation per task fails the test.
		const byteLimit, mallocLimit = 2146 * 1.02, 3.51 * 1.02
		if per > byteLimit {
			t.Fatalf("%.0f B allocated per 1 KiB task, budget is %.0f B", per, byteLimit)
		}
		if mallocs > mallocLimit {
			t.Fatalf("%.2f allocations per 1 KiB task, budget is %.2f", mallocs, mallocLimit)
		}
	})
	t.Run("return-mem", func(t *testing.T) {
		pairs := strategy.PrePartitionedRemote
		pairs.Grouping = "pairwise-adjacent"
		const in, out = 64 << 10, 16 << 10
		per, mallocs := allocJob(t, testTransports["mem"], pairs, 256, in, out)
		const payload = 2*in + out
		t.Logf("%.0f B in %.2f allocations per %d B task (%.2f× the payload)", per, mallocs, payload, per/payload)
		// At most 19.4 KB in 11.64 allocations (18.9 KB in 9.88 without
		// -race): the output's exact 16 KiB, the test program's two
		// hashers, its LimitReader and output name, the in-memory
		// transport's slots, and the job's own allocations spread over its
		// 128 tasks. Under -race sync.Pool drops a quarter of the readers
		// Close gives back, so the program's three Opens add about 0.75
		// there. With a reader per Open and an input list per task it was
		// 19.9 KB in 14.98 (19.3 KB in 14.02 without -race; 21.5 KB in
		// 15.84 while the process's first job was counted). No input byte
		// is copied: each whole-file chunk is handed over and kept by the
		// worker's MemStore, the output by the sink, and the in-memory
		// transport copies envelopes into slots it reuses. When every input
		// and output was copied into a store and every send made a message
		// of its own, it was 172.6 KB in 26.69 allocations (172.1 KB in
		// 25.91 without -race). One more allocation per task fails the
		// test.
		const byteLimit, mallocLimit = 19369 * 1.02, 11.64 * 1.02
		if per > byteLimit {
			t.Fatalf("%.0f B allocated per task, budget is %.0f B", per, byteLimit)
		}
		if mallocs > mallocLimit {
			t.Fatalf("%.2f allocations per task, budget is %.2f", mallocs, mallocLimit)
		}
	})
}

// A common file is an input of every task its worker runs: one lost at the
// source ends the worker, and the report names the file and the cause.
func TestLostCommonFileEndsItsWorker(t *testing.T) {
	const common = "f000.dat"
	r := (&testHarness{
		strategy: strategy.Config{Kind: strategy.RealTime, Grouping: "single", CommonFiles: []string{common}},
		program:  echoProgram(), workers: 1,
		source: failingSource{Source: sourceWithFiles(4, 100), file: common},
	}).run(t)
	if r.Groups != 3 || r.Failed != 3 || len(r.WorkerErrors) != 1 ||
		!strings.Contains(r.WorkerErrors[0], common) || !strings.Contains(r.WorkerErrors[0], "disk on fire") {
		t.Fatalf("report = %+v, want every group lost with its worker, the error naming %s", r, common)
	}
}
