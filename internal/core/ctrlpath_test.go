package core

import (
	"context"
	"errors"
	"fmt"
	"net"
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

// Two refills to one worker used to be two goroutines writing to one
// connection: the second skipped a file the first had claimed but not finished
// sending, its EXECUTE overtook the remaining chunks, and the worker's input
// gate let the task through because a reserved, partly written file already
// exists in the store. Every task here checks every input against its
// catalogue size; with one ordered writer per connection no task can see a
// short one.
func TestNoTaskRunsOnPartialInput(t *testing.T) {
	const files, size, chunk = 10, 1 << 20, 4 << 10
	src := catalog.NewMemSource()
	block := make([]byte, size)
	for i := 0; i < files; i++ {
		src.Put(fmt.Sprintf("f%02d.dat", i), block)
	}
	prog := FuncProgram(func(ctx context.Context, task Task) (string, error) {
		for _, name := range task.Inputs {
			if got := task.Store.Size(name); got != size {
				return "", fmt.Errorf("input %s holds %d of %d bytes", name, got, size)
			}
		}
		return "ok", nil
	})
	for name, tt := range testTransports {
		t.Run(name, func(t *testing.T) {
			r := (&testHarness{
				tr: tt.mk(), addr: tt.addr, source: src, chunk: chunk,
				strategy: strategy.Config{Kind: strategy.RealTime, Grouping: "all-to-all", Multicore: true, Prefetch: 2},
				workers:  2, cores: 4, program: prog,
			}).run(t)
			const groups = files * (files - 1) / 2
			if r.Groups != groups || len(r.Results) != groups {
				t.Fatalf("%d groups, %d results, want %d", r.Groups, len(r.Results), groups)
			}
			for _, res := range r.Results {
				if !res.OK {
					t.Errorf("group %d on %s: %s", res.GroupIndex, res.Worker, res.Error)
				}
			}
		})
	}
}

// Shutdown joins everything: a job of each strategy kind, one that drains a
// worker and one that loses a worker leave no goroutine behind, over both
// transports (testHarness.run checks the count the moment Shutdown returns).
func TestShutdownLeavesNoGoroutine(t *testing.T) {
	slow := FuncProgram(func(ctx context.Context, task Task) (string, error) {
		time.Sleep(200 * time.Microsecond)
		return "ok", nil
	})
	scenarios := []struct {
		name    string
		strat   strategy.Config
		recover bool
		onSpawn func(i int, w *Worker, cancel context.CancelFunc)
		running func(ctl *Controller)
	}{
		{name: "real-time", strat: strategy.RealTimeRemote},
		{name: "pre-partition", strat: strategy.PrePartitionedRemote},
		{name: "no-partition", strat: strategy.CommonData},
		{name: "drained-worker", strat: strategy.RealTimeRemote, running: func(ctl *Controller) {
			time.Sleep(5 * time.Millisecond)
			ctl.RemoveWorker("w0") // an error means the run was over first
		}},
		{name: "killed-worker", strat: strategy.RealTimeRemote, recover: true, onSpawn: func(i int, _ *Worker, cancel context.CancelFunc) {
			if i == 0 {
				time.AfterFunc(5*time.Millisecond, cancel)
			}
		}},
	}
	for trName, tt := range testTransports {
		for _, sc := range scenarios {
			t.Run(trName+"/"+sc.name, func(t *testing.T) {
				const files = 120
				r := (&testHarness{
					tr: tt.mk(), addr: tt.addr, strategy: sc.strat, source: sourceWithFiles(files, 2000), chunk: 512, recover: sc.recover,
					workers: 3, cores: 2, program: slow, onSpawn: sc.onSpawn, running: sc.running,
				}).run(t)
				if r.Groups != files || r.Succeeded != files {
					t.Fatalf("%d groups, %d succeeded, want %d (worker errors %v)", r.Groups, r.Succeeded, files, r.WorkerErrors)
				}
			})
		}
	}
}

// wireLog wraps a transport and keeps, per worker connection and direction,
// the messages handed to Send.
type wireLog struct {
	transport.Transport
	mu    sync.Mutex
	conns []*loggedConn
}

type loggedConn struct {
	transport.Conn
	log    *wireLog
	master bool   // the accepted end: what the master sends to a worker
	worker string // from the TRegister this connection carried
	sent   []protocol.Message
}

func (l *wireLog) wrap(c transport.Conn, master bool) transport.Conn {
	lc := &loggedConn{Conn: c, log: l, master: master}
	l.mu.Lock()
	l.conns = append(l.conns, lc)
	l.mu.Unlock()
	return lc
}

func (l *wireLog) Dial(addr string) (transport.Conn, error) {
	c, err := l.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return l.wrap(c, false), nil
}

func (l *wireLog) Listen(addr string) (transport.Listener, error) {
	ln, err := l.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &loggedListener{Listener: ln, log: l}, nil
}

type loggedListener struct {
	transport.Listener
	log *wireLog
}

func (l *loggedListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.log.wrap(c, true), nil
}

func (c *loggedConn) Send(m *protocol.Message) error {
	// A sender reuses the message and its slices once Send returns: the
	// record is a deep copy.
	rec := *transporttest.Snapshot(m)
	c.log.mu.Lock()
	if m.Type == protocol.TRegister {
		c.worker = m.Worker
	}
	c.sent = append(c.sent, rec)
	c.log.mu.Unlock()
	return c.Conn.Send(m)
}

func (c *loggedConn) Recv() (*protocol.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil && m.Type == protocol.TRegister {
		c.log.mu.Lock()
		c.worker = m.Worker
		c.log.mu.Unlock()
	}
	return m, err
}

// What one ordered writer per connection and "a status implies the next
// request" promise on the wire, checked on every worker connection of a job of
// 300 tasks whose groups share files (so refills skip files another refill
// claimed), with several slots and a prefetch window keeping many refills in
// flight: every EXECUTE follows the Last chunk of each of its files,
// NO_MORE_DATA is the last frame the master sends, a worker asks for data once
// per granted slot and never again, and a task costs two control frames — its
// EXECUTE and its TASK_STATUS — beyond a per-connection constant.
func TestWireOrderAndControlFramesPerTask(t *testing.T) {
	const files, size, chunk, workers, cores = 25, 2500, 1024, 2, 4
	const tasks = files * (files - 1) / 2
	for name, tt := range testTransports {
		t.Run(name, func(t *testing.T) {
			log := &wireLog{Transport: tt.mk()}
			r := (&testHarness{
				tr: log, addr: tt.addr, source: sourceWithFiles(files, size), chunk: chunk,
				strategy: strategy.Config{Kind: strategy.RealTime, Grouping: "all-to-all", Multicore: true, Prefetch: 2},
				workers:  workers, cores: cores, program: echoProgram(),
			}).run(t)
			if r.Succeeded != tasks {
				t.Fatalf("%d of %d tasks succeeded (worker errors %v)", r.Succeeded, tasks, r.WorkerErrors)
			}
			control, executed, seen := 0, 0, 0
			for _, c := range log.conns {
				if c.worker == "" {
					continue // the controller's channel
				}
				seen++
				complete := make(map[string]bool)
				requests := 0
				for i, m := range c.sent {
					if m.Type != protocol.TFileData {
						control++
					}
					switch m.Type {
					case protocol.TFileData:
						if m.Last {
							complete[m.FileName] = true
						}
					case protocol.TExecute:
						executed++
						for _, f := range m.Files {
							if !complete[f.Name] {
								t.Errorf("%s: EXECUTE of group %d (frame %d) is ahead of the last chunk of %s", c.worker, m.GroupIndex, i, f.Name)
							}
						}
					case protocol.TRequestData:
						requests++
					case protocol.TNoMoreData:
						if i != len(c.sent)-1 {
							t.Errorf("%s: %d frames follow NO_MORE_DATA", c.worker, len(c.sent)-1-i)
						}
					}
				}
				if c.master {
					if last := c.sent[len(c.sent)-1].Type; last != protocol.TNoMoreData {
						t.Errorf("%s: the master's last frame is %s, want NO_MORE_DATA", c.worker, last)
					}
				} else if requests != cores {
					t.Errorf("%s sent %d REQUEST_DATA, want one per granted slot (%d)", c.worker, requests, cores)
				}
			}
			if seen != 2*workers {
				t.Fatalf("%d worker connection ends logged, want %d", seen, 2*workers)
			}
			if executed != tasks {
				t.Errorf("%d groups ordered executed, want %d", executed, tasks)
			}
			// Per connection: REGISTER, the ACK, NO_MORE_DATA and the requests.
			if budget := 2*tasks + workers*(3+cores); control > budget {
				t.Errorf("%d control frames for %d tasks, budget is two per task plus %d", control, tasks, budget-2*tasks)
			}
		})
	}
}

// refusingStore is a worker's store that will not take one file.
type refusingStore struct {
	*MemStore
	name string
}

func (s refusingStore) Reserve(name string, size int64) error {
	if name == s.name {
		return errors.New("refused")
	}
	return s.MemStore.Reserve(name, size)
}

// The worker's direction keeps its writer's order, over both transports:
// each OK task's TASK_STATUS follows the Last chunk of both outputs the task
// registered, and every output reaches the sink. A status about a chunk the
// store refused is not a task's and travels the same way: it reaches the
// master, and the task that needed the file fails.
func TestStatusFollowsItsOutputs(t *testing.T) {
	const files, workers, cores, refused = 60, 2, 3, "f007.dat"
	prog := FuncProgram(func(ctx context.Context, task Task) (string, error) {
		in := task.Inputs[0]
		for _, ext := range []string{".a", ".b"} {
			if err := task.AddOutput(in+ext, strings.NewReader(in+ext)); err != nil {
				return "", err
			}
		}
		return in, nil
	})
	for name, tt := range testTransports {
		t.Run(name, func(t *testing.T) {
			log, sink := &wireLog{Transport: tt.mk()}, NewMemStore()
			single := strategy.RealTimeRemote
			single.Grouping = "single"
			r := (&testHarness{
				tr: log, addr: tt.addr, source: sourceWithFiles(files, 700), sink: sink, strategy: single,
				workers: workers, cores: cores, program: prog,
				store: func() Store { return refusingStore{NewMemStore(), refused} },
			}).run(t)
			if r.Succeeded != files-1 || r.Failed != 1 {
				t.Fatalf("%d succeeded and %d failed, want %d and 1 (worker errors %v)", r.Succeeded, r.Failed, files-1, r.WorkerErrors)
			}
			if !slices.ContainsFunc(r.WorkerErrors, func(e string) bool { return strings.Contains(e, "store "+refused) }) {
				t.Errorf("no worker error names the refused %s: %v", refused, r.WorkerErrors)
			}
			booked := 0
			for _, c := range log.conns {
				if c.master || c.worker == "" {
					continue // the master's ends and the controller's channel
				}
				complete := make(map[string]bool)
				for i, m := range c.sent {
					switch m.Type {
					case protocol.TFileData:
						if m.Last {
							complete[m.FileName] = true
						}
					case protocol.TTaskStatus:
						res := m.Result
						if !res.OK {
							continue
						}
						booked++
						for _, out := range []string{res.Output + ".a", res.Output + ".b"} {
							if !complete[out] {
								t.Errorf("%s: the status of group %d (frame %d) is ahead of the last chunk of %s", c.worker, res.GroupIndex, i, out)
							}
							if !sink.Has(out) {
								t.Errorf("%s never reached the sink", out)
							}
						}
					}
				}
			}
			if booked != files-1 {
				t.Errorf("%d OK statuses on the wire, want %d", booked, files-1)
			}
		})
	}
}

// A status leaves when its task ends, not when the worker runs out of work:
// a one-slot worker that holds a fast task and, queued behind it, one that
// blocks sees the master book the fast one while the slow one runs, on
// either transport. Holding statuses while tasks are queued would keep it
// back for a whole task.
func TestStatusLeavesWhileTheNextTaskRuns(t *testing.T) {
	for name, tt := range testTransports {
		t.Run(name, func(t *testing.T) {
			var worker atomic.Pointer[Worker]
			var ran atomic.Int32
			release, polled := make(chan struct{}), make(chan struct{})
			prog := FuncProgram(func(ctx context.Context, task Task) (string, error) {
				if ran.Add(1) == 1 {
					// The fast task ends once the slow one waits behind it.
					for w := worker.Load(); w == nil || len(w.tasks) == 0; w = worker.Load() {
						if ctx.Err() != nil {
							return "", ctx.Err()
						}
						time.Sleep(time.Millisecond)
					}
					return "fast", nil
				}
				select {
				case <-release:
					return "slow", nil
				case <-ctx.Done():
					return "", ctx.Err()
				}
			})
			two := strategy.RealTimeRemote
			two.Grouping, two.Prefetch = "single", 2
			r := (&testHarness{
				tr: tt.mk(), addr: tt.addr, strategy: two, source: sourceWithFiles(2, 10),
				workers: 1, cores: 1, program: prog,
				onSpawn: func(_ int, w *Worker, _ context.CancelFunc) { worker.Store(w) },
				running: func(ctl *Controller) {
					go func() {
						defer close(polled)
						defer close(release)
						deadline := time.Now().Add(10 * time.Second)
						for ctl.master.Report().Succeeded == 0 {
							if time.Now().After(deadline) {
								t.Error("the fast task's status was not booked while the slow task ran")
								return
							}
							time.Sleep(time.Millisecond)
						}
					}()
				},
			}).run(t)
			<-polled
			if r.Succeeded != 2 {
				t.Fatalf("%d of 2 tasks succeeded (worker errors %v)", r.Succeeded, r.WorkerErrors)
			}
		})
	}
}

// writeCounter counts the Write calls of every connection it hands out.
type writeCounter struct {
	bound  chan struct{}
	addr   string
	writes atomic.Int64
}

type countedConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countedConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

type countedListener struct {
	net.Listener
	writes *atomic.Int64
}

func (w *writeCounter) Listen(string) (transport.Listener, error) {
	defer close(w.bound)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.addr = ln.Addr().String()
	return countedListener{ln, &w.writes}, nil
}

func (w *writeCounter) Dial(string) (transport.Conn, error) {
	<-w.bound
	c, err := net.Dial("tcp", w.addr)
	if err != nil {
		return nil, err
	}
	return transport.NewStreamConn(countedConn{c, &w.writes}), nil
}

func (l countedListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return transport.NewStreamConn(countedConn{c, l.writes}), nil
}

func (l countedListener) Addr() string { return l.Listener.Addr().String() }

// smallTaskWrites runs the shape of the benchmark's rt_small_tcp — 1 KiB
// files one to a task, two single-slot workers, TCP loopback — at prefetch
// (0: the window rule, which grows the windows of groups this small) and
// returns the writes at the socket per task
// beyond a constant: the controller's channel, and each worker's
// registration, first request and NO_MORE_DATA.
func smallTaskWrites(t *testing.T, prefetch int) float64 {
	const tasks, outside = 1024, 32
	single := strategy.RealTimeRemote
	single.Grouping, single.Prefetch = "single", prefetch
	wc := &writeCounter{bound: make(chan struct{})}
	r := (&testHarness{
		tr: wc, strategy: single, source: sourceWithFiles(tasks, 1<<10),
		workers: 2, cores: 1, program: echoProgram(),
	}).run(t)
	if r.Succeeded != tasks {
		t.Fatalf("%d of %d tasks succeeded (worker errors %v)", r.Succeeded, tasks, r.WorkerErrors)
	}
	writes := wc.writes.Load()
	t.Logf("%d writes for %d tasks (%.3f per task)", writes, tasks, float64(writes)/tasks)
	return float64(writes-outside) / tasks
}

// At the paper's window of one, a small task costs two writes at the
// socket: the refill (its file and its EXECUTE) one way, the status the
// other. Before the held frames it was four (five here, where writev is two
// Writes).
func TestSmallTaskCostsTwoWrites(t *testing.T) {
	if per := smallTaskWrites(t, 1); per > 2 {
		t.Fatalf("%.3f writes per task, budget is two", per)
	}
}

// At the default window, grown by the window rule for 1 KiB groups, both
// sides commit in groups: the worker's writer sends every status posted
// while its last write was in the kernel in one write, the master's reader
// hands all of them to one wake of the loop, and the wake refills the
// worker in one write. That is about one write each way per window, plus
// the rounds a job of 1,024 tasks spends growing it (to 16 per slot, its
// strategy.JobShare), more where a noisy round makes the rule step back:
// on two vCPUs, fifty runs under -race in CI's control-path list read 0.18
// to 0.44 per task (median 0.20), and thirty without -race beside two
// -race runs at most 0.24.
func TestSmallTaskWritesAtDefaultWindow(t *testing.T) {
	if per := smallTaskWrites(t, 0); per > 0.7 {
		t.Fatalf("%.3f writes per task, budget is 0.7", per)
	}
}

// A job that the other workers' windows could take whole runs as at a
// window of one: four groups on four one-slot workers are one group each,
// on either transport (sched.Ledger's tail rule).
func TestTailRunsAsAtWindowOne(t *testing.T) {
	for name, tt := range testTransports {
		t.Run(name, func(t *testing.T) {
			single := strategy.RealTimeRemote
			single.Grouping = "single"
			r := (&testHarness{
				tr: tt.mk(), addr: tt.addr, strategy: single, source: sourceWithFiles(4, 10),
				workers: 4, cores: 1, program: echoProgram(),
			}).run(t)
			ran := map[string]int{}
			for _, res := range r.Results {
				if res.OK {
					ran[res.Worker]++
				}
			}
			if r.Succeeded != 4 || len(ran) != 4 {
				t.Fatalf("%d of 4 groups ok, by worker %v; want one each", r.Succeeded, ran)
			}
		})
	}
}
