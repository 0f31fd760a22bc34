package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"frieda/internal/protocol"
	"frieda/internal/transfer"
	"frieda/internal/transport"
)

// WorkerConfig configures one worker node.
type WorkerConfig struct {
	// Name is the worker's cluster-unique name.
	Name string
	// Cores is the node's core count; the master decides how many program
	// instances to clone from it (multicore setting).
	Cores int
	// Store receives transferred input files. Required.
	Store Store
	// Program executes tasks. If nil, the worker builds an ExecProgram
	// from the execution-syntax template the master sends at registration
	// (the paper's unmodified-binary mode).
	Program Program
	// Transport connects to the master.
	Transport transport.Transport
	// MasterAddr is the master's address.
	MasterAddr string
	// DialRetry keeps retrying the initial connection for this long
	// (components may start in any order in a real deployment). Zero means
	// a single attempt.
	DialRetry time.Duration
}

// Worker is the execution-plane node: it registers with the master,
// receives data, executes program instances (one per granted slot) and
// reports status. Workers are symmetric — identical logic, different data.
type Worker struct {
	cfg  WorkerConfig
	conn transport.Conn

	executed atomic.Int64
	// partial holds each file sent on this connection whose first chunk is
	// stored but not yet its last, or one of whose chunks failed to store.
	// The store is the record of every other file. Only the message loop
	// touches it.
	partial map[string]struct{}
	// inputs is the unused tail of the slab the message loop carves each
	// task's input list from.
	inputs  []string
	program Program
	tasks   chan Task
	// out is the writer's outbox: after the registration handshake the
	// writer sends what the executors and the message loop post, and nothing
	// else sends on the connection.
	out           queue[report]
	slots         int
	returnOutputs bool
}

// report is one item of the writer's outbox: the slots' first requests, or
// a status and the outputs its task registered, which travel first. The
// writer signals streamed once it has sent the item: a slot that posts
// outputs waits for it before it reuses their list.
type report struct {
	requests int
	res      protocol.TaskResult
	outputs  []protocol.FileInfo
	streamed chan<- struct{}
}

// NewWorker validates the configuration.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Name == "" {
		return nil, errors.New("core: worker needs a name")
	}
	if cfg.Cores < 1 {
		return nil, fmt.Errorf("core: worker %q has %d cores", cfg.Name, cfg.Cores)
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("core: worker %q has no store", cfg.Name)
	}
	if cfg.Transport == nil || cfg.MasterAddr == "" {
		return nil, fmt.Errorf("core: worker %q has no master endpoint", cfg.Name)
	}
	return &Worker{cfg: cfg, partial: make(map[string]struct{})}, nil
}

// Executed reports how many tasks this worker completed (either outcome).
func (w *Worker) Executed() int { return int(w.executed.Load()) }

// Run connects, registers and serves until the master says NO_MORE_DATA /
// SHUTDOWN, the connection drops, or ctx is cancelled. It returns nil on a
// clean shutdown.
func (w *Worker) Run(ctx context.Context) error {
	pprof.SetGoroutineLabels(roleWorkerReader)
	conn, err := w.cfg.Transport.Dial(w.cfg.MasterAddr)
	if err != nil && w.cfg.DialRetry > 0 {
		deadline := time.Now().Add(w.cfg.DialRetry)
		for err != nil && time.Now().Before(deadline) && ctx.Err() == nil {
			select {
			case <-ctx.Done():
			case <-time.After(250 * time.Millisecond):
			}
			conn, err = w.cfg.Transport.Dial(w.cfg.MasterAddr)
		}
	}
	if err != nil {
		return fmt.Errorf("core: worker %s dial: %w", w.cfg.Name, err)
	}
	w.conn = conn
	defer conn.Close()

	if err := conn.Send(&protocol.Message{Type: protocol.TRegister, Worker: w.cfg.Name, Cores: w.cfg.Cores}); err != nil {
		return fmt.Errorf("core: worker %s register: %w", w.cfg.Name, err)
	}
	ack, err := conn.Recv()
	if err != nil {
		return fmt.Errorf("core: worker %s registration ack: %w", w.cfg.Name, err)
	}
	if ack.Type != protocol.TAck {
		return fmt.Errorf("core: worker %s expected ACK, got %s", w.cfg.Name, ack.Type)
	}
	if ack.Error != "" {
		return fmt.Errorf("core: worker %s rejected: %s", w.cfg.Name, ack.Error)
	}
	w.slots = ack.Cores
	if w.slots < 1 {
		w.slots = 1
	}
	w.returnOutputs = ack.ReturnOutputs
	if mem, ok := w.cfg.Store.(*MemStore); ok {
		mem.expect(ack.ExpectFiles)
	}
	w.program = w.cfg.Program
	if w.program == nil {
		if len(ack.Template) == 0 {
			return fmt.Errorf("core: worker %s has neither Program nor template", w.cfg.Name)
		}
		w.program = ExecProgram{Template: slices.Clone(ack.Template)}
	}

	// The writer, its outbox sized once for a take of a status from every
	// slot and the requests, then the executor pool: one instance per
	// granted slot, the paper's program cloning. The channel buffer absorbs
	// master-side prefetch.
	w.out.init()
	w.out.reserve(w.slots + 1)
	sent := make(chan struct{}, 1) // the first requests left; closed by the writer's return
	go w.writer(sent)
	w.tasks = make(chan Task, 256)
	execCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < w.slots; i++ {
		wg.Add(1)
		go func() {
			pprof.SetGoroutineLabels(roleWorkerExec)
			defer wg.Done()
			w.executor(execCtx)
		}()
	}
	// Each granted slot asks for work once (Fig. 4's first exchange), before
	// the worker reads on. After that a status report is the request for the
	// slot's next task: the master refills a slot when it books the
	// completion. In pre-partition mode the master ignores these.
	w.out.put(report{requests: w.slots, streamed: sent})
	<-sent
	// A cancelled context unblocks the message loop's Recv.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	err = w.messageLoop(ctx)
	// Past the loop no new status can reach the master: executors stop at
	// their next task.
	cancel()
	close(w.tasks)
	wg.Wait()
	w.out.close()
	<-sent
	return err
}

// messageLoop processes master messages until shutdown or error.
func (w *Worker) messageLoop(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		m, err := w.conn.Recv()
		if err != nil {
			if errors.Is(err, transport.ErrClosed) {
				return nil
			}
			return fmt.Errorf("core: worker %s recv: %w", w.cfg.Name, err)
		}
		switch m.Type {
		case protocol.TDistribute:
			// Informational: the assigned partition. Payloads and execute
			// orders follow.
		case protocol.TFileData:
			if err := storeChunk(w.cfg.Store, w.conn, m); err != nil {
				w.partial[m.FileName] = struct{}{}
				w.out.put(report{res: protocol.TaskResult{
					GroupIndex: -1, Worker: w.cfg.Name, OK: false,
					Error: fmt.Sprintf("store %s: %v", m.FileName, err),
				}})
				continue
			}
			switch {
			case m.Last:
				delete(w.partial, m.FileName)
			case m.Offset == 0:
				w.partial[m.FileName] = struct{}{}
			}
		case protocol.TExecute:
			w.tasks <- w.task(m.GroupIndex, m.Files)
		case protocol.TNoMoreData, protocol.TShutdown:
			return nil
		default:
			return fmt.Errorf("core: worker %s unexpected %s", w.cfg.Name, m.Type)
		}
	}
}

// inputSlab is how many input names the message loop's slab holds.
const inputSlab = 256

// task is the task an EXECUTE orders. The master sends every byte of an
// input ahead of the order that needs it (one ordered writer per
// connection), so an input is checked, not waited for: it is present if the
// store holds it and it is not partial (data placed on the worker beforehand
// counts). The input list is carved from the worker's slab, its capacity
// clipped.
func (w *Worker) task(gi int, files []protocol.FileInfo) Task {
	n := len(files)
	if n > len(w.inputs) {
		w.inputs = make([]string, max(n, inputSlab))
	}
	t := Task{GroupIndex: gi, Inputs: w.inputs[:n:n], Store: w.cfg.Store}
	w.inputs = w.inputs[n:]
	for i, f := range files {
		t.Inputs[i] = f.Name
		if _, partial := w.partial[f.Name]; t.missing == "" && (partial || !w.cfg.Store.Has(f.Name)) {
			t.missing = f.Name
		}
	}
	return t
}

// executor runs queued tasks on one slot and posts each status to the
// writer, with the outputs the task registered, which it waits to see
// streamed before it reuses their list. A task without outputs never waits.
func (w *Worker) executor(ctx context.Context) {
	var outputs *outputSet     // this slot's registered outputs, task by task
	var streamed chan struct{} // the writer streamed them
	if w.returnOutputs {
		outputs, streamed = new(outputSet), make(chan struct{}, 1)
	}
	for task := range w.tasks {
		if ctx.Err() != nil {
			return
		}
		if outputs != nil {
			outputs.files = outputs.files[:0]
			task.outputs = outputs
		}
		rep := report{res: w.runOne(ctx, task)}
		w.executed.Add(1)
		if rep.res.OK && outputs != nil && len(outputs.files) > 0 {
			rep.outputs, rep.streamed = outputs.files, streamed
		}
		w.out.put(rep)
		if rep.streamed != nil {
			<-streamed
		}
	}
}

// writer is the connection's one sender after the registration handshake.
// It takes everything posted, sends it under one hold and flushes: one write
// per take, so the statuses that pile up while a write is in its system call
// share the next one. A failed send closes the connection, which ends the
// message loop; the writer still releases every slot waiting on it, until
// the outbox closes. It closes sent when it returns.
func (w *Worker) writer(sent chan<- struct{}) {
	pprof.SetGoroutineLabels(roleWorkerWriter)
	defer close(sent)
	var status protocol.Message // every frame it sends but the outputs', reused
	var err error               // the first failed send: nothing is sent after it
	for open := true; open; {
		var items []report
		items, open = w.out.take(true)
		if len(items) > 0 && err == nil {
			w.conn.Hold()
			err = w.send(items, &status)
			if ferr := w.conn.Flush(); err == nil {
				err = ferr
			}
			if err != nil {
				w.conn.Close()
			}
		}
		for i := range items {
			if s := items[i].streamed; s != nil {
				s <- struct{}{}
			}
		}
		clear(items) // the take is sent; keep none of it alive
	}
}

// send puts one take on the held connection in order: the first requests,
// and each status behind its task's outputs. A file that cannot be returned
// fails its task.
func (w *Worker) send(items []report, status *protocol.Message) error {
	for i := range items {
		it := &items[i]
		if it.requests > 0 {
			*status = protocol.Message{Type: protocol.TRequestData, Worker: w.cfg.Name}
			for range it.requests {
				if err := w.conn.Send(status); err != nil {
					return err
				}
			}
			continue
		}
		for _, f := range it.outputs {
			if _, err := sendFile(w.conn, transfer.File{Name: f.Name, Worker: w.cfg.Name, Size: f.Size}, w.cfg.Store, DefaultChunkSize); err != nil {
				it.res.OK, it.res.Error = false, "returning output "+f.Name+": "+err.Error()
				break
			}
		}
		*status = protocol.Message{Type: protocol.TTaskStatus, Result: it.res}
		if err := w.conn.Send(status); err != nil {
			return err
		}
	}
	return nil
}

// runOne executes the program, unless an input is missing, and builds the
// status report.
func (w *Worker) runOne(ctx context.Context, task Task) protocol.TaskResult {
	if task.missing != "" {
		return protocol.TaskResult{
			GroupIndex: task.GroupIndex, Worker: w.cfg.Name, OK: false,
			Error: fmt.Sprintf("core: input %q is not on worker %s", task.missing, w.cfg.Name),
		}
	}
	start := time.Now()
	out, err := w.program.Run(ctx, task)
	res := protocol.TaskResult{
		GroupIndex:  task.GroupIndex,
		Worker:      w.cfg.Name,
		OK:          err == nil,
		DurationSec: time.Since(start).Seconds(),
		Output:      out,
	}
	if err != nil {
		res.Error = err.Error()
	}
	return res
}
