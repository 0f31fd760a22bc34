package core

import (
	"context"
	"errors"
	"fmt"
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
	// received is what arrived of each file sent on this connection: true
	// once its last chunk is stored, false while it is partial or after a
	// chunk failed to store. Only the message loop touches it.
	received map[string]bool
	program  Program
	tasks    chan Task
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
	return &Worker{cfg: cfg, received: make(map[string]bool)}, nil
}

// Executed reports how many tasks this worker completed (either outcome).
func (w *Worker) Executed() int { return int(w.executed.Load()) }

// Run connects, registers and serves until the master says NO_MORE_DATA /
// SHUTDOWN, the connection drops, or ctx is cancelled. It returns nil on a
// clean shutdown.
func (w *Worker) Run(ctx context.Context) error {
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
	go w.writer(ack.Batch, sent)
	w.tasks = make(chan Task, 256)
	execCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < w.slots; i++ {
		wg.Add(1)
		go func() {
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
		case protocol.TFileMetadata, protocol.TDistribute:
			// Informational: sizes of incoming files / the assigned
			// partition. Payloads and execute orders follow.
		case protocol.TFileData:
			if err := storeChunk(w.cfg.Store, w.conn, m); err != nil {
				w.received[m.FileName] = false
				w.out.put(report{res: protocol.TaskResult{
					GroupIndex: -1, Worker: w.cfg.Name, OK: false,
					Error: fmt.Sprintf("store %s: %v", m.FileName, err),
				}})
				continue
			}
			if m.Offset == 0 || m.Last {
				w.received[m.FileName] = m.Last
			}
		case protocol.TExecute:
			w.tasks <- w.task(m.GroupIndex, m.Files)
		case protocol.TExecuteBatch:
			for _, spec := range m.Executes {
				w.tasks <- w.task(spec.GroupIndex, spec.Files)
			}
		case protocol.TNoMoreData, protocol.TShutdown:
			return nil
		default:
			return fmt.Errorf("core: worker %s unexpected %s", w.cfg.Name, m.Type)
		}
	}
}

// task is the task an EXECUTE orders. The master sends every byte of an
// input ahead of the order that needs it (one ordered writer per
// connection), so an input is checked, not waited for: it is present if its
// last chunk was stored since the worker connected, or if the store held it
// before any chunk of it arrived (data placed on the worker beforehand).
func (w *Worker) task(gi int, files []protocol.FileInfo) Task {
	t := Task{GroupIndex: gi, Inputs: make([]string, len(files)), Store: w.cfg.Store}
	for i, f := range files {
		t.Inputs[i] = f.Name
		complete, arrived := w.received[f.Name]
		if t.missing == "" && !complete && (arrived || !w.cfg.Store.Has(f.Name)) {
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
func (w *Worker) writer(batch bool, sent chan<- struct{}) {
	defer close(sent)
	var status protocol.Message // every frame it sends but the outputs', reused
	var err error               // the first failed send: nothing is sent after it
	for open := true; open; {
		var items []report
		items, open = w.out.take(true)
		if len(items) > 0 && err == nil {
			w.conn.Hold()
			err = w.send(items, batch, &status)
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
// and each status behind its task's outputs. Under Batch the take's statuses
// leave last, as one TASK_STATUS carrying Results. A file that cannot be
// returned fails its task.
func (w *Worker) send(items []report, batch bool, status *protocol.Message) error {
	results := status.Results[:0]
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
		if batch {
			results = append(results, it.res)
			continue
		}
		*status = protocol.Message{Type: protocol.TTaskStatus, Result: it.res}
		if err := w.conn.Send(status); err != nil {
			return err
		}
	}
	if len(results) == 0 {
		return nil
	}
	*status = protocol.Message{Type: protocol.TTaskStatus, Worker: w.cfg.Name, Results: results}
	return w.conn.Send(status)
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
