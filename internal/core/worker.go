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
	received      map[string]bool
	program       Program
	tasks         chan Task
	results       chan protocol.TaskResult // batch mode: executor -> reporter
	slots         int
	returnOutputs bool
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

	// Executor pool: one instance per granted slot, the paper's program
	// cloning. The channel buffer absorbs master-side prefetch.
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
	// Batched control plane: executors hand results to a reporter that
	// coalesces everything pending into one TTaskStatus per send.
	var repWg sync.WaitGroup
	if ack.Batch {
		w.results = make(chan protocol.TaskResult, 4*w.slots)
		repWg.Add(1)
		go func() {
			defer repWg.Done()
			w.reporter()
		}()
	}
	// Each granted slot asks for work once (Fig. 4's first exchange). After
	// that a status report is the request for the slot's next task: the
	// master refills a slot when it books the completion. In pre-partition
	// mode the master ignores these.
	conn.Hold()
	for i := 0; i < w.slots; i++ {
		if err := conn.Send(&protocol.Message{Type: protocol.TRequestData, Worker: w.cfg.Name}); err != nil {
			break
		}
	}
	conn.Flush() // a broken connection ends the message loop below

	// Unblock the message loop's Recv when the context is cancelled.
	watchDone, watched := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(watched)
		select {
		case <-ctx.Done():
			conn.Close()
		case <-watchDone:
		}
	}()
	defer func() {
		close(watchDone)
		<-watched
	}()

	err = w.messageLoop(ctx)
	close(w.tasks)
	wg.Wait()
	if w.results != nil {
		close(w.results)
		repWg.Wait()
	}
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
				w.conn.Send(&protocol.Message{
					Type: protocol.TTaskStatus,
					Result: protocol.TaskResult{
						GroupIndex: -1, Worker: w.cfg.Name, OK: false,
						Error: fmt.Sprintf("store %s: %v", m.FileName, err),
					},
				})
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

// executor runs queued tasks on one slot.
func (w *Worker) executor(ctx context.Context) {
	var status protocol.Message // this slot's TASK_STATUS, sent again and again
	var outputs outputSet       // this slot's registered outputs, task by task
	for task := range w.tasks {
		if ctx.Err() != nil {
			return
		}
		if w.returnOutputs {
			outputs.files = outputs.files[:0]
			task.outputs = &outputs
		}
		res := w.runOne(ctx, task)
		w.executed.Add(1)
		// The task's outputs and its status leave in one write. Outputs
		// travel first, so the master holds the data when it records the
		// completion (per-connection FIFO).
		w.conn.Hold()
		w.sendOutputs(task, &res)
		var err error
		if w.results != nil {
			// Batch mode: the reporter coalesces statuses.
			w.results <- res
		} else {
			status = protocol.Message{Type: protocol.TTaskStatus, Result: res}
			err = w.conn.Send(&status)
		}
		if ferr := w.conn.Flush(); err != nil || ferr != nil {
			return
		}
	}
}

// reporter coalesces completion reports: each send carries every result that
// accumulated while the previous send was in flight, so a busy worker costs
// one status round-trip per burst instead of one per task.
func (w *Worker) reporter() {
	var status protocol.Message // every report, with its Results array
	for res := range w.results {
		batch := append(status.Results[:0], res)
	drain:
		for {
			select {
			case more, ok := <-w.results:
				if !ok {
					break drain
				}
				batch = append(batch, more)
			default:
				break drain
			}
		}
		status = protocol.Message{Type: protocol.TTaskStatus, Worker: w.cfg.Name, Results: batch}
		if w.conn.Send(&status) != nil {
			// The connection is gone; keep draining so executors never
			// block on a full channel during shutdown.
			for range w.results {
			}
			return
		}
	}
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

// sendOutputs streams the result files a successful task registered to the
// master, each under the size the program registered it with. A file that
// cannot be returned fails the task.
func (w *Worker) sendOutputs(task Task, res *protocol.TaskResult) {
	if task.outputs == nil || !res.OK {
		return
	}
	for _, f := range task.outputs.files {
		if _, err := sendFile(w.conn, transfer.File{Name: f.Name, Worker: w.cfg.Name, Size: f.Size}, w.cfg.Store, DefaultChunkSize); err != nil {
			res.OK = false
			res.Error = "returning output " + f.Name + ": " + err.Error()
			return
		}
	}
}
