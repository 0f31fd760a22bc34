package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"time"

	"frieda/internal/catalog"
	"frieda/internal/partition"
	"frieda/internal/protocol"
	"frieda/internal/sched"
	"frieda/internal/strategy"
	"frieda/internal/transfer"
	"frieda/internal/transport"
)

// DefaultChunkSize is the file-transfer chunk size.
const DefaultChunkSize = transfer.DefaultChunk

// MasterConfig configures the execution-plane master.
type MasterConfig struct {
	// Strategy is the data-management strategy. The controller may override
	// it at start or run time (PARTITION_TYPE).
	Strategy strategy.Config
	// Template is the execution syntax sent to workers that have no
	// in-process Program.
	Template []string
	// Source supplies input files. The master must run close to the source
	// (paper, Section II-B); in this implementation it IS the source
	// endpoint.
	Source catalog.Source
	// Transport and Addr is where the master listens.
	Transport transport.Transport
	Addr      string
	// ExpectedWorkers, when > 0, starts execution once that many workers
	// registered (the controller's FORK_REMOTE_WORKERS can set it too).
	ExpectedWorkers int
	// ChunkSize overrides DefaultChunkSize; at most protocol.MaxChunk.
	ChunkSize int
	// Recover enables the paper's future-work extension: failed tasks and
	// the in-flight work of dead workers are requeued (up to MaxRetries per
	// group) instead of abandoned.
	Recover bool
	// MaxRetries bounds per-group retries under Recover (default 2).
	MaxRetries int
	// Batch coalesces control-plane messages per worker round-trip: each
	// dispatch pass sends one EXECUTE_BATCH carrying every refill instead
	// of one EXECUTE per group, and workers coalesce completion reports
	// into one TASK_STATUS carrying Results. Off, the per-task protocol of
	// the paper-era master is kept message-for-message.
	Batch bool
	// OutputSink, when set, collects result files the programs register
	// via Task.AddOutput — the paper's "results transferred to the master"
	// option. Nil leaves outputs on the workers (the evaluated setup).
	OutputSink Store
	// Logf, when set, receives diagnostic log lines.
	Logf func(format string, args ...any)
}

// masterWorker is the master's bookkeeping for one registered worker.
type masterWorker struct {
	// Worker is the ledger's view. Ready is set once the registration ACK
	// is on the wire and the common files are staged. Until then the worker
	// only holds its name: it is not counted towards the expected workers,
	// planned for or dispatched to, so nothing can reach its connection
	// ahead of the ACK or the staging.
	sched.Worker
	name        string
	conn        transport.Conn
	cores       int
	slots       int
	outstanding map[int]bool // dispatched, not yet reported

	// outbox is what the worker's writer has still to send, in order (under
	// the master's mu). Once the worker is ready the writer is the only
	// goroutine that sends on conn, so what is queued in one order reaches
	// the worker in that order. The queue has no bound and nothing blocks to
	// fill it: the writer itself takes mu while it streams.
	outbox    []outItem
	outWake   *sync.Cond // on the master's mu: the outbox filled, or closed
	outClosed bool       // the connection is finished with; the writer exits
	// exec is the message the writer sends every EXECUTE or EXECUTE_BATCH
	// from, with its slices (transport.SendReused). Only the writer touches
	// it.
	exec protocol.Message
}

// outItem is one unit of a writer's work. It sends msg when set, streams
// files, then dispatches group when set, in that order.
type outItem struct {
	msg   *protocol.Message
	files []protocol.FileInfo
	// group is one dispatched group. Its files are streamed first when send
	// is set (remote real-time dispatch); then the worker is told to run it,
	// by an EXECUTE of its own or, under Batch, in the one EXECUTE_BATCH that
	// the last group of its dispatch pass (last) sends.
	group      *partition.Group
	send, last bool
	// done, when set, is released once the item's bytes are on the
	// connection, or once it is known that they never will be.
	done *sync.WaitGroup
}

// Master is the execution-plane coordinator: it partitions input data,
// transfers payloads and farms out executions according to the strategy the
// controller selected.
type Master struct {
	cfg MasterConfig

	mu        sync.Mutex
	strat     strategy.Config
	expected  int
	workers   map[string]*masterWorker
	catalogue *catalog.Catalog
	groups    []partition.Group
	// led is the scheduling ledger; it starts once the groups are placed.
	led         *sched.Ledger
	results     []protocol.TaskResult
	workerErrs  []string
	replicas    *catalog.Replicas
	controller  transport.Conn
	started     bool
	startedAt   time.Time
	finishedAt  time.Time
	transfers   float64 // pre-partition transfer-phase wall seconds
	bytesMoved  int64
	outputBytes int64

	// stagingCat is the source's catalogue as common-file staging first saw
	// it (under stagingMu): every registering worker needs the common files'
	// sizes, and one listing of the source serves them all.
	stagingMu  sync.Mutex
	stagingCat *catalog.Catalog

	listener transport.Listener
	ctx      context.Context
	done     chan struct{}
	doneOnce sync.Once
	wg       sync.WaitGroup

	// configured is closed once the master knows its strategy/template —
	// either at construction (library mode presets) or when the controller
	// sends START_MASTER. Worker admission waits on it so that a worker
	// racing ahead of the controller is not initialised with an empty
	// execution syntax.
	configured     chan struct{}
	configuredOnce sync.Once
}

// NewMaster validates the configuration.
func NewMaster(cfg MasterConfig) (*Master, error) {
	if cfg.Source == nil {
		return nil, errors.New("core: master needs a source")
	}
	if cfg.Transport == nil || cfg.Addr == "" {
		return nil, errors.New("core: master needs a transport address")
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = DefaultChunkSize
	}
	if cfg.ChunkSize > protocol.MaxChunk {
		return nil, fmt.Errorf("core: chunk size %d exceeds the protocol's %d", cfg.ChunkSize, protocol.MaxChunk)
	}
	strat := cfg.Strategy
	if err := strat.Validate(); err != nil {
		return nil, err
	}
	m := &Master{
		cfg:        cfg,
		strat:      strat,
		expected:   cfg.ExpectedWorkers,
		workers:    make(map[string]*masterWorker),
		led:        sched.NewLedger(cfg.Recover, cfg.MaxRetries),
		replicas:   catalog.NewReplicas(),
		done:       make(chan struct{}),
		configured: make(chan struct{}),
	}
	if len(cfg.Template) > 0 || cfg.ExpectedWorkers > 0 {
		// Library mode: everything a worker needs is preset.
		m.markConfigured()
	}
	return m, nil
}

// markConfigured releases worker admission.
func (m *Master) markConfigured() {
	m.configuredOnce.Do(func() { close(m.configured) })
}

// logf writes a diagnostic line when logging is configured.
func (m *Master) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf("master: "+format, args...)
	}
}

// Addr returns the bound listen address once Serve has started.
func (m *Master) Addr() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.listener == nil {
		return m.cfg.Addr
	}
	return m.listener.Addr()
}

// Done is closed when every group reached a terminal state.
func (m *Master) Done() <-chan struct{} { return m.done }

// Serve listens and coordinates until all work completes and the listener
// closes, or ctx is cancelled. Call it on its own goroutine; use Done to
// learn completion.
func (m *Master) Serve(ctx context.Context) error {
	l, err := m.cfg.Transport.Listen(m.cfg.Addr)
	if err != nil {
		return err
	}
	m.mu.Lock()
	m.listener = l
	m.ctx = ctx
	m.mu.Unlock()
	// The listener closes on ctx cancel or TShutdown, not when the run is
	// done: the controller may still fetch reports.
	stop, watched := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(watched)
		select {
		case <-ctx.Done():
			l.Close()
		case <-stop:
		}
	}()
	defer func() {
		close(stop)
		<-watched
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			m.wg.Wait()
			if ctx.Err() != nil || errors.Is(err, transport.ErrClosed) {
				return nil
			}
			return err
		}
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.handleConn(conn)
		}()
	}
}

// handleConn classifies a new connection by its first message, serves it and
// closes it.
func (m *Master) handleConn(conn transport.Conn) {
	defer conn.Close()
	first, err := conn.Recv()
	if err != nil {
		return
	}
	switch first.Type {
	case protocol.TStartMaster:
		m.handleController(conn, first)
	case protocol.TRegister:
		m.handleWorker(conn, first)
	default:
		m.logf("rejecting connection opening with %s", first.Type)
	}
}

// --- Controller side ---

// handleController runs the control-channel loop. The open channel lets the
// controller re-configure the master at run time without restart
// (Section II-D).
func (m *Master) handleController(conn transport.Conn, start *protocol.Message) {
	strat := start.Strategy.Clone()
	if err := strat.Validate(); err != nil {
		conn.Send(&protocol.Message{Type: protocol.TAck, Error: err.Error(), Seq: start.Seq})
		return
	}
	m.mu.Lock()
	m.controller = conn
	m.strat = strat
	if len(start.Template) > 0 {
		m.cfg.Template = slices.Clone(start.Template)
	}
	m.mu.Unlock()
	m.markConfigured()
	conn.Send(&protocol.Message{Type: protocol.TAck, Seq: start.Seq})

	for {
		msg, err := conn.Recv()
		if err != nil {
			m.mu.Lock()
			if m.controller == conn {
				m.controller = nil
			}
			m.mu.Unlock()
			return
		}
		switch msg.Type {
		case protocol.TForkWorkers:
			m.mu.Lock()
			m.expected = msg.Workers
			m.mu.Unlock()
			conn.Send(&protocol.Message{Type: protocol.TAck, Seq: msg.Seq})
			m.maybeStart()
		case protocol.TPartitionType:
			var errStr string
			strat := msg.Strategy.Clone()
			m.mu.Lock()
			if m.started {
				errStr = "execution already started; strategy is immutable mid-run"
			} else if err := strat.Validate(); err != nil {
				errStr = err.Error()
			} else {
				m.strat = strat
			}
			m.mu.Unlock()
			conn.Send(&protocol.Message{Type: protocol.TAck, Error: errStr, Seq: msg.Seq})
		case protocol.TRemoveWorker:
			err := m.RemoveWorker(msg.Worker)
			errStr := ""
			if err != nil {
				errStr = err.Error()
			}
			conn.Send(&protocol.Message{Type: protocol.TAck, Error: errStr, Seq: msg.Seq})
		case protocol.TShutdown:
			// Close first, then ack: whoever sees the ack must find the
			// listener already gone.
			m.mu.Lock()
			l := m.listener
			m.mu.Unlock()
			if l != nil {
				l.Close()
			}
			conn.Send(&protocol.Message{Type: protocol.TAck, Seq: msg.Seq})
			return
		default:
			conn.Send(&protocol.Message{Type: protocol.TAck, Error: "unexpected " + msg.Type.String(), Seq: msg.Seq})
		}
	}
}

// --- Worker side ---

// handleWorker admits a worker and runs its message loop.
func (m *Master) handleWorker(conn transport.Conn, reg *protocol.Message) {
	// Wait for the controller's START_MASTER so the registration ack
	// carries the real strategy and template (workers may race ahead of
	// the controller at deployment time).
	m.mu.Lock()
	ctx := m.ctx
	m.mu.Unlock()
	select {
	case <-m.configured:
	case <-m.done:
		return
	case <-ctx.Done():
		return
	}
	m.mu.Lock()
	if _, dup := m.workers[reg.Worker]; dup || reg.Worker == "" {
		m.mu.Unlock()
		conn.Send(&protocol.Message{Type: protocol.TAck, Error: "duplicate or empty worker name"})
		return
	}
	slots := 1
	if m.strat.Multicore && reg.Cores > 1 {
		slots = reg.Cores
	}
	w := &masterWorker{
		name:        reg.Worker,
		conn:        conn,
		cores:       reg.Cores,
		slots:       slots,
		outstanding: make(map[int]bool),
		outWake:     sync.NewCond(&m.mu),
	}
	m.workers[w.name] = w // reserves the name; see masterWorker.Worker
	m.led.Join(&w.Worker)
	template := m.cfg.Template
	common := m.strat.CommonFiles
	m.mu.Unlock()

	if err := conn.Send(&protocol.Message{
		Type: protocol.TAck, Cores: slots, Template: template,
		ReturnOutputs: m.cfg.OutputSink != nil, Batch: m.cfg.Batch,
	}); err != nil {
		m.workerDied(w, err)
		return
	}
	m.logf("worker %s registered (%d cores, %d slots)", w.name, reg.Cores, slots)

	// Stage common files (e.g. the BLAST database) before any dispatch to
	// this worker. Local-data strategies skip network staging.
	if len(common) > 0 && m.strat.Locality == strategy.Remote {
		if err := m.stageCommon(w, common); err != nil {
			m.workerDied(w, err)
			return
		}
	}

	m.mu.Lock()
	w.Ready = true
	m.mu.Unlock()
	// From here on only the writer sends to this worker.
	m.wg.Add(1)
	go m.writer(w)
	m.maybeStart()
	m.dispatch(w)

	for {
		msg, err := conn.Recv()
		if err != nil {
			m.workerDied(w, err)
			return
		}
		switch msg.Type {
		case protocol.TRequestData:
			m.dispatch(w)
		case protocol.TTaskStatus:
			if len(msg.Results) > 0 {
				m.completeBatch(w, msg.Results)
			} else {
				m.completeTask(w, msg.Result)
			}
		case protocol.TFileData:
			if m.cfg.OutputSink == nil {
				m.logf("worker %s returned output %s but no sink is configured", w.name, msg.FileName)
				continue
			}
			if err := storeChunk(m.cfg.OutputSink, msg); err != nil {
				m.logf("storing output %s from %s: %v", msg.FileName, w.name, err)
				continue
			}
			m.mu.Lock()
			m.outputBytes += int64(len(msg.Data))
			m.mu.Unlock()
		default:
			m.logf("worker %s sent unexpected %s", w.name, msg.Type)
		}
	}
}

// maybeStart begins execution once the strategy is known and the expected
// number of workers is ready.
func (m *Master) maybeStart() {
	m.mu.Lock()
	// A worker that died, even before it was ready, has been heard from: the
	// run starts without it instead of waiting for it.
	arrived := 0
	for _, w := range m.workers {
		if w.Ready || w.Dead {
			arrived++
		}
	}
	if m.started || m.expected <= 0 || arrived < m.expected {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.startedAt = time.Now()
	m.mu.Unlock()
	// Every caller is a connection handler or a writer, which m.wg counts.
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		m.runStrategy()
	}()
}

// runStrategy builds the partition plan and drives the strategy's data
// movement.
func (m *Master) runStrategy() {
	cat, err := m.cfg.Source.Catalog()
	if err != nil {
		m.fatal(fmt.Errorf("cataloguing source: %w", err))
		return
	}
	m.mu.Lock()
	strat := m.strat
	m.mu.Unlock()

	// Common files are staged separately; exclude them from partitioning.
	commonSet := make(map[string]bool, len(strat.CommonFiles))
	for _, c := range strat.CommonFiles {
		commonSet[c] = true
	}
	inputs := catalog.New()
	for _, f := range cat.Files() {
		if !commonSet[f.Name] {
			inputs.MustAdd(f)
		}
	}

	gen, err := strat.Generator()
	if err != nil {
		m.fatal(err)
		return
	}
	groups, err := gen.Generate(inputs)
	if err != nil {
		m.fatal(err)
		return
	}

	m.mu.Lock()
	m.catalogue = cat
	m.groups = groups
	workers := m.liveWorkersLocked()
	m.mu.Unlock()
	m.logf("execution starts: %d groups, %d workers, strategy %s", len(groups), len(workers), strat)

	switch strat.Kind {
	case strategy.PrePartition:
		m.runPrePartition(strat, groups, workers)
	case strategy.NoPartition:
		m.runNoPartition(groups, workers)
	case strategy.RealTime:
		m.mu.Lock()
		m.startLocked(len(groups))
		m.led.QueueAll()
		// A worker that became ready while the groups were generated found
		// the queue empty; it is in this snapshot.
		workers = m.liveWorkersLocked()
		m.mu.Unlock()
		for _, w := range workers {
			m.dispatch(w)
		}
	}
	m.checkDone()
}

// startLocked starts the ledger on n groups and sizes the results for their
// outcomes. Caller holds m.mu.
func (m *Master) startLocked(n int) {
	m.led.Start(n)
	m.results = slices.Grow(m.results, n)
}

// liveWorkersLocked snapshots the workers that can be given work, sorted by
// name (deterministic assignment regardless of registration races).
func (m *Master) liveWorkersLocked() []*masterWorker {
	out := make([]*masterWorker, 0, len(m.workers))
	for _, w := range m.workers {
		if w.Ready && w.Live() {
			out = append(out, w)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// runPrePartition implements the two sequential phases of Section II-C:
// transfer everything first, then execute.
func (m *Master) runPrePartition(strat strategy.Config, groups []partition.Group, workers []*masterWorker) {
	assigner, err := strategy.AssignerByName(strat.Assigner)
	if err != nil {
		m.fatal(err)
		return
	}
	assignment, err := assigner.Assign(groups, len(workers))
	if err != nil {
		m.fatal(err)
		return
	}
	per := assignment.PerWorker()

	transferStart := time.Now()
	if strat.Locality == strategy.Remote {
		var sent sync.WaitGroup
		m.mu.Lock()
		for wi, w := range workers {
			// Announce the partition, then stream its unique files.
			var infos []protocol.FileInfo
			seen := map[string]bool{}
			for _, gi := range per[wi] {
				for _, f := range groups[gi].Files {
					if !seen[f.Name] {
						seen[f.Name] = true
						infos = append(infos, protocol.FileInfo{Name: f.Name, Size: f.Size})
					}
				}
			}
			m.enqueueLocked(w, outItem{
				msg:   &protocol.Message{Type: protocol.TDistribute, Files: infos, Groups: per[wi]},
				files: infos, done: &sent,
			})
		}
		m.mu.Unlock()
		sent.Wait()
	}
	m.mu.Lock()
	m.transfers = time.Since(transferStart).Seconds()
	// Each share becomes its worker's backlog, or goes through the deal rule
	// if the worker died or began to drain during the transfer.
	m.startLocked(len(groups))
	for wi, w := range workers {
		m.abandonLocked(w.name, errWorkerLost, m.led.Deal(&w.Worker, per[wi])...)
	}
	m.mu.Unlock()
	m.logf("pre-partition transfer phase done in %.3fs", m.transfers)
	for _, w := range workers {
		m.dispatch(w)
	}
}

// runNoPartition replicates the complete dataset to every node, then farms
// tasks real-time (no further data movement is needed).
func (m *Master) runNoPartition(groups []partition.Group, workers []*masterWorker) {
	transferStart := time.Now()
	m.mu.Lock()
	files := m.catalogue.Files()
	locality := m.strat.Locality
	m.mu.Unlock()
	if locality == strategy.Remote {
		infos := appendInfos(make([]protocol.FileInfo, 0, len(files)), files)
		var sent sync.WaitGroup
		m.mu.Lock()
		for _, w := range workers {
			m.enqueueLocked(w, outItem{files: infos, done: &sent})
		}
		m.mu.Unlock()
		sent.Wait()
	}
	m.mu.Lock()
	m.transfers = time.Since(transferStart).Seconds()
	m.startLocked(len(groups))
	m.led.QueueAll()
	m.mu.Unlock()
	for _, w := range workers {
		m.dispatch(w)
	}
}

// dispatch hands the worker as much work as its slots (× prefetch) allow:
// each group it reserves is one item of the worker's outbox.
func (m *Master) dispatch(w *masterWorker) {
	m.mu.Lock()
	limit := w.slots
	if m.strat.Kind == strategy.RealTime && m.strat.Prefetch > 1 {
		limit = w.slots * m.strat.Prefetch
	}
	// Under compute-to-data placement a group is resident when every file of
	// it is already on the worker.
	var resident func(gi int) bool
	if m.strat.Placement == strategy.ComputeToData {
		resident = func(gi int) bool {
			for _, f := range m.groups[gi].Files {
				if !m.replicas.Has(f.Name, w.name) {
					return false
				}
			}
			return true
		}
	}
	needsTransfer := m.strat.Locality == strategy.Remote && m.strat.Kind != strategy.PrePartition
	first := len(w.outbox)
	for len(w.outstanding) < limit {
		gi, ok := m.led.Next(&w.Worker, resident)
		if !ok {
			break
		}
		w.outstanding[gi] = true
		m.enqueueLocked(w, outItem{group: &m.groups[gi], send: needsTransfer})
	}
	if len(w.outbox) > first {
		w.outbox[len(w.outbox)-1].last = true
	}
	m.mu.Unlock()
}

// enqueueLocked hands the worker's writer one more item. A connection that is
// finished with takes none: the item is dropped and its waiter released.
// Caller holds m.mu.
func (m *Master) enqueueLocked(w *masterWorker, it outItem) {
	if it.done != nil {
		it.done.Add(1)
	}
	if w.outClosed {
		if it.done != nil {
			it.done.Done()
		}
		return
	}
	w.outbox = append(w.outbox, it)
	w.outWake.Signal()
}

// closeOutboxLocked ends the worker's writer and drops what it has not yet
// taken. Caller holds m.mu.
func (m *Master) closeOutboxLocked(w *masterWorker) {
	if w.outClosed {
		return
	}
	w.outClosed = true
	for _, it := range w.outbox {
		if it.done != nil {
			it.done.Done()
		}
	}
	w.outbox = nil
	w.outWake.Signal()
}

// writer drains one ready worker's outbox: it is the connection's only sender
// from ready on. It holds the connection, performs everything queued and
// flushes when the outbox is empty, so a refill — its file chunks and its
// EXECUTE — and whatever else was queued beside it leave in one write. A
// failed send or flush is the worker's death. It returns once the outbox is
// closed.
func (m *Master) writer(w *masterWorker) {
	defer m.wg.Done()
	var items []outItem // the batch in hand; trades places with w.outbox
	held := false
	for {
		m.mu.Lock()
		for len(w.outbox) == 0 && !w.outClosed {
			if !held {
				w.outWake.Wait()
				continue
			}
			m.mu.Unlock()
			held = false
			if err := w.conn.Flush(); err != nil {
				m.workerDied(w, err)
			}
			m.mu.Lock()
		}
		if w.outClosed {
			m.mu.Unlock()
			return
		}
		items, w.outbox = w.outbox, items[:0]
		m.mu.Unlock()

		if !held {
			w.conn.Hold()
			held = true
		}
		var err error
		for i := range items {
			it := &items[i]
			if err == nil {
				err = m.perform(w, it)
				if err == nil && it.done != nil {
					// Whoever waits for these bytes times their reaching
					// the connection, not the send buffer.
					err = w.conn.Flush()
					w.conn.Hold()
				}
				if err != nil {
					m.workerDied(w, err)
				}
			}
			if it.done != nil {
				it.done.Done() // sent, or lost with its worker
			}
		}
		if err != nil {
			return
		}
		clear(items) // the batch is sent; keep none of it alive
	}
}

// perform sends one outbox item on the worker's connection.
func (m *Master) perform(w *masterWorker, it *outItem) error {
	if it.msg != nil {
		if err := w.conn.Send(it.msg); err != nil {
			return err
		}
	}
	for _, f := range it.files {
		if err := m.streamFile(w, f.Name, f.Size); err != nil {
			return err
		}
	}
	g := it.group
	if g == nil {
		return nil
	}
	if it.send {
		for _, f := range g.Files {
			if err := m.streamFile(w, f.Name, f.Size); err != nil {
				return err
			}
		}
	}
	// Tell the worker to run the group: one EXECUTE per group, or — batched
	// control plane — one EXECUTE_BATCH carrying the whole dispatch pass.
	x := &w.exec
	if !m.cfg.Batch {
		x.Type, x.GroupIndex, x.Files = protocol.TExecute, g.Index, appendInfos(x.Files[:0], g.Files)
		return transport.SendReused(w.conn, x)
	}
	// A spec taken back from the previous batch keeps its Files array.
	if n := len(x.Executes); n < cap(x.Executes) {
		x.Executes = x.Executes[:n+1]
	} else {
		x.Executes = append(x.Executes, protocol.ExecuteSpec{})
	}
	spec := &x.Executes[len(x.Executes)-1]
	spec.GroupIndex, spec.Files = g.Index, appendInfos(spec.Files[:0], g.Files)
	if !it.last {
		return nil
	}
	x.Type = protocol.TExecuteBatch
	err := transport.SendReused(w.conn, x)
	x.Executes = x.Executes[:0]
	return err
}

// appendInfos appends the wire description of files to dst.
func appendInfos(dst []protocol.FileInfo, files []catalog.FileMeta) []protocol.FileInfo {
	for _, f := range files {
		dst = append(dst, protocol.FileInfo{Name: f.Name, Size: f.Size})
	}
	return dst
}

// stageCommon streams the common files to a worker that is not ready yet.
// Their sizes come from the source's own catalogue: staging can run before
// the run's catalogue exists.
func (m *Master) stageCommon(w *masterWorker, common []string) error {
	m.stagingMu.Lock()
	if m.stagingCat == nil {
		cat, err := m.cfg.Source.Catalog()
		if err != nil {
			m.stagingMu.Unlock()
			return fmt.Errorf("cataloguing source: %w", err)
		}
		m.stagingCat = cat
	}
	cat := m.stagingCat
	m.stagingMu.Unlock()
	for _, name := range common {
		f, ok := cat.Get(name)
		if !ok {
			return fmt.Errorf("staging common file %s: not in the source", name)
		}
		if err := m.streamFile(w, f.Name, f.Size); err != nil {
			return fmt.Errorf("staging common file %s: %w", name, err)
		}
	}
	return nil
}

// streamFile sends one source file to a worker in chunks, deduplicating
// against the replica map. size is the file's catalogue size; a source that
// does not deliver exactly that many bytes fails the transfer and the
// replica is un-claimed.
func (m *Master) streamFile(w *masterWorker, name string, size int64) error {
	m.mu.Lock()
	if m.replicas.Has(name, w.name) {
		m.mu.Unlock()
		return nil
	}
	// One goroutine at a time sends to a worker (its handler until it is
	// ready, its writer from then on), so whatever is claimed here has been
	// streamed in full before anything queued later is sent.
	m.replicas.Add(name, w.name)
	chunk := m.cfg.ChunkSize
	m.mu.Unlock()

	sent, err := sendFile(w.conn, transfer.File{Name: name, Size: size}, m.cfg.Source, chunk)
	m.mu.Lock()
	m.bytesMoved += sent
	m.mu.Unlock()
	if err != nil {
		m.replicas.Remove(name, w.name)
	}
	return err
}

// fileOpener is where sendFile takes a file from: the master's
// catalog.Source and a worker's Store both open files by name.
type fileOpener interface {
	Open(name string) (io.ReadCloser, error)
}

// sendFile streams one file of src over conn through the runtime's one chunk
// loop. A source that can hand out its bytes (catalog.MemSource, MemStore)
// is sent from them without a copy; any other is read.
func sendFile(conn transport.Conn, f transfer.File, src fileOpener, chunk int) (int64, error) {
	if mem, ok := src.(interface {
		Bytes(name string) ([]byte, bool)
	}); ok {
		if data, ok := mem.Bytes(f.Name); ok {
			return transfer.SendBytes(conn, f, data, chunk)
		}
	}
	rc, err := src.Open(f.Name)
	if err != nil {
		return 0, fmt.Errorf("open %s: %w", f.Name, err)
	}
	defer rc.Close()
	return transfer.Send(conn, f, rc, chunk)
}

// completeTask records a task outcome and re-dispatches.
func (m *Master) completeTask(w *masterWorker, res protocol.TaskResult) {
	if m.recordResult(w, res) {
		m.dispatch(w)
		m.checkDone()
	}
}

// completeBatch books a coalesced status report: every result is recorded
// first, then the freed slots are refilled with a single dispatch pass and a
// single completion check instead of one round per task.
func (m *Master) completeBatch(w *masterWorker, results []protocol.TaskResult) {
	settled := false
	for _, res := range results {
		if m.recordResult(w, res) {
			settled = true
		}
	}
	if settled {
		m.dispatch(w)
		m.checkDone()
	}
}

// recordResult books one task outcome and reports whether it settled a
// dispatched group (and thus may have freed a slot worth refilling).
func (m *Master) recordResult(w *masterWorker, res protocol.TaskResult) bool {
	if res.GroupIndex < 0 {
		m.mu.Lock()
		m.workerErrs = append(m.workerErrs, fmt.Sprintf("%s: %s", w.name, res.Error))
		m.mu.Unlock()
		m.notifyController(res.Error, w.name)
		return false
	}
	m.mu.Lock()
	if !w.outstanding[res.GroupIndex] {
		// Stale or duplicate status (e.g. after a death or reassignment).
		m.mu.Unlock()
		return false
	}
	delete(w.outstanding, res.GroupIndex)
	if res.OK {
		m.led.Succeed(res.GroupIndex)
		m.results = append(m.results, res)
	} else if m.led.Fail(res.GroupIndex) {
		m.logf("group %d failed on %s (attempt %d), requeued: %s",
			res.GroupIndex, w.name, m.led.Attempts(res.GroupIndex), res.Error)
	} else {
		m.results = append(m.results, res)
	}
	m.mu.Unlock()
	return true
}

// workerDied isolates a dead worker: it receives no further data or tasks
// (the paper's automatic isolation), its replicas are forgotten, its
// unfinished groups are requeued under Recover or abandoned otherwise, and
// the controller is informed.
func (m *Master) workerDied(w *masterWorker, cause error) {
	m.mu.Lock()
	m.closeOutboxLocked(w)
	if w.Dead {
		m.mu.Unlock()
		return
	}
	// A disconnect after the run finished is a graceful departure (the
	// worker read NO_MORE_DATA and exited), not a failure.
	if m.led.Finished() {
		w.Dead = true
		m.mu.Unlock()
		w.conn.Close()
		return
	}
	// Its in-flight groups are lost in group order, then its backlog.
	lost := make([]int, 0, len(w.outstanding))
	for gi := range w.outstanding {
		lost = append(lost, gi)
	}
	sort.Ints(lost)
	affected := len(lost) + len(w.Backlog)
	w.outstanding = make(map[int]bool)
	m.abandonLocked(w.name, errWorkerLost, m.led.Die(&w.Worker, lost)...)
	m.replicas.DropNode(w.name)
	m.workerErrs = append(m.workerErrs, fmt.Sprintf("%s: %v", w.name, cause))
	others := m.liveWorkersLocked()
	m.mu.Unlock()
	w.conn.Close()
	m.logf("worker %s died: %v (%d groups affected)", w.name, cause, affected)
	m.notifyController(fmt.Sprintf("%v", cause), w.name)
	m.maybeStart() // it may have been the last expected worker not yet heard from
	for _, o := range others {
		m.dispatch(o)
	}
	m.checkDone()
}

// errWorkerLost is the failure recorded for a group whose worker died.
const errWorkerLost = "worker lost; task not restarted"

// abandonLocked records groups the ledger made terminal as failed, on worker
// (empty when none), for the reason why. Caller holds m.mu.
func (m *Master) abandonLocked(worker, why string, groups ...int) {
	for _, gi := range groups {
		m.results = append(m.results, protocol.TaskResult{GroupIndex: gi, Worker: worker, Error: why})
	}
}

// RemoveWorker drains a worker (elastic scale-in): no new groups are
// dispatched, outstanding work finishes, then the worker is shut down.
func (m *Master) RemoveWorker(name string) error {
	m.mu.Lock()
	w, ok := m.workers[name]
	if !ok || w.Dead || !w.Ready {
		m.mu.Unlock()
		return fmt.Errorf("core: no live worker %q", name)
	}
	m.led.Drain(&w.Worker)
	others := m.liveWorkersLocked()
	m.mu.Unlock()
	for _, o := range others {
		m.dispatch(o)
	}
	// checkDone releases the worker once its outstanding set drains.
	m.checkDone()
	return nil
}

// notifyController forwards a worker error on the control channel.
func (m *Master) notifyController(errStr, worker string) {
	m.mu.Lock()
	c := m.controller
	m.mu.Unlock()
	if c != nil {
		c.Send(&protocol.Message{Type: protocol.TWorkerError, Worker: worker, Error: errStr})
	}
}

// checkDone records what the ledger's stall rule abandons and finishes the
// run when every group is terminal.
func (m *Master) checkDone() {
	m.mu.Lock()
	// Drain completion: a draining worker with no outstanding work is
	// released even before the run completes.
	for _, w := range m.workers {
		if w.Draining && !w.Dead && len(w.outstanding) == 0 {
			w.Dead = true
			m.enqueueLocked(w, outItem{msg: &protocol.Message{Type: protocol.TShutdown}})
			defer m.logf("worker %s drained and released", w.name) // once m.mu is released
		}
	}
	m.abandonLocked("", "no live workers; abandoned", m.led.Abandon()...)
	if !m.led.Finished() {
		m.mu.Unlock()
		return
	}
	m.finishedAt = time.Now()
	workers := m.liveWorkersLocked()
	controller := m.controller
	results := append([]protocol.TaskResult(nil), m.results...)
	bytesMoved := m.bytesMoved
	makespan := m.finishedAt.Sub(m.startedAt).Seconds()
	m.mu.Unlock()

	m.doneOnce.Do(func() {
		m.mu.Lock()
		for _, w := range workers {
			m.enqueueLocked(w, outItem{msg: &protocol.Message{Type: protocol.TNoMoreData}})
		}
		m.mu.Unlock()
		if controller != nil {
			err := controller.Send(&protocol.Message{
				Type:        protocol.TMasterDone,
				Results:     results,
				BytesMoved:  bytesMoved,
				MakespanSec: makespan,
			})
			if err != nil {
				// The controller would wait for the report until its context
				// ends; closing the channel tells it the run is lost.
				m.logf("MASTER_DONE to controller: %v", err)
				m.mu.Lock()
				m.workerErrs = append(m.workerErrs, "master: MASTER_DONE to controller: "+err.Error())
				m.mu.Unlock()
				controller.Close()
			}
		}
		m.logf("all %d groups terminal", len(m.groups))
		close(m.done)
	})
}

// fatal aborts the run: every group is marked failed and the run finishes.
func (m *Master) fatal(err error) {
	m.logf("fatal: %v", err)
	m.mu.Lock()
	m.workerErrs = append(m.workerErrs, "master: "+err.Error())
	// Groups that never reached a worker (the deal found nobody live) are
	// queued; the stall rule abandons them while nobody is live.
	m.startLocked(len(m.groups))
	m.led.QueueAll()
	m.mu.Unlock()
	m.notifyController(err.Error(), "")
	m.checkDone()
}

// Report summarises a finished run.
type Report struct {
	// Strategy is the effective strategy description.
	Strategy string
	// Groups is the total group count.
	Groups int
	// Succeeded and Failed partition the terminal outcomes.
	Succeeded, Failed int
	// Results holds every terminal task result.
	Results []protocol.TaskResult
	// WorkerErrors lists worker failures observed by the master.
	WorkerErrors []string
	// MakespanSec is wall time from execution start to completion.
	MakespanSec float64
	// TransferPhaseSec is the pre-partition/no-partition staging phase wall
	// time (0 for real-time, where transfer interleaves execution).
	TransferPhaseSec float64
	// BytesMoved counts payload bytes the master streamed.
	BytesMoved int64
	// OutputBytes counts result bytes workers returned (OutputSink mode).
	OutputBytes int64
}

// Report returns the run summary; valid once Done is closed.
func (m *Master) Report() Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := Report{
		Strategy:         m.strat.String(),
		Groups:           len(m.groups),
		Results:          append([]protocol.TaskResult(nil), m.results...),
		WorkerErrors:     append([]string(nil), m.workerErrs...),
		TransferPhaseSec: m.transfers,
		BytesMoved:       m.bytesMoved,
		OutputBytes:      m.outputBytes,
	}
	for _, res := range m.results {
		if res.OK {
			r.Succeeded++
		} else {
			r.Failed++
		}
	}
	if !m.finishedAt.IsZero() {
		r.MakespanSec = m.finishedAt.Sub(m.startedAt).Seconds()
	}
	return r
}
